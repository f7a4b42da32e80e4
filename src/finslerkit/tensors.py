"""The curvature pipeline: spray, nonlinear connection, curvature tensors.

Everything is computed at a single phase point by seeding coordinate jets
(:func:`finslerkit.jets.seed_phase_point`) and pushing them through the
defining formulas.  With base order m, the energy function F^2 is a jet of
order m and each differentiation consumes one order, so the deepest
quantities dictate the seed order.  No quantity takes more than two
derivatives of F^2 in x:

==============================  =====  =========================  ======================
quantity                        depth  min seed order for values  x-derivatives of F^2
==============================  =====  =========================  ======================
g_ij, spray G^i                   2    2                          1
connection N^i_j                  3    3                          1
Jacobi/curvature R                4    4                          2
B, E, S-derived tensors, chi      5    5                          2
covariant derivative of E         6    6                          2
==============================  =====  =========================  ======================

The cap rule: seeds capped at x-degree c (see :mod:`finslerkit.jets`)
give every quantity that takes k <= c x-derivatives exactly, as a jet of
cap c - k, and its gradient too when c - k >= 1.  So a
:class:`PointEvaluation` seeds at cap 2, field gradients and brackets read
cap-2 evaluations, and field values alone need only cap 1 (f_a and c_a
read E, one x-derivative deep).

Conventions (indices are 0-based in code):

* ``g_ij = 1/2 d^2 F^2 / dy^i dy^j``, ``G^i = 1/4 g^{ij}(d^2 F^2/(dy^j dx^k) y^k - dF^2/dx^j)``
* ``N^i_j = dG^i/dy^j``; horizontal derivative ``delta/dx^i = d/dx^i - N^j_i d/dy^j``
* spray derivative of a scalar: ``D(f) = y^k df/dx^k - 2 G^k df/dy^k``
* Jacobi endomorphism ``R^i_j = 2 dG^i/dx^j - D(N^i_j) - N^i_k N^k_j``
* curvature ``R^i_jk = delta N^i_j / dx^k - delta N^i_k / dx^j``
* Berwald ``B^i_jkl = d^3 G^i / dy^j dy^k dy^l``; mean value ``E_ij = 1/2 B^k_ijk``
* distortion ``tau = 1/2 ln(det g / sigma)``, ``S = D(tau)``
* ``chi_i = 1/2 (D(dS/dy^i) - dS/dx^i)``
* mean Cartan ``I_k = dtau/dy^k``; mean Landsberg ``J_i = D(I_i) - I_k N^k_i``
* ``I_{j;i} = delta I_j/dx^i - I_l d^2 G^l/(dy^i dy^j)``; ``J_{i.j} = dJ_i/dy^j``
* covariant (0,2) rule: ``(nabla T)_ij = D(T_ij) - T_kj N^k_i - T_ik N^k_j``

The three mean-Berwald routes are exposed separately (``E`` from B,
``E_S = 1/2 d^2 S/dy^2``, ``E_CL = 1/2 (I_{j;i} + J_{i.j})``); they must
agree for a correct implementation and are never collapsed into one.

Seeding one order above a quantity's depth leaves it a jet of order >= 1
whose degree-1 coefficients are its phase-space gradient; the Poisson
brackets of the derived first integrals read their gradients, ``N`` and
``g^-1`` from one such evaluation (:mod:`finslerkit.integrals`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr, metrics
from .errors import OrderError, SingularMetricError
from .jets import seed_phase_point

__all__ = [
    "PhasePoint",
    "FlagData",
    "CurvaturePacket",
    "PointEvaluation",
    "spray_values",
]

# g with condition number beyond this is treated as numerically singular.
COND_LIMIT = 1e10

# Scalar-flag classification threshold on the model residual.
SCALAR_FLAG_TOL = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, y) of the slit tangent bundle, y != 0."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __init__(self, x, y):
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "y", tuple(float(v) for v in y))


@dataclass(frozen=True)
class FlagData:
    """Scalar-flag diagnosis of the Jacobi endomorphism.

    ``kappa`` is tr(R)/((n-1) F^2); ``residual`` the relative deviation of
    R from the scalar model kappa (F^2 id - y (.) g y); ``is_scalar`` is
    residual <= 1e-8.
    """

    is_scalar: bool
    kappa: float
    residual: float


@dataclass(frozen=True)
class CurvaturePacket:
    """Every pointwise tensor of the pipeline, as plain numpy values."""

    metric: str
    point: PhasePoint
    order: int
    F: float
    g: np.ndarray
    g_inv: np.ndarray
    h: np.ndarray
    G: np.ndarray
    N: np.ndarray
    R_jac: np.ndarray
    R_curv: np.ndarray
    B: np.ndarray
    E: np.ndarray
    tau: float
    S: float
    chi: np.ndarray
    I: np.ndarray
    J: np.ndarray
    I_hcov: np.ndarray
    J_vder: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray]
    flag: FlagData


def _align(*scalars):
    """The scalars in the meet of their spaces: the lowest order and cap."""
    space = scalars[0].space
    for s in scalars[1:]:
        if s.space is not space:
            space = space.meet(s.space)
    return [s.to_space(space) for s in scalars]


def _mul(a, b):
    if a.space is not b.space:
        space = a.space.meet(b.space)
        return a.to_space(space) * b.to_space(space)
    return a * b


def _dot_scal(vec_a, vec_b):
    acc = None
    for a, b in zip(vec_a, vec_b):
        term = _mul(a, b)
        acc = term if acc is None else _add(acc, term)
    return acc


def _add(a, b):
    if a.space is not b.space:
        space = a.space.meet(b.space)
        return a.to_space(space) + b.to_space(space)
    return a + b


def _sub(a, b):
    if a.space is not b.space:
        space = a.space.meet(b.space)
        return a.to_space(space) - b.to_space(space)
    return a - b


def _condition_number(g: np.ndarray) -> float:
    """max|lambda| / min|lambda| over the eigenvalues of the symmetric
    matrix g, which is its 2-norm condition number; inf when g is singular
    or has an entry that is not finite."""
    if not np.isfinite(g).all():
        return math.inf
    eigs = np.abs(np.linalg.eigvalsh(g))
    smallest = float(eigs.min())
    return float(eigs.max()) / smallest if smallest > 0.0 else math.inf


def _values(obj) -> np.ndarray:
    """Recursive .num extraction of nested scalar lists into an ndarray."""
    if isinstance(obj, list):
        return np.array([_values(o) for o in obj])
    return obj.num


def mat_inv_det(mat):
    """Inverse and determinant of a small square matrix of scalars, by
    Gauss-Jordan elimination on ``[mat | I]`` with partial pivoting on the
    value parts.

    The entries are first aligned to the meet of their spaces, so every
    result lives there.  Only entries a later step reads are formed: once a
    left column is eliminated it is never read again, and a right-block
    column stays the identity's (structural zeros and one untouched) until
    its row is a pivot row.  That takes ``(k-1) k (k+1)`` products and ``k``
    reciprocals for a k x k matrix, with the full elimination's operands in
    its order, so every entry it forms equals the full elimination's (up to
    the sign of a zero coefficient).  Raises :class:`SingularMetricError` on an exactly singular value part.
    """
    k = len(mat)
    flat = _align(*(entry for row in mat for entry in row))
    # each row's left block from the current column on
    left = [flat[i * k : (i + 1) * k] for i in range(k)]
    # each row's live right-block entries by column; None is the identity's 1
    right = [{i: None} for i in range(k)]
    det = None
    sign = 1.0
    for col in range(k):
        pivot_row = max(range(col, k), key=lambda r: abs(left[r][0].num))
        if left[pivot_row][0].num == 0.0:
            raise SingularMetricError("matrix of scalars has an exactly singular value part")
        if pivot_row != col:
            left[col], left[pivot_row] = left[pivot_row], left[col]
            right[col], right[pivot_row] = right[pivot_row], right[col]
            sign = -sign
        pivot = left[col][0]
        det = pivot if det is None else det * pivot
        inv_pivot = pivot.recip()
        left[col] = [entry * inv_pivot for entry in left[col][1:]]
        right[col] = {j: inv_pivot if e is None else e * inv_pivot for j, e in right[col].items()}
        for row in range(k):
            if row == col:
                continue
            factor = left[row][0]
            left[row] = [e - factor * ce for e, ce in zip(left[row][1:], left[col])]
            entries = right[row]
            for j, ce in right[col].items():
                # a missing entry is a structural zero
                entries[j] = entries[j] - factor * ce if j in entries else -(factor * ce)
    inv = [[right[i][j] for j in range(k)] for i in range(k)]
    return inv, (-det if sign < 0 else det)


class PointEvaluation:
    """Lazy pipeline evaluation at one phase point, the one route to every
    pointwise tensor.

    Properties are scalar-valued (jets by default), built on first use at a
    seed ``order`` no lower than the module docstring's table asks for;
    :meth:`packet` is the numpy snapshot of the whole tower (order >= 5).
    The seeds carry at most ``x_cap`` position derivatives (module
    docstring; ``None`` for none); the default 2 is all any quantity here
    needs.  Pass ``seeds`` to run the same formulas over other coordinate
    scalars with the jet interface.
    """

    def __init__(
        self, spec: metrics.MetricSpec, point, order: int = 5, sigma=None, seeds=None, x_cap: int | None = 2
    ):
        if not isinstance(point, PhasePoint):
            point = PhasePoint(*point)
        metrics.check_domain(spec, point.x, point.y)
        self.spec = spec
        self.point = point
        self.n = spec.dimension
        if seeds is None:
            seeds = seed_phase_point(point, order, x_cap)
        self.seeds = seeds
        self.order = seeds[0].order
        self.xs = list(seeds[: self.n])
        self.ys = list(seeds[self.n :])
        if sigma is not None and isinstance(sigma, str):
            sigma = expr.parse_expression(sigma)
        self._sigma_node = sigma if sigma is not None else spec.sigma

    # -- derivative helpers -------------------------------------------

    def dx(self, f, i: int):
        return f.d(i)

    def dy(self, f, i: int):
        return f.d(self.n + i)

    def spray_d(self, f):
        """D(f) = y^k df/dx^k - 2 G^k df/dy^k."""
        acc = None
        for k in range(self.n):
            term = _sub(_mul(self.ys[k], self.dx(f, k)), _mul(self.G[k], self.dy(f, k)) * 2.0)
            acc = term if acc is None else _add(acc, term)
        return acc

    def hder(self, f, i: int):
        """delta f / dx^i = df/dx^i - N^j_i df/dy^j."""
        acc = self.dx(f, i)
        for j in range(self.n):
            acc = _sub(acc, _mul(self.N[j][i], self.dy(f, j)))
        return acc

    # -- pipeline stages ------------------------------------------------

    @cached_property
    def F2(self):
        return metrics.eval_F2(self.spec, self.xs, self.ys)

    @cached_property
    def F(self):
        return self.F2.sqrt()

    @cached_property
    def g(self):
        if self.order < 2:
            raise OrderError("the fundamental tensor needs seed order >= 2")
        return [[self.dy(self.dy(self.F2, i), j) * 0.5 for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def _g_inv_det(self):
        cond = _condition_number(_values(self.g))
        if cond > COND_LIMIT:
            raise SingularMetricError(
                f"fundamental tensor is numerically singular at {self.point} "
                f"(condition number {cond:.3e} > {COND_LIMIT:.0e})"
            )
        return mat_inv_det(self.g)

    @property
    def g_inv(self):
        return self._g_inv_det[0]

    @property
    def det_g(self):
        return self._g_inv_det[1]

    @cached_property
    def h(self):
        fy = [self.dy(self.F, i) for i in range(self.n)]
        return [[_sub(self.g[i][j], _mul(fy[i], fy[j])) for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def G(self):
        """Spray coefficients G^i."""
        b = []
        for j in range(self.n):
            acc = None
            for k in range(self.n):
                term = _mul(self.dx(self.dy(self.F2, j), k), self.ys[k])
                acc = term if acc is None else _add(acc, term)
            b.append(_sub(acc, self.dx(self.F2, j)))
        return [_dot_scal(self.g_inv[i], b) * 0.25 for i in range(self.n)]

    @cached_property
    def N(self):
        if self.order < 3:
            raise OrderError("the nonlinear connection needs seed order >= 3")
        return [[self.dy(self.G[i], j) for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def R_jac(self):
        """Jacobi endomorphism R^i_j."""
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                term = _sub(self.dx(self.G[i], j) * 2.0, self.spray_d(self.N[i][j]))
                row.append(_sub(term, _dot_scal(self.N[i], [self.N[k][j] for k in range(self.n)])))
            out.append(row)
        return out

    @cached_property
    def R_curv(self):
        """Curvature tensor R^i_jk of the nonlinear connection."""
        hN = [[[self.hder(self.N[i][j], k) for k in range(self.n)] for j in range(self.n)] for i in range(self.n)]
        return [
            [[_sub(hN[i][j][k], hN[i][k][j]) for k in range(self.n)] for j in range(self.n)]
            for i in range(self.n)
        ]

    @cached_property
    def B(self):
        """Berwald curvature B^i_jkl."""
        if self.order < 5:
            raise OrderError("the Berwald tensor needs seed order >= 5")
        n = self.n
        out = []
        for i in range(n):
            d1 = [self.dy(self.G[i], j) for j in range(n)]
            d2 = {(j, k): self.dy(d1[j], k) for j in range(n) for k in range(j, n)}
            # the row of (j, k) serves (k, j) as well: derivatives commute
            rows = {jk: [self.dy(d2[jk], l) for l in range(n)] for jk in d2}
            out.append([[rows[min(j, k), max(j, k)] for k in range(n)] for j in range(n)])
        return out

    @cached_property
    def E(self):
        """Mean Berwald tensor from the trace of B."""
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = None
                for k in range(self.n):
                    term = self.B[k][i][j][k]
                    acc = term if acc is None else _add(acc, term)
                row.append(acc * 0.5)
            out.append(row)
        return out

    @cached_property
    def sigma(self):
        node = self._sigma_node
        value = 1.0 if node is None else expr.evaluate(node, self.xs, self.ys)
        # a constant density comes back as a plain number
        return self.xs[0].const(value) if isinstance(value, numbers.Real) else value

    @cached_property
    def tau(self):
        """Distortion 1/2 ln(det g / sigma)."""
        det, sig = _align(self.det_g, self.sigma)
        return (det / sig).ln() * 0.5

    @cached_property
    def S(self):
        return self.spray_d(self.tau)

    @cached_property
    def E_S(self):
        """Mean Berwald tensor from the fiber Hessian of S."""
        return [[self.dy(self.dy(self.S, i), j) * 0.5 for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def I(self):
        """Mean Cartan torsion I_k."""
        return [self.dy(self.tau, k) for k in range(self.n)]

    @cached_property
    def J(self):
        """Mean Landsberg torsion J_i = nabla I_i."""
        return [
            _sub(self.spray_d(self.I[i]), _dot_scal(self.I, [self.N[k][i] for k in range(self.n)]))
            for i in range(self.n)
        ]

    @cached_property
    def I_hcov(self):
        """Horizontal covariant derivative; element [i][j] is I_{j;i}."""
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = self.hder(self.I[j], i)
                for l in range(self.n):
                    acc = _sub(acc, _mul(self.I[l], self.dy(self.dy(self.G[l], i), j)))
                row.append(acc)
            out.append(row)
        return out

    @cached_property
    def J_vder(self):
        """Fiber derivative; element [i][j] is dJ_i/dy^j."""
        return [[self.dy(self.J[i], j) for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def E_CL(self):
        """Mean Berwald tensor from mean Cartan/Landsberg data."""
        return [
            [_add(self.I_hcov[i][j], self.J_vder[i][j]) * 0.5 for j in range(self.n)]
            for i in range(self.n)
        ]

    @cached_property
    def chi(self):
        """chi_i = 1/2 (D(dS/dy^i) - dS/dx^i)."""
        return [
            _sub(self.spray_d(self.dy(self.S, i)), self.dx(self.S, i)) * 0.5 for i in range(self.n)
        ]

    @cached_property
    def hamel(self):
        """H_ij = delta(dS/dy^j)/dx^i - delta(dS/dy^i)/dx^j."""
        sy = [self.dy(self.S, i) for i in range(self.n)]
        return [
            [_sub(self.hder(sy[j], i), self.hder(sy[i], j)) for j in range(self.n)]
            for i in range(self.n)
        ]

    def nabla2(self, T):
        """Covariant derivative of a (0,2) tensor of scalars along the spray."""
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = self.spray_d(T[i][j])
                acc = _sub(acc, _dot_scal([T[k][j] for k in range(self.n)], [self.N[k][i] for k in range(self.n)]))
                acc = _sub(acc, _dot_scal(T[i], [self.N[k][j] for k in range(self.n)]))
                row.append(acc)
            out.append(row)
        return out

    # -- numpy views ----------------------------------------------------

    @cached_property
    def flag(self) -> FlagData:
        r = _values(self.R_jac)
        g = _values(self.g)
        y = np.array(self.point.y)
        f2 = self.F2.num
        kappa = float(np.trace(r)) / ((self.n - 1) * f2) if self.n > 1 else 0.0
        model = kappa * (f2 * np.eye(self.n) - np.outer(y, g @ y))
        residual = float(np.linalg.norm(r - model)) / max(1.0, float(np.linalg.norm(r)))
        return FlagData(is_scalar=bool(residual <= SCALAR_FLAG_TOL), kappa=kappa, residual=residual)

    def packet(self) -> CurvaturePacket:
        if self.order < 5:
            raise OrderError("a full curvature packet needs seed order >= 5")
        return CurvaturePacket(
            metric=self.spec.name,
            point=self.point,
            order=self.order,
            F=self.F.num,
            g=_values(self.g),
            g_inv=_values(self.g_inv),
            h=_values(self.h),
            G=_values(self.G),
            N=_values(self.N),
            R_jac=_values(self.R_jac),
            R_curv=_values(self.R_curv),
            B=_values(self.B),
            E=_values(self.E),
            tau=self.tau.num,
            S=self.S.num,
            chi=_values(self.chi),
            I=_values(self.I),
            J=_values(self.J),
            I_hcov=_values(self.I_hcov),
            J_vder=_values(self.J_vder),
            alpha=(_values(self.J), -_values(self.I)),
            flag=self.flag,
        )


# -- the spray alone, for geodesic right-hand sides -------------------------

def spray_values(spec, p) -> np.ndarray:
    """Spray coefficients G^i at p, read off one order-2 jet of F^2.

    Same formula as the jet route: g is half the yy block of the Hessian
    of F^2, d^2F^2/dy dx . y its yx block applied to y, and dF^2/dx the x
    part of the gradient; then one ``np.linalg.solve``.  This is the fast
    path for geodesic right-hand sides.
    """
    if not isinstance(p, PhasePoint):
        p = PhasePoint(*p)
    metrics.check_domain(spec, p.x, p.y)
    n = spec.dimension
    seeds = seed_phase_point(p, 2)
    f2 = metrics.eval_F2(spec, seeds[:n], seeds[n:])
    hess = f2.hessian()
    g = 0.5 * hess[n:, n:]
    cond = _condition_number(g)
    if cond > COND_LIMIT:
        raise SingularMetricError(
            f"fundamental tensor is numerically singular at {p} (condition number {cond:.3e})"
        )
    b = (hess[n:, :n] * p.y).sum(axis=1) - f2.gradient()[:n]
    return 0.25 * np.linalg.solve(g, b)
