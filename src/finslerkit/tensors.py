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
EE, f_a, c_a, s_cl                5    5                          1
covariant derivative of E         6    6                          2
==============================  =====  =========================  ======================

The cap rule: seeds capped at x-degree c (see :mod:`finslerkit.jets`)
give every quantity that takes k <= c x-derivatives exactly, as a jet of
cap c - k, and its gradient too when c - k >= 1.  So a
:class:`PointEvaluation` seeds at cap 2, field gradients and brackets read
cap-2 evaluations, and field values alone need only cap 1 (f_a and c_a
read E, one x-derivative deep).

The first integrals of :mod:`finslerkit.integrals` are stages too:
``EE`` = 2 F g^-1 E (:func:`build_EE`), its power traces
``power_traces`` (f_a) and char-poly coefficients ``charpoly`` (c_a), each
an object array of jets, and ``s_cl``, the trace g^{ij} E_CL_ij of the
Cartan/Landsberg route.  The scalar fields read them, so fields evaluated
at one point share one EE, and an overflow in them names the stage.

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

Every tensor is a :class:`~finslerkit.jets.JetArray`: one float array
``coeffs[*index, size]`` holding the jets of its entries in one space.
A stage aligns its operands once, to the meet of their spaces (the
lowest order and cap among them), and then contracts them with ``@``,
elementwise operators, ``sum`` and ``trace``, each one numpy call over
all entries at low order.  Truncation commutes with sums and products,
coefficient for coefficient, and each contraction keeps the operand
order and left-to-right summation of the index formulas above, so the
results are bit for bit those of single jets aligned at each product.
The scalars (``F2``, ``F``, ``det_g``, ``sigma``, ``tau``, ``S``,
``s_cl``) are single jets, and so is any one entry: ``ev.g[i, j]`` or
``ev.g[i][j]``.

Seeding one order above a quantity's depth leaves it a jet of order >= 1
whose degree-1 coefficients are its phase-space gradient; the Poisson
brackets of the derived first integrals read their gradients, ``N`` and
``g^-1`` from one such evaluation (:mod:`finslerkit.integrals`).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr, metrics
from .errors import DomainError, OrderError, SingularMetricError
from .jets import Jet, JetArray, JetSpace, _sequential_sum, seed_phase_point, stack
from .metrics import PhasePoint

__all__ = [
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


def _align(*tensors):
    """The tensors (or scalars) in the meet of their spaces: the lowest
    order and cap."""
    space = functools.reduce(JetSpace.meet, (t.space for t in tensors))
    return [t.to_space(space) for t in tensors]


def _check_conditioned(g: np.ndarray, point) -> None:
    """Raise :class:`SingularMetricError` where the symmetric matrix g, the
    fundamental tensor at ``point``, has a 2-norm condition number (max|lambda|
    / min|lambda| over its eigenvalues) above :data:`COND_LIMIT`; a singular
    g, or one with an entry that is not finite, counts as infinite.  The
    check runs in float64, whatever the coefficients' dtype."""
    g = np.asarray(g, np.float64)
    cond = math.inf
    if np.isfinite(g).all():
        eigs = np.abs(np.linalg.eigvalsh(g))
        if eigs.min() > 0.0:
            cond = float(eigs.max()) / float(eigs.min())
    if cond > COND_LIMIT:
        raise SingularMetricError(
            f"fundamental tensor is numerically singular at {point} "
            f"(condition number {cond:.3e} > {COND_LIMIT:.0e})"
        )


def mat_inv_det(mat):
    """Inverse and determinant of a small square matrix of scalars, by
    Gauss-Jordan elimination on ``[mat | I]`` with partial pivoting on the
    value parts.

    ``mat`` is a k x k tensor.  Each step eliminates one column with two
    tensor products: the pivot row times the pivot's reciprocal, then the
    other rows' factors times that row, broadcast.  Only entries a later
    step reads are formed: an eliminated left column is dropped, and a
    right-block column stays the identity's (structural zeros and one
    untouched) until its row is a pivot row, so each row carries k live
    entries.  That takes ``(k-1) k (k+1)`` products and ``k`` reciprocals,
    with the full elimination's operands in its order, so every entry it
    forms equals the full elimination's (up to the sign of a zero
    coefficient).  The inverse comes back as a tensor and the determinant
    as a jet.  Raises :class:`SingularMetricError` on an exactly singular
    value part.
    """
    space, k, deg = mat.space, mat.shape[0], mat.deg
    # Row r of ``aug`` holds the left block from the current column on,
    # then the live right-block columns in the order their rows pivoted.
    # The elimination's row r, after its row swaps, is row ``at[r]`` of
    # ``aug`` and row ``rows[r]`` of ``mat``.
    aug = mat.coeffs
    at = list(range(k))
    rows = list(range(k))
    columns = []  # the column of the inverse each live right one is
    det = None
    sign = 1.0
    for col in range(k):
        values = aug[:, 0, 0]
        pivot_row = max(range(col, k), key=lambda r: abs(values[at[r]]))
        if values[at[pivot_row]] == 0.0:
            raise SingularMetricError("matrix of scalars has an exactly singular value part")
        if pivot_row != col:
            at[col], at[pivot_row] = at[pivot_row], at[col]
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        columns.append(rows[col])
        pivot = Jet(space, aug[at[col], 0], deg)
        det = pivot if det is None else det * pivot
        inv_pivot = pivot.recip()
        # the other rows keep their order, and the pivot row goes last
        new = np.empty_like(aug)
        pivot_aug = new[-1]
        pivot_aug[:-1] = (JetArray(space, aug[at[col], 1:], deg) * inv_pivot).coeffs
        pivot_aug[-1] = inv_pivot.coeffs  # the identity's 1 times inv_pivot
        others = aug[at[:col] + at[col + 1 :]]
        scaled = (JetArray(space, others[:, :1], deg) * JetArray(space, pivot_aug)).coeffs
        np.subtract(others[:, 1:], scaled[:, :-1], out=new[:-1, :-1])
        # the new column is a structural zero in the other rows: -(factor ce)
        np.negative(scaled[:, -1], out=new[:-1, -1])
        aug, deg = new, space.order
        at = [r if r < col else r - 1 for r in range(k)]
        at[col] = k - 1
    # the last step leaves every row where the elimination has it
    return JetArray(space, aug[:, np.argsort(columns)]), (-det if sign < 0 else det)


def _matmul(a, b):
    """a @ b for the first-integral formulas below: a tensor's own, or of plain
    values the same left-to-right sums, so values and jets get the same bits
    (numpy's @ may call BLAS, which can fuse them)."""
    if isinstance(a, JetArray):
        return a @ b
    return _sequential_sum(a[..., None] * b[..., None, :, :], a.ndim - 1)


def _trace(a):
    """The trace of a matrix, adding left to right as :func:`_matmul` does."""
    if isinstance(a, JetArray):
        return a.trace()
    return _sequential_sum(np.diagonal(a), 0)


def build_EE(F, g_inv: np.ndarray, E: np.ndarray) -> np.ndarray:
    """EE^i_j = 2 F g^{ik} E_kj from F, g^-1 and E: their values, or a jet
    and tensors in one space."""
    return 2.0 * F * _matmul(g_inv, E)


def _power_traces(EE: np.ndarray) -> np.ndarray:
    """f_a = tr(EE^a), a = 1..n-1."""
    power = EE
    f = [_trace(power)]
    for _ in range(EE.shape[0] - 2):
        power = _matmul(power, EE)
        f.append(_trace(power))
    return np.array(f)


def _charpoly(EE: np.ndarray) -> np.ndarray:
    """c_1..c_{n-1}, the coefficients of det(Lambda I + EE) by
    Faddeev-LeVerrier: M_1 = EE, c_1 = tr M_1, M_k = EE (c_{k-1} I - M_{k-1}),
    c_k = tr(M_k)/k.  EE holds floats or, for the scalar fields, is a tensor
    of jets, and so do the coefficients."""
    n = EE.shape[0]
    M = EE
    c = [_trace(M)]
    eye = np.eye(n)
    for k in range(1, n - 1):
        M = _matmul(EE, c[k - 1] * eye - M)
        c.append(_trace(M) / (k + 1))
    return np.array(c)


def _out_of_range(name: str, point, err: FloatingPointError) -> DomainError:
    """The error for a float overflow raised in the stage ``name`` at ``point``."""
    return DomainError(f"{name} leaves the float range at {point}: {err}")


def _stage(method):
    """A :class:`PointEvaluation` stage, computed on first use and kept.  It
    runs under ``np.errstate(over="raise", invalid="raise")``, so a float
    overflow or invalid operation in it is the :func:`_out_of_range` error
    naming the stage and the point, whatever the caller's errstate; a
    stage it calls has named itself already."""
    name = method.__name__.lstrip("_")

    @functools.wraps(method)
    def run(self):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return method(self)
        except FloatingPointError as err:
            raise _out_of_range(name, self.point, err) from None

    return cached_property(run)


# the tensor-valued fields of a CurvaturePacket
_PACKET_TENSORS = ("g", "g_inv", "h", "G", "N", "R_jac", "R_curv", "B", "E", "chi", "I", "J", "I_hcov", "J_vder")


class PointEvaluation:
    """Lazy pipeline evaluation at one phase point, the one route to every
    pointwise tensor.

    Properties are tensors (:class:`~finslerkit.jets.JetArray`), single
    jets (``F2``, ``F``, ``det_g``, ``sigma``, ``tau``, ``S``, ``s_cl``) or
    object arrays of jets (``power_traces``, ``charpoly``), built on
    first use at a seed ``order`` no lower than the module docstring's
    table asks for; :meth:`packet` is the numpy snapshot of the whole
    tower (order >= 5).  The seeds carry at most ``x_cap`` position
    derivatives (module docstring; ``None`` for none); the default 2 is
    all any quantity here needs.  The seeds' coefficients are of
    ``dtype``, and so is every tensor: ``np.longdouble`` runs the same
    formulas with a longer mantissa where the platform has one.  A float
    overflow in a stage is an error naming the stage and the point
    (:func:`_stage`).  The coordinate jets of
    :func:`~finslerkit.jets.seed_phase_point` are ``seeds``: positions
    first, then fibers.
    """

    def __init__(
        self,
        spec: metrics.MetricSpec,
        point,
        order: int = 5,
        x_cap: int | None = 2,
        dtype=np.float64,
    ):
        point = metrics.check_domain(spec, point)
        self.spec = spec
        self.point = point
        self.n = spec.dimension
        self.order = order
        self.seeds = seed_phase_point(point, order, x_cap, dtype)
        self.xs = self.seeds[: self.n]
        self.ys = self.seeds[self.n :]

    # -- derivative helpers -------------------------------------------

    def _grad_x(self, t):
        """The partials of t's entries by x^k, along a new last axis k."""
        return t.partials(range(self.n))

    def _grad_y(self, t):
        """The partials of t's entries by y^k, along a new last axis k."""
        return t.partials(range(self.n, 2 * self.n))

    @cached_property  # a stack of the seeds: nothing to overflow
    def _y(self):
        """The fiber coordinates as a tensor."""
        return stack(self.ys)

    def spray_d(self, t):
        """D(f) = y^k df/dx^k - 2 G^k df/dy^k for each entry f of t."""
        ys, G, fx, fy = _align(self._y, self.G, self._grad_x(t), self._grad_y(t))
        return (ys * fx - G * fy * 2.0).sum(axis=-1)

    def hder(self, t):
        """delta f / dx^i = df/dx^i - N^j_i df/dy^j for each entry f of t,
        along a new last axis i."""
        N, fx, fy = _align(self.N, self._grad_x(t), self._grad_y(t))
        return functools.reduce(operator.sub, (N[j] * fy[..., j, None] for j in range(self.n)), fx)

    # -- pipeline stages ------------------------------------------------

    @_stage
    def F2(self):
        return metrics.eval_F2(self.spec, self.xs, self.ys)

    @_stage
    def F(self):
        return self.F2.sqrt()

    @_stage
    def g(self):
        if self.order < 2:
            raise OrderError("the fundamental tensor needs seed order >= 2")
        return self._grad_y(self._grad_y(self.F2)) * 0.5

    @_stage
    def _g_inv_det(self):
        _check_conditioned(self.g.num, self.point)
        # under a homothety c F^2, det g scales like c^n: it is the first to overflow
        return mat_inv_det(self.g)

    @property
    def g_inv(self):
        return self._g_inv_det[0]

    @property
    def det_g(self):
        return self._g_inv_det[1]

    @_stage
    def h(self):
        g, fy = _align(self.g, self._grad_y(self.F))
        return g - fy[:, None] * fy

    @_stage
    def G(self):
        """Spray coefficients G^i."""
        F2y = self._grad_y(self.F2)
        g_inv, F2yx, ys, F2x = _align(self.g_inv, self._grad_x(F2y), self._y, self._grad_x(self.F2))
        return (g_inv @ (F2yx @ ys - F2x)) * 0.25

    @_stage
    def N(self):
        if self.order < 3:
            raise OrderError("the nonlinear connection needs seed order >= 3")
        return self._grad_y(self.G)

    @_stage
    def R_jac(self):
        """Jacobi endomorphism R^i_j."""
        Gx, DN, N = _align(self._grad_x(self.G), self.spray_d(self.N), self.N)
        return Gx * 2.0 - DN - N @ N

    @_stage
    def R_curv(self):
        """Curvature tensor R^i_jk of the nonlinear connection."""
        hN = self.hder(self.N)
        return hN - hN.transpose(0, 2, 1)

    @_stage
    def B(self):
        """Berwald curvature B^i_jkl."""
        if self.order < 5:
            raise OrderError("the Berwald tensor needs seed order >= 5")
        return self._grad_y(self._grad_y(self.N))

    @_stage
    def E(self):
        """Mean Berwald tensor from the trace of B."""
        return self.B.trace(axis1=0, axis2=3) * 0.5

    @_stage
    def sigma(self):
        """The metric's reference density ``spec.sigma`` (1 when unset)."""
        node = self.spec.sigma
        value = 1.0 if node is None else expr.evaluate(node, self.xs, self.ys)
        # a constant density comes back as a plain number
        return self.xs[0].const(value) if isinstance(value, numbers.Real) else value

    @_stage
    def tau(self):
        """Distortion 1/2 ln(det g / sigma)."""
        det, sig = _align(self.det_g, self.sigma)
        return (det / sig).ln() * 0.5

    @_stage
    def S(self):
        return self.spray_d(self.tau)

    @_stage
    def E_S(self):
        """Mean Berwald tensor from the fiber Hessian of S."""
        return self._grad_y(self._grad_y(self.S)) * 0.5

    @_stage
    def I(self):
        """Mean Cartan torsion I_k."""
        return self._grad_y(self.tau)

    @_stage
    def J(self):
        """Mean Landsberg torsion J_i = nabla I_i."""
        DI, I, N = _align(self.spray_d(self.I), self.I, self.N)
        return DI - I @ N

    @_stage
    def I_hcov(self):
        """Horizontal covariant derivative; element [i][j] is I_{j;i}."""
        hI, I, G_yy = _align(self.hder(self.I), self.I, self._grad_y(self.N))
        return functools.reduce(operator.sub, (I[l] * G_yy[l] for l in range(self.n)), hI.T)

    @_stage
    def J_vder(self):
        """Fiber derivative; element [i][j] is dJ_i/dy^j."""
        return self._grad_y(self.J)

    @_stage
    def E_CL(self):
        """Mean Berwald tensor from mean Cartan/Landsberg data."""
        I_hcov, J_vder = _align(self.I_hcov, self.J_vder)
        return (I_hcov + J_vder) * 0.5

    @_stage
    def chi(self):
        """chi_i = 1/2 (D(dS/dy^i) - dS/dx^i)."""
        DSy, Sx = _align(self.spray_d(self._grad_y(self.S)), self._grad_x(self.S))
        return (DSy - Sx) * 0.5

    @_stage
    def hamel(self):
        """H_ij = delta(dS/dy^j)/dx^i - delta(dS/dy^i)/dx^j."""
        # hSy[j][i] is delta(dS/dy^j)/dx^i
        hSy = self.hder(self._grad_y(self.S))
        return hSy.T - hSy

    @_stage
    def EE(self):
        """EE^i_j = 2 F g^{ik} E_kj (:func:`build_EE`), E from the trace of B.
        Of order-0 jets (a field value's), it is formed on their values:
        the same bits, without the tensor arithmetic."""
        F, g_inv, E = _align(self.F, self.g_inv, self.E)
        if F.space.order:
            return build_EE(F, g_inv, E)
        values = build_EE(F.coeffs[0], g_inv.num, E.num)
        return JetArray(F.space, values[..., None], 0)

    def _invariants(self, invariants):
        """``invariants`` (:func:`_power_traces` or :func:`_charpoly`) of EE,
        jets in an object array; of order-0 jets, run on EE's values as
        :attr:`EE` runs."""
        EE = self.EE
        if EE.space.order:
            return invariants(EE)
        values = invariants(EE.num)
        return np.array([Jet(EE.space, c, 0) for c in values[:, None]])

    @_stage
    def power_traces(self):
        """The jets f_a = tr(EE^a), a = 1..n-1, in an object array."""
        return self._invariants(_power_traces)

    @_stage
    def charpoly(self):
        """The jets c_1..c_{n-1} of det(Lambda I + EE), in an object array."""
        return self._invariants(_charpoly)

    @_stage
    def s_cl(self):
        """g^{ij} E_CL_ij = 1/2 g^{ij} (I_{j;i} + J_{i.j}), the mean Cartan
        and mean Landsberg route; it equals f_1 / (2F), which reads E from B."""
        g_inv, E_CL = _align(self.g_inv, self.E_CL)
        return (g_inv * E_CL).sum(axis=1).sum()

    def nabla2(self, T):
        """Covariant derivative of a (0,2) tensor along the spray."""
        DT, T, N = _align(self.spray_d(T), T, self.N)
        return DT - (T.T @ N).T - T @ N

    # -- numpy views ----------------------------------------------------

    @_stage
    def flag(self) -> FlagData:
        r = self.R_jac.num
        g = self.g.num
        y = np.array(self.point.y)
        f2 = self.F2.num
        kappa = float(np.trace(r)) / ((self.n - 1) * f2) if self.n > 1 else 0.0
        model = kappa * (f2 * np.eye(self.n) - np.outer(y, g @ y))
        residual = float(np.linalg.norm(r - model)) / max(1.0, float(np.linalg.norm(r)))
        return FlagData(is_scalar=bool(residual <= SCALAR_FLAG_TOL), kappa=kappa, residual=residual)

    def packet(self) -> CurvaturePacket:
        if self.order < 5:
            raise OrderError("a full curvature packet needs seed order >= 5")
        F = self.F.num  # first: its sqrt is the first jet function that can fail
        values = {name: getattr(self, name).num for name in _PACKET_TENSORS}
        return CurvaturePacket(
            metric=self.spec.name, point=self.point, order=self.order, F=F, tau=self.tau.num,
            S=self.S.num, alpha=(self.J.num, -values["I"]), flag=self.flag, **values,
        )


# -- the spray alone, for geodesic right-hand sides -------------------------

def spray_values(spec, p) -> np.ndarray:
    """Spray coefficients G^i at p, read off one order-2 jet of F^2.

    Same formula as the jet route: g is half the yy block of the Hessian
    of F^2, d^2F^2/dy dx . y its yx block applied to y, and dF^2/dx the x
    part of the gradient; then one ``np.linalg.solve``.  This is the fast
    path for geodesic right-hand sides.  It runs under the errstate of a
    stage (:func:`_stage`), so a float overflow or invalid operation in it
    is the :func:`_out_of_range` error of the stage ``spray``.
    """
    p = metrics.check_domain(spec, p)
    n = spec.dimension
    try:
        with np.errstate(over="raise", invalid="raise"):
            seeds = seed_phase_point(p, 2)
            f2 = metrics.eval_F2(spec, seeds[:n], seeds[n:])
            hess = f2.hessian()
            g = 0.5 * hess[n:, n:]
            _check_conditioned(g, p)
            b = (hess[n:, :n] * p.y).sum(axis=1) - f2.gradient()[:n]
            return 0.25 * np.linalg.solve(g, b)
    except FloatingPointError as err:
        raise _out_of_range("spray", p, err) from None
