"""First integrals of the geodesic flow built from the mean Berwald tensor.

The central object is the 0-homogeneous (1,1)-tensor

    EE^i_j = 2 F g^{ik} E_kj

whose matrix invariants are constant along geodesics whenever the
chi-curvature vanishes.  Two families are computed:

* power traces  f_a = tr(EE^a),  a = 1..n-1;
* coefficients  c_a of the characteristic polynomial
  det(Lambda I + EE) = Lambda^n + c_1 Lambda^{n-1} + ... + c_{n-1} Lambda
  (there is no free term because EE annihilates y).

The c_a come from the Faddeev-LeVerrier recurrence and are cross-checked
against Newton's identities applied to the f_a and against a brute-force
polynomial fit of det(EE + Lambda I).  A further independent route to
c_{n-1} is the bordered determinant det(2F E + F_y F_y^T) / det g.

These array routines take the values they read -- F, g, g^-1, E and y --
rather than a whole :class:`~finslerkit.tensors.CurvaturePacket`, so a
caller that wants only the first integrals at a point (the homogeneity
ladder of :mod:`finslerkit.verify`, say) never builds the curvature
tensors R, S, chi, I and J that a packet carries.

Closed-form expressions for two first integrals of the ball metric
(n = 3) are evaluated verbatim as printed in their source; desk analysis
shows they do not coincide with c_1, c_2 (different normalization), so
callers must treat the pair (g1_paper, g2_paper) and the pair (c_1, c_2)
as separate claims and report the discrepancy rather than reconcile it.

Scalar fields (F, f_a, c_a, the closed forms) are registered under stable
string ids so the flow and CLI layers can address them; the id is the
registry key, and an entry holds only the field's jet order and builder.  A
builder reads a :class:`~finslerkit.tensors.PointEvaluation` stage, so
fields evaluated together share one EE and one set of invariants: the
f_a and c_a read ``power_traces`` and ``charpoly`` of EE, whose E comes
from the Berwald tensor; ``s_cl`` contracts the mean Cartan and mean
Landsberg route E_CL instead, so the paper's second expression is a
field of its own (it equals f_1 / (2F)).  :func:`build_EE` and the two
invariant routines live beside those stages and are the ones
:func:`first_integral_set` applies to float values.

A field built from jets seeded one order above its ``min_order`` comes
out as a jet of order >= 1, and its degree-1 Taylor coefficients are its
exact phase-space gradient: one pipeline run per point gives every
partial derivative.  The Poisson bracket

    {u, v} = 1/2 g^{ij} (du/dy^j delta v/dx^i - dv/dy^j delta u/dx^i)

is computed from those exact derivatives precisely because it is a
difference of near-equal terms where finite differences would cancel
catastrophically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DimensionError, DomainError, FamilyError, UnknownFieldError
from .expr import _call, _sum_products
from .metrics import FAMILIES, MetricSpec, PhasePoint, _radius, check_domain
from .tensors import PointEvaluation, _charpoly, _power_traces, build_EE, spray_values

__all__ = [
    "FirstIntegralSet",
    "build_EE",
    "newton_from_traces",
    "charpoly_fit",
    "bordered_determinant",
    "first_integral_set",
    "paper_closed_forms",
    "field_ids",
    "field_order",
    "evaluate_fields",
    "field_gradient",
    "spray_derivative_of_field",
    "poisson_bracket_scaled",
]


@dataclass(frozen=True)
class FirstIntegralSet:
    """EE with its invariants and the two independent cross-check values."""

    EE: np.ndarray
    f: np.ndarray
    c: np.ndarray
    newton_residual: float
    bordered_value: float


def newton_from_traces(f: np.ndarray) -> np.ndarray:
    """Elementary symmetric coefficients from power traces.

    Newton's identities: a e_a = sum_{i=1..a} (-1)^{i-1} e_{a-i} f_i,
    with e_0 = 1.  Returns e_1..e_{len(f)}.
    """
    e = [1.0]
    for a in range(1, len(f) + 1):
        total = sum((-1.0) ** (i - 1) * e[a - i] * f[i - 1] for i in range(1, a + 1))
        e.append(total / a)
    return np.array(e[1:])


def charpoly_fit(EE: np.ndarray) -> np.ndarray:
    """Brute-force oracle: fit det(EE + Lambda I) at Lambda = 1..n+1.

    Returns the fitted coefficients c_1..c_n of
    Lambda^n + c_1 Lambda^{n-1} + ... + c_n; c_n should come out ~0.
    """
    n = EE.shape[0]
    lam = np.arange(1.0, n + 2.0)
    rhs = np.array([np.linalg.det(EE + l * np.eye(n)) - l**n for l in lam])
    V = np.vander(lam, n + 1, increasing=False)[:, 1:]
    coeffs, *_ = np.linalg.lstsq(V, rhs, rcond=None)
    return coeffs


def bordered_determinant(F: float, g: np.ndarray, E: np.ndarray, y: np.ndarray) -> float:
    """det(2F E_ij + F_{y^i} F_{y^j}) / det g, an independent route to c_{n-1}."""
    f_y = g @ y / F
    bordered = 2.0 * F * E + np.outer(f_y, f_y)
    return float(np.linalg.det(bordered) / np.linalg.det(g))


def first_integral_set(
    F: float, g: np.ndarray, g_inv: np.ndarray, E: np.ndarray, y: np.ndarray
) -> FirstIntegralSet:
    """EE, its invariants and their cross-checks from the values of F, g,
    g^-1 and E at a point with fiber coordinates y.

    These are all it reads, so a caller needs no curvature beyond E:
    ``first_integral_set(pkt.F, pkt.g, pkt.g_inv, pkt.E, np.array(pkt.point.y))``
    for a :class:`~finslerkit.tensors.CurvaturePacket` ``pkt``.
    """
    EE = build_EE(F, g_inv, E)
    f, c = _power_traces(EE), _charpoly(EE)
    newton = newton_from_traces(f)
    residual = float(max(abs(newton[a] - c[a]) / max(1.0, abs(c[a])) for a in range(len(c))))
    return FirstIntegralSet(
        EE=EE, f=f, c=c, newton_residual=residual, bordered_value=bordered_determinant(F, g, E, y)
    )


# -- closed forms for the n=3 ball metric -----------------------------------

# The closed forms take float or jet coordinates alike: every operand is a
# plain number or lives in the coordinates' own space, so nothing needs aligning.

def _closed_form_pieces(xs, ys):
    ny2 = _sum_products(ys, ys)
    nx2 = _sum_products(xs, xs)
    d = _sum_products(xs, ys)
    # A = |y|^2 - |x|^2|y|^2 + <x,y>^2, positive on the unit ball
    A = ny2 - nx2 * ny2 + d * d
    return ny2, nx2, d, A


def _g1_closed(xs, ys):
    ny2, nx2, d, A = _closed_form_pieces(xs, ys)
    root = _call("sqrt", A)
    num_factor = d * root * (-2.0) - d * d * 2.0 - ny2 * (1.0 - nx2)
    numerator = num_factor * (A * A)
    den_core = ny2 * 0.5 + nx2 * ny2 - d * d * 2.0
    denominator = den_core * ny2 * ((d + root) * (d + root)) * 8.0
    return numerator / denominator


def _g2_closed(xs, ys):
    ny2, nx2, d, A = _closed_form_pieces(xs, ys)
    cross = nx2 * ny2 - d * d
    numerator = (ny2 * 2.0 + cross) * cross
    den_core = ny2 * (-0.5) + ny2 * (1.0 + nx2) - d * d
    return 1.0 + numerator / (den_core * ny2) * 0.5


def paper_closed_forms(p) -> tuple[float, float]:
    """The two printed closed-form first integrals of the n=3 ball metric.

    Evaluated exactly as displayed in their source, with no algebraic
    simplification; see the module docstring for the normalization caveat.
    """
    if not isinstance(p, PhasePoint):
        p = PhasePoint(*p)
    if len(p.x) != 3:
        raise DimensionError("the closed-form first integrals are specific to n = 3")
    if _radius(p.x) >= 1.0:
        raise DomainError("closed forms are defined on the open unit ball |x| < 1")
    return float(_g1_closed(p.x, p.y)), float(_g2_closed(p.x, p.y))


# -- scalar-field registry ---------------------------------------------------

@dataclass(frozen=True)
class _Field:
    """A registered field, named by its key: the jet order it needs and how
    it is built."""

    min_order: int
    build: Callable[[PointEvaluation], object]


@functools.cache
def _fields_for(n: int, closed_forms: bool) -> Mapping[str, _Field]:
    """The registry depends only on the dimension and on whether the printed
    closed forms apply (the family row claims ``closed_forms_vs_charpoly``),
    so it is built once per such pair and shared, read-only, by every spec."""
    fields = {
        "one": _Field(1, lambda ev: ev.F2.const(1.0)),  # constant 1, a bracket sanity field
        "F": _Field(1, lambda ev: ev.F),
        "F2": _Field(1, lambda ev: ev.F2),
        "s_cl": _Field(5, lambda ev: ev.s_cl),
    }
    for a in range(1, n):
        fields[f"f{a}"] = _Field(5, lambda ev, a=a: ev.power_traces[a - 1])
        fields[f"c{a}"] = _Field(5, lambda ev, a=a: ev.charpoly[a - 1])
    if closed_forms and n == 3:
        fields["g1_paper"] = _Field(1, lambda ev: _g1_closed(ev.xs, ev.ys))
        fields["g2_paper"] = _Field(1, lambda ev: _g2_closed(ev.xs, ev.ys))
    return MappingProxyType(fields)


def _fields(spec: MetricSpec) -> Mapping[str, _Field]:
    return _fields_for(spec.dimension, "closed_forms_vs_charpoly" in FAMILIES[spec.family].claims)


def field_ids(spec: MetricSpec) -> list[str]:
    """Registered scalar-field ids for this metric."""
    return sorted(_fields(spec))


def _lookup(spec: MetricSpec, name: str) -> _Field:
    table = _fields(spec)
    if name not in table:
        if name in ("g1_paper", "g2_paper"):
            raise FamilyError(f"field {name!r} exists only for family funk_ball_berwald with n = 3")
        known = ", ".join(sorted(table))
        raise UnknownFieldError(f"unknown scalar field {name!r}; registered: {known}")
    return table[name]


def field_order(spec: MetricSpec, names) -> int:
    """Minimum jet order needed to evaluate all named fields."""
    return max(_lookup(spec, name).min_order for name in names)


def evaluate_fields(spec: MetricSpec, names, p, dtype=np.float64) -> dict[str, float]:
    """Values of the named fields at one phase point (shared evaluation),
    computed in ``dtype`` and returned as floats.

    Values read at most one x-derivative of F^2 (E, for f_a and c_a), so
    the evaluation is seeded at x-degree cap 1."""
    names = list(names)
    ev = PointEvaluation(spec, p, order=field_order(spec, names), x_cap=1, dtype=dtype)
    return {name: _lookup(spec, name).build(ev).num for name in names}


def field_gradient(spec: MetricSpec, name: str, p) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, d/dx gradient, d/dy gradient) of a field, from one jet
    evaluation seeded one order above the field's minimum."""
    field = _lookup(spec, name)
    out = field.build(PointEvaluation(spec, p, order=field.min_order + 1))
    grad = out.gradient()
    n = spec.dimension
    return out.num, grad[:n], grad[n:]


def spray_derivative_of_field(spec: MetricSpec, name: str, p) -> float:
    """G(u) = y^k du/dx^k - 2 G^k du/dy^k; ~0 iff u is a pointwise first integral."""
    p = check_domain(spec, p)
    _, grad_x, grad_y = field_gradient(spec, name, p)
    G = spray_values(spec, p)
    return float(np.dot(p.y, grad_x) - 2.0 * np.dot(G, grad_y))


def _bracket_terms(spec: MetricSpec, fa: str, fb: str, p):
    n = spec.dimension
    # one evaluation carries both gradients (one order above the fields)
    # and the values of N (seed order >= 3) and g^-1
    ev = PointEvaluation(spec, p, order=max(field_order(spec, [fa, fb]) + 1, 3))
    grad_a = _lookup(spec, fa).build(ev).gradient()
    grad_b = _lookup(spec, fb).build(ev).gradient()
    N = ev.N.num
    g_inv = ev.g_inv.num
    # delta u / dx^i = du/dx^i - N^k_i du/dy^k
    delta_a = grad_a[:n] - N.T @ grad_a[n:]
    delta_b = grad_b[:n] - N.T @ grad_b[n:]
    term1 = float(grad_a[n:] @ g_inv @ delta_b)
    term2 = float(grad_b[n:] @ g_inv @ delta_a)
    return term1, term2


def poisson_bracket_scaled(spec: MetricSpec, fa: str, fb: str, p) -> tuple[float, float]:
    """({fa, fb}, scale) at ``p``, where scale bounds the magnitude of either
    term of the bracket (module docstring).

    A bracket is 'numerically zero' when |value| is small against the scale,
    which guards against calling a cancellation of two huge terms a zero.
    """
    term1, term2 = _bracket_terms(spec, fa, fb, p)
    scale = 1.0 + 0.5 * (abs(term1) + abs(term2))
    return 0.5 * (term1 - term2), scale
