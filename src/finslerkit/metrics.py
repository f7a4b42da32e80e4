"""Phase points and metric descriptions: families, config parsing, domain
guards, sampling.

A :class:`PhasePoint` is a point (x, y) of the slit tangent bundle, the
tangent bundle without its zero section, where every tensor and first
integral of the package lives.  It is the one place where coordinates are
converted to floats and checked on their own: equal lengths, at least one
coordinate, all finite, y != 0.  :func:`check_domain` is the one place
where a point is checked against a metric: its dimension and the ball
guard.  Every entry point that takes a point calls :func:`check_domain`,
which takes a :class:`PhasePoint` as it is and builds one from an
``(x, y)`` pair, so each point is converted once.  A seeded run's sample
(the CLI's ``inspect``, ``verify`` and ``bracket``, the load-time checks)
is :func:`sample_points`, which draws as :func:`sample_phase_point` does.

A :class:`MetricSpec` declares the data defining one Finsler metric through
its energy function F^2(x, y):

``euclidean``
    F^2 = |y|^2.
``riemannian``
    F^2 = g_ij(x) y^i y^j with a symmetric component matrix of expressions
    in x only.  It is evaluated as a sum over the distinct component
    expressions, F^2 = sum_node g_node(x) Q_node(y), where Q_node is the
    quadratic form of the index pairs whose component is that node: zero
    literals drop out, (i, j) and (j, i) merge into one pair of weight 2 when
    their expressions are equal, and each distinct expression (the round
    sphere's three equal diagonal ones, say) is evaluated once.  Expressions
    that are only equal in value (``0.3*x1`` beside ``x1*0.3``) stay separate
    terms, so the form is exactly the one written.  The grouping is built
    once per spec (:attr:`MetricSpec.riemannian_terms`).
``funk_ball_berwald``
    The projectively flat metric on the open unit ball

        F = (sqrt(|y|^2 - (|x|^2 |y|^2 - <x,y>^2)) + <x,y>)^2
            / ((1 - |x|^2)^2 sqrt(|y|^2 - (|x|^2 |y|^2 - <x,y>^2)))

    whose geodesic coefficients collapse to a projective factor,
    G^i = P y^i.  Its domain guard is |x| <= 1 - 1e-6.
``custom``
    An arbitrary expression for F^2 in the grammar of
    :mod:`finslerkit.expr`; it must be positively 2-homogeneous in y
    (verified by a randomized Euler test at load time).

Config file format (UTF-8, line oriented)::

    # comment ('#' or ';' to end of line)
    [metric]
    name = ball3                  ; optional
    dimension = 3                 ; 2 .. MAX_DIMENSION (4)
    family = funk_ball_berwald
    sigma = exp(2*x1)             ; optional reference density, x only

    ; family = custom:
    ; expression = normy2 + x1*y2^3/y1

    ; family = riemannian: components g_i_j (1-based, x only); a missing
    ; g_j_i mirrors g_i_j; missing off-diagonal entries are 0.
    ; g_1_1 = 4/(1 + normx2)^2

Every evaluation path (floats and jets) shares one implementation per
family, so the fast float path and all differentiation orders agree by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import expr
from .errors import (
    BranchError,
    ConfigError,
    DimensionError,
    DomainError,
    FamilyError,
    FinslerError,
    HomogeneityError,
)

__all__ = [
    "PhasePoint",
    "MetricSpec",
    "FAMILIES",
    "FUNK_GUARD_INSET",
    "MAX_DIMENSION",
    "parse_metric",
    "load_metric_file",
    "eval_F2",
    "eval_projective_factor",
    "f2_value",
    "check_domain",
    "guard_distance",
    "sample_phase_point",
    "sample_points",
    "catalog",
]

FAMILIES = ("euclidean", "riemannian", "funk_ball_berwald", "custom")

# The ball guard keeps a fixed inset from the true singular boundary |x| = 1.
FUNK_GUARD_INSET = 1e-6

# Largest accepted dimension n: the jets run in 2n phase variables and are
# meant for 2n <= 8.  Their order-6 product table has 74 613 pairs at n = 4,
# 230 230 at n = 5, and is never finished for a dimension like 100000.
MAX_DIMENSION = 4

# Load-time randomized checks use a fixed seed: loading is deterministic.
_LOAD_CHECK_SEED = 20260814


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, y) of the slit tangent bundle, y != 0, as tuples of floats.

    x and y of different lengths, or of none, raise :class:`DimensionError`;
    a NaN or infinite coordinate, or y = 0, raises :class:`DomainError`."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __init__(self, x, y):
        x, y = tuple(map(float, x)), tuple(map(float, y))
        if len(x) != len(y):
            raise DimensionError(f"x has length {len(x)} but y has length {len(y)}")
        if not x:
            raise DimensionError("empty phase point")
        if not all(map(math.isfinite, x + y)):
            raise DomainError(f"non-finite coordinate in x = {list(x)}, y = {list(y)}")
        if not any(y):
            raise DomainError("y must be a nonzero vector")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class MetricSpec:
    """Immutable description of one metric; see the module docstring."""

    name: str
    dimension: int
    family: str
    expression: expr.Node | None = None
    components: tuple[tuple[expr.Node, ...], ...] | None = None
    sigma: expr.Node | None = None

    @cached_property
    def riemannian_terms(self) -> tuple[tuple[expr.Node, tuple[tuple[int, int, float], ...]], ...]:
        """``(node, pairs)`` terms with F^2 = sum node(x) * sum_pairs w y^i y^j
        over ``(i, j, w)``; the grouping of the module docstring, built on
        first use and kept on this instance (equality ignores it)."""
        comps = self.components
        groups: dict[expr.Node, list[tuple[int, int, float]]] = {}
        for i in range(self.dimension):
            for j in range(i, self.dimension):
                if comps[i][j] == comps[j][i]:
                    pairs = [(i, j, 1.0 if i == j else 2.0)]
                else:
                    pairs = [(i, j, 1.0), (j, i, 1.0)]
                for a, b, w in pairs:
                    if comps[a][b] != _ZERO:
                        groups.setdefault(comps[a][b], []).append((a, b, w))
        return tuple((node, tuple(pairs)) for node, pairs in groups.items())


_ZERO = expr.Num(0.0)


# -- scalar helpers (floats and jets share one code path) ---------------

def _sqrt(v):
    if expr._is_plain(v):
        if v <= 0.0:
            raise BranchError(f"sqrt of non-positive value {v!r}")
        return math.sqrt(v)
    return v.sqrt()


def _quadratic_form(pairs, ys):
    """Sum of w y^i y^j over the ``(i, j, w)`` pairs."""
    terms = []
    for i, j, w in pairs:
        yy = ys[i] * ys[j]
        terms.append(yy if w == 1.0 else yy * w)
    return expr._total(terms)


def _num(v) -> float:
    return float(v) if expr._is_plain(v) else v.num


# -- family evaluators ---------------------------------------------------

def _funk_pieces(xs, ys):
    """(A, w, 1 - |x|^2) with A = |y|^2 - (|x|^2 |y|^2 - <x,y>^2) and
    w = sqrt(A) + <x,y>."""
    nx2 = expr._sum_products(xs, xs)
    ny2 = expr._sum_products(ys, ys)
    d = expr._sum_products(xs, ys)
    a = ny2 - (nx2 * ny2 - d * d)
    w = _sqrt(a) + d
    return a, w, 1.0 - nx2


def _family_F2(spec: MetricSpec, xs, ys):
    """The family's F^2 at ``xs``, ``ys``, unchecked."""
    if spec.family == "euclidean":
        return expr._sum_products(ys, ys)
    if spec.family == "riemannian":
        terms = [
            expr.evaluate(node, xs, ys) * _quadratic_form(pairs, ys)
            for node, pairs in spec.riemannian_terms
        ]
        return expr._total(terms) if terms else 0.0  # all components zero: caught by eval_F2
    if spec.family == "funk_ball_berwald":
        a, w, one_minus = _funk_pieces(xs, ys)
        w2 = w * w
        return (w2 * w2) / (one_minus * one_minus * one_minus * one_minus * a)
    if spec.family == "custom":
        return expr.evaluate(spec.expression, xs, ys)
    raise FamilyError(f"unknown family {spec.family!r}")


def eval_F2(spec: MetricSpec, xs, ys):
    """F^2 at scalar coordinates ``xs``, ``ys`` (one scalar per variable).

    The value part of the result must be finite and strictly positive;
    otherwise the point is outside the metric's domain and
    :class:`DomainError` is raised.  A float overflow in a coefficient
    follows the caller's errstate: the stage ``F2`` and the spray
    (:mod:`finslerkit.tensors`) raise it as their error naming the point.
    """
    if len(xs) != spec.dimension or len(ys) != spec.dimension:
        raise DimensionError(
            f"metric has dimension {spec.dimension}, got {len(xs)} position "
            f"and {len(ys)} fiber coordinates"
        )
    out = _family_F2(spec, xs, ys)
    if not 0.0 < _num(out) < math.inf:  # NaN fails too
        raise DomainError(
            f"F^2 is not finite and positive at this point (value {_num(out)!r}); outside the domain"
        )
    return out


def eval_projective_factor(spec: MetricSpec, xs, ys):
    """P with G^i = P y^i; defined for the funk_ball_berwald family only."""
    if spec.family != "funk_ball_berwald":
        raise FamilyError(
            f"projective factor is defined for funk_ball_berwald, not {spec.family!r}"
        )
    a, w, one_minus = _funk_pieces(xs, ys)
    return w / one_minus


def f2_value(spec: MetricSpec, x, y) -> float:
    """Float fast path for F^2 (guards checked); a float overflow in the
    expression puts the point outside the domain."""
    p = check_domain(spec, (x, y))
    try:
        return float(eval_F2(spec, p.x, p.y))
    except ArithmeticError as err:
        raise DomainError(f"F^2 cannot be evaluated in floats at this point: {err}") from None


def _float_expression(node: expr.Node, xs) -> float:
    """A position-only expression at float coordinates ``xs``; overflow
    raises :class:`DomainError`, as in :func:`f2_value`."""
    try:
        return float(expr.evaluate(node, xs, xs))
    except ArithmeticError as err:
        raise DomainError(f"expression cannot be evaluated in floats at x = {xs}: {err}") from None


# -- domain guards --------------------------------------------------------

def check_domain(spec: MetricSpec, point) -> PhasePoint:
    """``point`` (a :class:`PhasePoint` or an ``(x, y)`` pair) as a
    :class:`PhasePoint` checked against the metric: a dimension other
    than the metric's raises :class:`DimensionError`, and a position
    outside the ball guard :class:`DomainError`."""
    p = point if isinstance(point, PhasePoint) else PhasePoint(*point)
    if len(p.x) != spec.dimension:
        raise DimensionError(f"point has dimension {len(p.x)}, metric dimension is {spec.dimension}")
    if spec.family == "funk_ball_berwald":
        r = _radius(p.x)
        if r > 1.0 - FUNK_GUARD_INSET:
            raise DomainError(
                f"|x| = {r!r} outside the ball guard |x| <= 1 - {FUNK_GUARD_INSET}"
            )
    return p


def _radius(xs) -> float:
    """|x| over floats ``xs``, as the ball guard measures it; inf when a
    square leaves the float range."""
    try:
        return math.sqrt(sum(v**2 for v in xs))
    except OverflowError:
        return math.inf


def guard_distance(spec: MetricSpec, x) -> float:
    """Distance from x to the guard boundary (positive inside; -inf when
    |x| leaves the float range).

    Metrics without a position guard return +inf.
    """
    if spec.family == "funk_ball_berwald":
        return (1.0 - FUNK_GUARD_INSET) - _radius(map(float, x))
    return math.inf


# -- random in-domain sampling -------------------------------------------

def sample_phase_point(spec: MetricSpec, rng: np.random.Generator):
    """One random phase point: x uniform in the guard region, y uniform on
    the unit sphere scaled by a uniform [0.5, 2] factor.

    Metrics without a position guard sample x uniformly from [-1, 1]^n.
    Custom metrics retry until F^2 evaluates (their expressions may have
    fiber poles).
    """
    n = spec.dimension
    for _ in range(200):
        if spec.family == "funk_ball_berwald":
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            # cap the radius: closer to the boundary cond(g) ~ dist^-2
            # drowns the verified identities in roundoff
            radius = 0.95 * (1.0 - FUNK_GUARD_INSET) * rng.uniform() ** (1.0 / n)
            x = radius * direction
        else:
            x = rng.uniform(-1.0, 1.0, n)
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        y *= rng.uniform(0.5, 2.0)
        try:
            f2_value(spec, x, y)
        except FinslerError:
            continue
        return x, y
    raise DomainError(f"could not sample an in-domain point for metric {spec.name!r}")


def sample_points(spec: MetricSpec, count: int, seed: int) -> list[PhasePoint]:
    """A seeded run's sample: ``count`` points drawn in turn by
    :func:`sample_phase_point` from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [PhasePoint(*sample_phase_point(spec, rng)) for _ in range(count)]


# -- config text ----------------------------------------------------------

def _strip_comment(line: str) -> str:
    for mark in "#;":
        pos = line.find(mark)
        if pos >= 0:
            line = line[:pos]
    return line


def _read_sections(text: str):
    """Parse sectioned key/value text, tracking line numbers for errors."""
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {stripped!r}")
            current = stripped[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        column = len(line) - len(line.partition("=")[2].lstrip()) + 1
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = (value.strip(), lineno, column)
    return sections


def parse_metric(text: str) -> MetricSpec:
    """Parse and validate a metric description; see the module docstring.

    Validation is strict: unknown keys, missing required keys, asymmetric
    or non-positive-definite riemannian components, inhomogeneous custom
    expressions and non-positive densities all raise.
    """
    sections = _read_sections(text)
    unknown = set(sections) - {"metric"}
    if unknown:
        raise ConfigError(f"unknown section(s) {sorted(unknown)!r}; expected [metric]")
    if "metric" not in sections:
        raise ConfigError("missing [metric] section")
    body = sections["metric"]

    def take(key: str):
        return body.pop(key, None)

    name_item = take("name")
    dim_item = take("dimension")
    family_item = take("family")
    sigma_item = take("sigma")
    expression_item = take("expression")

    if dim_item is None:
        raise ConfigError("missing required key 'dimension'")
    try:
        dimension = int(dim_item[0])
    except ValueError:
        raise ConfigError(f"line {dim_item[1]}: dimension must be an integer") from None
    if dimension < 2:
        raise ConfigError(f"line {dim_item[1]}: dimension must be >= 2")
    if dimension > MAX_DIMENSION:
        raise ConfigError(f"line {dim_item[1]}: dimension must be <= {MAX_DIMENSION}")
    if family_item is None:
        raise ConfigError("missing required key 'family'")
    family = family_item[0]
    if family not in FAMILIES:
        raise FamilyError(f"unknown family {family!r}; expected one of {FAMILIES}")
    name = name_item[0] if name_item else "metric"

    sigma = None
    if sigma_item is not None:
        sigma = expr.parse_expression(sigma_item[0], base_line=sigma_item[1], base_column=sigma_item[2])
        expr.check_variables(sigma, dimension, allow_y=False, context="sigma")

    expression = None
    components = None
    if family == "custom":
        if expression_item is None:
            raise ConfigError("family 'custom' requires key 'expression'")
        expression = expr.parse_expression(
            expression_item[0], base_line=expression_item[1], base_column=expression_item[2]
        )
        expr.check_variables(expression, dimension, context="expression")
    elif expression_item is not None:
        raise ConfigError(f"key 'expression' is only valid for family 'custom', not {family!r}")

    if family == "riemannian":
        grid: list[list[expr.Node | None]] = [[None] * dimension for _ in range(dimension)]
        for key, (value, lineno, column) in list(body.items()):
            parts = key.split("_")
            if len(parts) != 3 or parts[0] != "g":
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ConfigError(f"line {lineno}: malformed component key {key!r}") from None
            if not (1 <= i <= dimension and 1 <= j <= dimension):
                raise DimensionError(
                    f"line {lineno}: component {key} out of range for dimension {dimension}"
                )
            node = expr.parse_expression(value, base_line=lineno, base_column=column)
            expr.check_variables(node, dimension, allow_y=False, context=key)
            grid[i - 1][j - 1] = node
            del body[key]
        for i in range(dimension):
            if grid[i][i] is None:
                raise ConfigError(f"missing diagonal component g_{i + 1}_{i + 1}")
            for j in range(dimension):
                if grid[i][j] is None:
                    grid[i][j] = grid[j][i] if grid[j][i] is not None else _ZERO
        components = tuple(tuple(row) for row in grid)
    if body:
        raise ConfigError(f"unknown key(s) {sorted(body)!r} for family {family!r}")

    spec = MetricSpec(
        name=name,
        dimension=dimension,
        family=family,
        expression=expression,
        components=components,
        sigma=sigma,
    )
    _validate_loaded(spec)
    return spec


def load_metric_file(path) -> MetricSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_metric(handle.read())


# -- load-time validation --------------------------------------------------

def _validate_loaded(spec: MetricSpec) -> None:
    # sampling raises DomainError when no candidate point evaluates
    points = sample_points(spec, 8, _LOAD_CHECK_SEED)

    if spec.family == "riemannian":
        for p in points[:5]:
            mat = np.empty((spec.dimension, spec.dimension))
            xs = list(p.x)
            for i in range(spec.dimension):
                for j in range(spec.dimension):
                    mat[i, j] = _float_expression(spec.components[i][j], xs)
            scale = 1.0 + float(np.abs(mat).max())
            try:
                with np.errstate(over="raise"):
                    skew = float(np.abs(mat - mat.T).max())
                    sym = 0.5 * (mat + mat.T)
            except FloatingPointError:
                raise ConfigError(f"component matrix overflows the float range at x = {xs}") from None
            if skew > 1e-10 * scale:
                raise ConfigError(f"component matrix is not symmetric at x = {xs}")
            eigs = np.linalg.eigvalsh(sym)
            if float(eigs.min()) <= 0.0:
                raise ConfigError(
                    f"component matrix is not positive definite at x = {xs} "
                    f"(eigenvalues {eigs.tolist()})"
                )

    if spec.family == "custom":
        checked = 0
        failure = None
        for p in points:
            try:
                # f2_value holds every value to be finite and positive
                base = f2_value(spec, p.x, p.y)
                scaled = [f2_value(spec, p.x, [lam * v for v in p.y]) for lam in (2.0, 3.0)]
            except FinslerError as err:
                failure = err
                continue  # scaling may step on a fiber pole; try other samples
            for lam, got in zip((2.0, 3.0), scaled):
                want = lam * lam * base
                if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                    raise HomogeneityError(
                        f"F^2 is not 2-homogeneous in y: F^2(x, {lam} y) = {got!r} "
                        f"but {lam}^2 F^2(x, y) = {want!r}"
                    )
            checked += 1
        if checked < 4:
            raise ConfigError(
                f"could not evaluate the expression at enough sample points (last failure: {failure})"
            )

    if spec.sigma is not None:
        for p in points:
            value = _float_expression(spec.sigma, list(p.x))
            if value <= 0.0:
                raise ConfigError(f"sigma is not positive at x = {list(p.x)}")


# -- built-in catalog -------------------------------------------------------

_CATALOG_TEMPLATE = "[metric]\nname = {name}\ndimension = {n}\nfamily = {family}\n{components}"


def _flat_skew_components(n: int) -> str:
    lines = []
    for i in range(1, n + 1):
        lines.append(f"g_{i}_{i} = {1.0 + 0.5 * i}")
        if i < n:
            lines.append(f"g_{i}_{i + 1} = 0.3")
    return "\n".join(lines)


def _sphere_components(n: int) -> str:
    return "\n".join(f"g_{i}_{i} = 4/(1 + normx2)^2" for i in range(1, n + 1))


def catalog(n: int = 3) -> dict[str, MetricSpec]:
    """Built-in metric specs used by the verification suites and tests.

    Contains a flat metric in two guises (euclidean and a constant
    anisotropic riemannian one), the round sphere in stereographic-style
    coordinates (constant positive curvature), and the projectively flat
    ball metric.  The specs are parsed and load-checked once per ``n`` (they
    are immutable); each call returns a new dict of them.
    """
    return dict(_catalog(n))


@cache
def _catalog(n: int) -> dict[str, MetricSpec]:
    entries = {  # name: (family, component lines)
        "euclidean": ("euclidean", ""),
        "funk_ball_berwald": ("funk_ball_berwald", ""),
        "riemannian_flat_skew": ("riemannian", _flat_skew_components(n)),
        "riemannian_round_sphere": ("riemannian", _sphere_components(n)),
    }
    return {
        name: parse_metric(_CATALOG_TEMPLATE.format(name=name, n=n, family=family, components=components))
        for name, (family, components) in entries.items()
    }
