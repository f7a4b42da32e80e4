"""Config parsing, expression language, domain guards, sampling."""

import importlib
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finslerkit
from finslerkit import expr, flow, integrals, metrics, tensors
from finslerkit.jets import seed_phase_point
from finslerkit.metrics import PhasePoint
from finslerkit.tensors import PointEvaluation
from finslerkit.errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ExpressionSyntaxError,
    FamilyError,
    HomogeneityError,
    PoleError,
)

QUARTIC = """
[metric]
name = quartic
dimension = 3
family = custom
expression = (y1^4 + y2^4 + y3^4)^(1/2)
"""

SCALED = """
[metric]
dimension = 2
family = custom
expression = (2 + x1)*normy2
sigma = exp(x1 - x2)
"""


# -- expression language --------------------------------------------------

def test_expression_evaluates_like_python():
    cases = {
        "2*x1 - x2^2/4 + 1": 2 * 0.3 - 0.7**2 / 4 + 1,
        "sqrt(normx2 + 1)": math.sqrt(0.3**2 + 0.7**2 + 1),
        "exp(ln(dotxy))": 0.3 * 1.1 + 0.7 * -0.2,
        "-x1^2": -(0.3**2),
        "normy2^(3/2)": (1.1**2 + 0.2**2) ** 1.5,
        "x1^-2": 0.3**-2.0,
        "(x1 + x2)^3/x1": (0.3 + 0.7) ** 3 / 0.3,  # ^ binds before /
    }
    xs, ys = [0.3, 0.7], [1.1, -0.2]
    for text, want in cases.items():
        node = expr.parse_expression(text)
        assert expr.evaluate(node, xs, ys) == pytest.approx(want, rel=1e-14), text


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse_expression("x1 + ", base_line=7, base_column=3)
    assert err.value.line == 7
    assert err.value.column == 3 + 5
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse_expression("x1 ? 2")
    assert "'?'" in str(err.value)
    with pytest.raises(ExpressionSyntaxError):
        expr.parse_expression("x1^x2")  # exponents are literals only
    with pytest.raises(ExpressionSyntaxError):
        expr.parse_expression("frob(x1)")
    with pytest.raises(ExpressionSyntaxError):
        expr.parse_expression("x1 x2")


def test_evaluation_errors():
    with pytest.raises(PoleError):
        expr.evaluate(expr.parse_expression("1/x1"), [0.0], [1.0])
    with pytest.raises(DimensionError):
        expr.evaluate(expr.parse_expression("x5"), [0.0], [1.0])
    with pytest.raises(DimensionError):
        expr.check_variables(expr.parse_expression("y1"), 3, allow_y=False, context="sigma")
    with pytest.raises(DimensionError):
        expr.check_variables(expr.parse_expression("x4"), 3)


def test_check_variables_names_the_first_defect_in_reading_order():
    def message(text):
        with pytest.raises(DimensionError) as info:
            expr.check_variables(expr.parse_expression(text), 3, allow_y=False, context="sigma")
        return str(info.value)

    assert message("x5 + y1") == "sigma uses x5 but the dimension is 3"
    assert message("y1 + x5") == message("normy2 + x5") == message("dotxy + x5") == (
        "sigma must not depend on y (found y-variable)"
    )
    expr.check_variables(expr.parse_expression("normx2 + x3"), 3, allow_y=False, context="sigma")


@given(st.integers(min_value=-6, max_value=6), st.floats(min_value=0.2, max_value=3.0))
def test_integer_powers_match_float_pow(n, base):
    node = expr.parse_expression(f"x1^{'(' + str(n) + ')' if n < 0 else n}")
    assert expr.evaluate(node, [base], [1.0]) == pytest.approx(base**n, rel=1e-13)


# -- config parsing ---------------------------------------------------------

def test_parse_and_format_round_trip():
    spec = metrics.parse_metric(QUARTIC)
    assert spec.name == "quartic"
    assert spec.dimension == 3
    assert spec.family == "custom"


def test_sigma_and_comments_parse():
    spec = metrics.parse_metric(SCALED + "; trailing comment\n# another\n")
    assert spec.name == "metric"  # defaulted
    assert spec.sigma is not None
    assert PointEvaluation(spec, ([0.5, 0.25], [1.0, 0.0]), order=1).sigma.num == pytest.approx(math.exp(0.25))


@pytest.mark.parametrize(
    "text, exc, fragment",
    [
        ("dimension = 3", ConfigError, "outside of any section"),
        ("[metric]\nfamily = euclidean", ConfigError, "dimension"),
        ("[metric]\ndimension = 3", ConfigError, "family"),
        ("[metric]\ndimension = x\nfamily = euclidean", ConfigError, "line 2"),
        ("[metric]\ndimension = 0\nfamily = euclidean", ConfigError, "line 2"),
        ("[metric]\ndimension = 1\nfamily = euclidean", ConfigError, ">= 2"),
        ("[metric]\ndimension = 5\nfamily = euclidean", ConfigError, "line 2: dimension must be <= 4"),
        ("[metric]\ndimension = 100000\nfamily = euclidean", ConfigError, "<= 4"),
        ("[metric]\ndimension = 3\nfamily = weird", FamilyError, "weird"),
        ("[metric]\ndimension = 3\nfamily = custom", ConfigError, "expression"),
        ("[metric]\ndimension = 3\nfamily = euclidean\nexpression = normy2", ConfigError, "custom"),
        ("[metric]\ndimension = 3\nfamily = euclidean\nbogus = 1", ConfigError, "bogus"),
        ("[metric]\ndimension = 3\nfamily = euclidean\n[extra]", ConfigError, "extra"),
        ("[metric\ndimension = 3", ConfigError, "line 1"),
        ("[metric]\ndimension = 3\ndimension = 4\nfamily = euclidean", ConfigError, "duplicate"),
        ("[metric]\ndimension = 3\nfamily = riemannian\ng_1_1 = 1\ng_2_2 = 1", ConfigError, "g_3_3"),
        (
            "[metric]\ndimension = 2\nfamily = riemannian\ng_1_1 = 1\ng_2_2 = 1\ng_1_5 = 1",
            DimensionError,
            "g_1_5",
        ),
        (
            "[metric]\ndimension = 2\nfamily = riemannian\ng_1_1 = 1\ng_2_2 = -1",
            ConfigError,
            "positive definite",
        ),
        (
            "[metric]\ndimension = 2\nfamily = custom\nexpression = normy2 + y1^4",
            HomogeneityError,
            "2-homogeneous",
        ),
        (
            "[metric]\ndimension = 2\nfamily = custom\nexpression = normy2\nsigma = x1 - 10",
            ConfigError,
            "sigma",
        ),
        (
            "[metric]\ndimension = 2\nfamily = custom\nexpression = normy2\nsigma = y1 + 1",
            DimensionError,
            "sigma",
        ),
        # number literals that do not parse to a finite float
        (
            "[metric]\ndimension = 3\nfamily = custom\nexpression = normy2 + 1e400*y1^2",
            ConfigError,
            "literal '1e400' is not a finite float (line 4, column 23)",
        ),
        (
            "[metric]\ndimension = 3\nfamily = custom\nexpression = normy2 - 1.5e309*y1^2",
            ConfigError,
            "(line 4, column 23)",
        ),
        (
            "[metric]\ndimension = 2\nfamily = euclidean\nsigma = exp(.1e999*x1)",
            ConfigError,
            "(line 4, column 13)",
        ),
        ("", ConfigError, "missing [metric] section"),
        (
            "[metric]\ndimension = 2\nfamily = euclidean\nnonsense",
            ConfigError,
            "line 4: expected 'key = value'",
        ),
        (
            "[metric]\ndimension = 2\nfamily = riemannian\ng_1_1 = 1\ng_2_2 = 1\nh_1_2 = 0",
            ConfigError,
            "unknown key 'h_1_2'",
        ),
        (
            "[metric]\ndimension = 2\nfamily = riemannian\ng_1_1 = 1\ng_2_2 = 1\ng_a_b = 0",
            ConfigError,
            "malformed component key 'g_a_b'",
        ),
        (
            "[metric]\ndimension = 2\nfamily = riemannian\ng_1_1 = 1\ng_2_2 = 1\ng_1_2 = 0.5*x1\ng_2_1 = 0",
            ConfigError,
            "not symmetric",
        ),
    ],
)
def test_rejected_configs(text, exc, fragment):
    with pytest.raises(exc) as err:
        metrics.parse_metric(text)
    assert fragment in str(err.value)


def test_fractional_terms_can_still_be_2_homogeneous():
    # y2^3/y1 has net degree 2, so the homogeneity screen must accept it
    text = "[metric]\ndimension = 2\nfamily = custom\nexpression = normy2 + x1*y2^3/y1"
    spec = metrics.parse_metric(text)
    v = metrics.f2_value(spec, [0.2, 0.1], [0.5, 0.4])
    assert v == pytest.approx(0.25 + 0.16 + 0.2 * 0.4**3 / 0.5)


def test_rational_power_of_a_jet_matches_its_sqrt(randers):
    # normy2^(1/2) runs Jet.powc(0.5), sqrt(normy2) Jet.sqrt: one recurrence
    assert expr.parse_expression("x1^(2/4)") == expr.parse_expression("x1^(1/2)")
    text = "[metric]\ndimension = 3\nfamily = custom\nexpression = (normy2^(1/2) + 0.3*y1 - 0.2*y3)^2"
    spec = metrics.parse_metric(text)
    for p in metrics.sample_points(spec, 3, 5):
        got, want = PointEvaluation(spec, p, order=6), PointEvaluation(randers, p, order=6)
        for name in ("F2", "g", "E", "E_S", "E_CL", "chi"):
            np.testing.assert_array_equal(getattr(got, name).coeffs, getattr(want, name).coeffs, err_msg=name)


def test_expression_error_position_is_file_relative():
    text = "[metric]\ndimension = 2\nfamily = custom\nexpression = normy2 + )"
    with pytest.raises(ExpressionSyntaxError) as err:
        metrics.parse_metric(text)
    assert err.value.line == 4


def test_riemannian_components_mirror():
    text = (
        "[metric]\ndimension = 2\nfamily = riemannian\n"
        "g_1_1 = 2\ng_2_2 = 3\ng_1_2 = x1/2\n"
    )
    spec = metrics.parse_metric(text)
    assert spec.components[1][0] == spec.components[0][1]
    xs = [0.4, -0.1]
    ys = [1.0, 2.0]
    want = 2 * 1 + 3 * 4 + 2 * (0.4 / 2) * 1 * 2
    assert metrics.eval_F2(spec, xs, ys) == pytest.approx(want)


# -- family evaluation -------------------------------------------------------

def test_euclidean_energy(euclid):
    assert metrics.f2_value(euclid, [0.2, 0.3, -0.1], [1.0, 2.0, 2.0]) == pytest.approx(9.0)


def test_skew_energy_by_hand(skew):
    # diagonal 1.5, 2.0, 2.5 with 0.3 on the first two off-diagonals
    y = [1.0, -1.0, 2.0]
    want = 1.5 * 1 + 2.0 * 1 + 2.5 * 4 + 2 * 0.3 * (1 * -1) + 2 * 0.3 * (-1 * 2)
    assert metrics.f2_value(skew, [0.0, 0.0, 0.0], y) == pytest.approx(want)


def test_funk_energy_matches_direct_formula(funk):
    x = np.array([0.2, -0.3, 0.1])
    y = np.array([0.7, 0.4, -0.9])
    nx2, ny2, d = x @ x, y @ y, x @ y
    a = ny2 - (nx2 * ny2 - d * d)
    w = math.sqrt(a) + d
    want = w**4 / ((1 - nx2) ** 4 * a)
    assert metrics.f2_value(funk, x, y) == pytest.approx(want, rel=1e-14)
    assert metrics.eval_projective_factor(funk, list(x), list(y)) == pytest.approx(
        w / (1 - nx2), rel=1e-14
    )


def test_funk_origin_is_euclidean(funk):
    for y in ([1.0, 0.0, 0.0], [0.3, -0.4, 1.2]):
        assert metrics.f2_value(funk, [0.0, 0.0, 0.0], y) == pytest.approx(
            sum(v * v for v in y), rel=1e-14
        )


def test_projective_factor_restricted_to_funk(euclid):
    with pytest.raises(FamilyError):
        metrics.eval_projective_factor(euclid, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_quartic_custom_loads_and_is_positive():
    spec = metrics.parse_metric(QUARTIC)
    val = metrics.f2_value(spec, [0.0, 0.0, 0.0], [1.0, 2.0, 2.0])
    assert val == pytest.approx(math.sqrt(1 + 16 + 16))


# -- guards and sampling ------------------------------------------------------

def test_domain_guard_on_the_ball(funk):
    metrics.check_domain(funk, ([0.5, 0.5, 0.5], [1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        metrics.check_domain(funk, ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        metrics.check_domain(funk, ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        metrics.check_domain(funk, ([0.0, 0.0], [1.0, 0.0]))
    inside = 1.0 - 2 * metrics.FUNK_GUARD_INSET
    assert metrics.guard_distance(funk, [inside, 0.0, 0.0]) == pytest.approx(
        metrics.FUNK_GUARD_INSET, rel=1e-6
    )


def test_guard_distance_unbounded_without_guard(euclid):
    assert metrics.guard_distance(euclid, [100.0, 0.0, 0.0]) == math.inf


def test_guard_distance_of_a_position_past_the_float_range_is_minus_inf(funk):
    # |x|^2 overflows: the guard measures it as infinitely far outside
    assert metrics.guard_distance(funk, [1e200, 0.0, 0.0]) == -math.inf
    assert metrics.guard_distance(funk, np.array([0.0, -1e160, 0.0])) == -math.inf


# -- the phase-point boundary -------------------------------------------------

NAN, INF = float("nan"), float("inf")

# (x, y, the documented error) on the n = 3 ball metric
BAD_POINTS = {
    "nan": ((NAN, 0.0, 0.0), (1.0, 0.0, 0.0), DomainError),
    "inf": ((0.0, INF, 0.0), (1.0, 0.0, 0.0), DomainError),
    "-inf": ((0.0, 0.0, 0.0), (1.0, -INF, 0.0), DomainError),
    "zero y": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), DomainError),
    "unequal lengths": ((0.0, 0.0), (1.0, 0.0, 0.0), DimensionError),
    "empty": ((), (), DimensionError),
    "wrong dimension": ((0.0, 0.0), (1.0, 0.0), DimensionError),
    "outside the guard": ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), DomainError),
    "huge": ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0), DomainError),
}
# defects only a metric can see: a PhasePoint holds these points
METRIC_DEFECTS = ("wrong dimension", "outside the guard", "huge")

# every public entry that takes a point, called with ``point``: a
# PhasePoint or an (x, y) pair
POINT_ENTRIES = {
    "PhasePoint": lambda spec, point: PhasePoint(*point),
    "check_domain": lambda spec, point: metrics.check_domain(spec, point),
    "f2_value": lambda spec, point: metrics.f2_value(spec, *point),
    "PointEvaluation": lambda spec, point: PointEvaluation(spec, point),
    "spray_values": lambda spec, point: tensors.spray_values(spec, point),
    "evaluate_fields": lambda spec, point: integrals.evaluate_fields(spec, ["F", "f1"], point),
    "field_gradient": lambda spec, point: integrals.field_gradient(spec, "F", point),
    "spray_derivative_of_field": lambda spec, point: integrals.spray_derivative_of_field(spec, "F", point),
    "poisson_bracket_scaled": lambda spec, point: integrals.poisson_bracket_scaled(spec, "F", "F2", point),
    "integrate": lambda spec, point: flow.integrate(spec, point, 0.1),
}


@pytest.mark.parametrize("defect", list(BAD_POINTS))
@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_every_point_entry_raises_the_documented_error(funk, entry, defect):
    x, y, error = BAD_POINTS[defect]
    if entry == "PhasePoint" and defect in METRIC_DEFECTS:
        PhasePoint(x, y)
        return
    with pytest.raises(Exception) as info:
        POINT_ENTRIES[entry](funk, (x, y))
    assert type(info.value) is error, info.value


# integrate builds one more PhasePoint per right-hand side, from the states
# it computes, so only the pointwise entries convert exactly once
@pytest.mark.parametrize("entry", [e for e in POINT_ENTRIES if e not in ("PhasePoint", "integrate")])
def test_each_point_entry_converts_a_point_once(funk, entry, monkeypatch):
    x, y = (0.1, -0.2, 0.3), (0.9, 0.4, -0.5)
    point = PhasePoint(x, y)
    built = []
    init = PhasePoint.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PhasePoint, "__init__", counted)
    POINT_ENTRIES[entry](funk, (x, y))
    assert len(built) == 1
    if entry != "f2_value":  # it takes x and y, not a point
        built.clear()
        POINT_ENTRIES[entry](funk, point)
        assert built == []


def test_every_exported_name_resolves():
    # a stale entry in an __all__ breaks ``from <module> import *``
    modules = [finslerkit] + [
        importlib.import_module(f"finslerkit.{info.name}")
        for info in pkgutil.iter_modules(finslerkit.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        exec(f"from {module.__name__} import *", {})


def test_phase_point_lives_in_metrics_and_is_reexported():
    assert tensors.PhasePoint is finslerkit.PhasePoint is metrics.PhasePoint
    assert metrics.check_domain(metrics.catalog(3)["euclidean"], ((0.0, 0.0, 0.0), (1, 0, 0))) == PhasePoint(
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    )


@pytest.mark.parametrize(
    "text",
    [
        "[metric]\nname = ball4\ndimension = 4\nfamily = funk_ball_berwald\n",
        "[metric]\nname = randers3\ndimension = 3\nfamily = custom\nexpression = (sqrt(normy2) + 0.3*y1 - 0.2*y3)^2\n",
        # F^2 < 0 for some candidates: the sampler retries them
        "[metric]\nname = pole3\ndimension = 3\nfamily = custom\nexpression = normy2 + 4*x1*y2^3/y1\n",
    ],
    ids=["ball4", "randers3", "pole3"],
)
def test_sample_points_draws_like_sample_phase_point_in_turn(text, monkeypatch):
    spec = metrics.parse_metric(text)
    rng = np.random.default_rng(0)
    want = [metrics.sample_phase_point(spec, rng) for _ in range(12)]
    candidates = []
    f2_value = metrics.f2_value
    monkeypatch.setattr(metrics, "f2_value", lambda *a: candidates.append(a) or f2_value(*a))
    got = metrics.sample_points(spec, 12, 0)
    assert all(isinstance(p, PhasePoint) for p in got)
    assert [(p.x, p.y) for p in got] == [(tuple(x), tuple(y)) for x, y in want]
    assert (len(candidates) > 12) == (spec.name == "pole3")


def test_sampling_stays_in_domain(catalog3):
    rng = np.random.default_rng(11)
    for spec in catalog3.values():
        for _ in range(50):
            x, y = metrics.sample_phase_point(spec, rng)
            metrics.check_domain(spec, (x, y))
            speed = float(np.linalg.norm(y))
            assert 0.5 - 1e-12 <= speed <= 2.0 + 1e-12
            assert metrics.f2_value(spec, x, y) > 0.0


def test_catalog_contents(catalog3):
    assert sorted(catalog3) == [
        "euclidean",
        "funk_ball_berwald",
        "riemannian_flat_skew",
        "riemannian_round_sphere",
    ]
    assert all(s.dimension == 3 for s in catalog3.values())
    four = metrics.catalog(4)
    assert all(s.dimension == 4 for s in four.values())


def test_catalog_is_parsed_once_per_dimension(monkeypatch):
    first = metrics.catalog(3)

    def no_parsing(text):
        raise AssertionError("the catalog was parsed again")

    monkeypatch.setattr(metrics, "parse_metric", no_parsing)
    second = metrics.catalog(3)
    assert second is not first and second.keys() == first.keys()
    assert all(second[name] is first[name] for name in first)
    # each call returns its own dict: an entry added to one is not in the next
    second["extra"] = first["euclidean"]
    assert "extra" not in metrics.catalog(3)


def test_load_metric_file(tmp_path):
    path = tmp_path / "quartic.cfg"
    path.write_text(QUARTIC)
    spec = metrics.load_metric_file(path)
    assert spec.name == "quartic"


# -- riemannian grouping -------------------------------------------------------

def test_riemannian_terms_group_equal_components(catalog3, written):
    sphere = catalog3["riemannian_round_sphere"]
    ((node, pairs),) = sphere.riemannian_terms  # three equal diagonal nodes, one term
    assert node == sphere.components[0][0]
    assert pairs == ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0))
    skew_pairs = dict(catalog3["riemannian_flat_skew"].riemannian_terms)[expr.Num(0.3)]
    assert skew_pairs == ((0, 1, 2.0), (1, 2, 2.0))  # mirrored entries merge
    terms = dict(written.riemannian_terms)
    assert terms[expr.parse_expression("0.3*x1")] == ((0, 1, 1.0),)
    assert terms[expr.parse_expression("x1*0.3")] == ((1, 0, 1.0),)
    assert expr.Num(0.0) not in terms
    assert sum(len(pairs) for pairs in terms.values()) == 6
    # built once, kept on the instance, invisible to equality
    assert written.riemannian_terms is written.riemannian_terms
    assert replace(written) == written


@pytest.mark.parametrize("name", ["riemannian_round_sphere", "riemannian_flat_skew", "written"])
def test_grouped_energy_matches_the_sum_over_all_components(catalog3, written, name):
    spec = written if name == "written" else catalog3[name]
    x, y = metrics.sample_phase_point(spec, np.random.default_rng(7))
    seeds = seed_phase_point(PhasePoint(x, y), 5)
    xs, ys = seeds[:3], seeds[3:]
    naive = None
    for i in range(3):
        for j in range(3):
            term = expr.evaluate(spec.components[i][j], xs, ys) * ys[i] * ys[j]
            naive = term if naive is None else naive + term
    got = metrics.eval_F2(spec, xs, ys)
    scale = max(1.0, np.max(np.abs(naive.coeffs)))
    assert np.max(np.abs(got.coeffs - naive.coeffs)) <= 1e-14 * scale


@pytest.mark.parametrize(
    "x, y",
    [
        ([float("nan"), 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, float("-inf"), 0.0], [1.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [float("inf"), 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [float("nan"), 1.0, 0.0]),
    ],
)
def test_check_domain_rejects_non_finite_coordinates(catalog3, x, y):
    for spec in catalog3.values():
        with pytest.raises(DomainError, match="non-finite"):
            metrics.check_domain(spec, (x, y))


def test_nan_energy_is_outside_the_domain(euclid):
    with pytest.raises(DomainError):
        metrics.eval_F2(euclid, [0.0, 0.0, 0.0], [float("nan"), 1.0, 0.0])


# -- float overflow ------------------------------------------------------------------

def test_float_overflow_is_outside_the_domain():
    spec = metrics.MetricSpec(
        name="overflow", dimension=3, family="custom",
        expression=expr.parse_expression("normy2*exp(1e6*x1)"),
    )
    with pytest.raises(DomainError, match="math range error"):
        metrics.f2_value(spec, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0])
    # no sample survives, so loading fails with the domain error, not OverflowError
    with pytest.raises(DomainError):
        metrics.parse_metric("[metric]\nname = overflow\ndimension = 3\nfamily = custom\nexpression = normy2*exp(1e6*x1)\n")
    # a float power that overflows, and a density that does
    with pytest.raises(DomainError):
        metrics.parse_metric("[metric]\ndimension = 2\nfamily = custom\nexpression = (1e300*normy2)^2\n")
    with pytest.raises(DomainError):
        metrics.parse_metric("[metric]\ndimension = 2\nfamily = euclidean\nsigma = exp(1e6*(1 + normx2))\n")

