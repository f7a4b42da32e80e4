"""Tests for the invariant-suite runner.

The runner is itself a test harness, so most of what needs checking here
is its bookkeeping: which suites run for which metric family, which are
asserted versus merely reported, and that reports are reproducible.
"""

import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from finslerkit import expr, integrals, metrics, tensors, verify
from finslerkit.jets import seed_phase_point
from finslerkit.tensors import PhasePoint, PointEvaluation
from finslerkit.verify import SIGMA_TEST_EXPRESSION, SuiteResult, _norm, verify_metric

# small sample keeps the whole module fast; the acceptance suite runs the
# full 200-point configuration
N_POINTS = 12
SEED = 1

# suites that must appear, asserted, for every catalog metric
CORE_SUITES = {
    "g_symmetric",
    "g_yy_equals_F2",
    "h_annihilates_y",
    "h_rank_n_minus_1",
    "E_symmetric",
    "E_annihilates_y",
    "B_totally_symmetric",
    "three_route_E_agreement",
    "nabla_g_vanishes",
    "hamel_chi_biconditional",
    "EE_annihilates_y",
    "newton_identities",
    "bordered_equals_c_last",
    "charpoly_fit_agrees",
    "homogeneity_ladder",
    "sigma_independence",
    "jets_match_finite_differences",
}


@pytest.fixture(scope="module")
def reports(catalog3):
    return {
        name: verify_metric(spec, n_points=N_POINTS, seed=SEED)
        for name, spec in catalog3.items()
    }


def _suite(report, name):
    matches = [s for s in report.suites if s.name == name]
    assert len(matches) == 1, f"expected exactly one suite named {name}"
    return matches[0]


@pytest.mark.parametrize(
    "name",
    ["funk_ball_berwald", "euclidean", "riemannian_flat_skew", "riemannian_round_sphere"],
)
def test_every_catalog_metric_passes(reports, name):
    rep = reports[name]
    assert rep.passed
    assert rep.metric == name
    assert rep.n_points == N_POINTS
    assert rep.seed == SEED


def test_core_suites_present_and_asserted(reports):
    for rep in reports.values():
        names = {s.name for s in rep.suites}
        missing = CORE_SUITES - names
        assert not missing, f"{rep.metric} is missing {sorted(missing)}"
        for s in rep.suites:
            if s.name in CORE_SUITES:
                assert s.asserted
                assert s.passed
                assert s.worst <= s.tol


def test_suites_follow_documented_order(reports):
    # g first, the FD oracle late, report-only rows at the end
    for rep in reports.values():
        names = [s.name for s in rep.suites]
        assert names[0] == "g_symmetric"
        assert names.index("three_route_E_agreement") < names.index("chi_vanishes")
        assert names.index("jets_match_finite_differences") > names.index("sigma_independence")
        assert names[-1] in ("hamel_y_independence", "closed_forms_vs_charpoly")


# the two configs the benchmark's tower workload verifies beside catalog(3)
BALL4_CONFIG = "[metric]\nname = ball4\ndimension = 4\nfamily = funk_ball_berwald\n"
RANDERS3_CONFIG = (
    "[metric]\nname = randers3\ndimension = 3\nfamily = custom\n"
    "expression = (sqrt(normy2) + 0.3*y1 - 0.2*y3)^2\n"
)


def test_reports_follow_the_suite_table_and_use_every_row(reports):
    table = list(verify._SUITES)
    tower = list(reports.values()) + [
        verify_metric(metrics.parse_metric(text), n_points=4, seed=SEED)
        for text in (BALL4_CONFIG, RANDERS3_CONFIG)
    ]
    seen = set()
    for rep in tower:
        names = [s.name for s in rep.suites]
        assert names == [name for name in table if name in names], rep.metric
        for s in rep.suites:
            tol, note = verify._SUITES[s.name]
            assert s.tol == tol
            assert s.note in (note, "")
            assert s.asserted == (s.note == "")
        seen.update(names)
    assert seen == set(table), f"rows no tower metric reports: {sorted(set(table) - seen)}"


@pytest.mark.parametrize("name", ["g_symmetric", "chi_vanishes", "jets_match_finite_differences"])
def test_a_suite_without_a_table_row_raises(funk, monkeypatch, name):
    monkeypatch.delitem(verify._SUITES, name)
    with pytest.raises(KeyError, match=name):
        verify_metric(funk, n_points=1, seed=SEED)


def test_chi_reported_not_asserted_on_curved_riemannian(reports):
    # no vanishing claim covers a curved Riemannian metric, so chi and its
    # equivalents downgrade to report-only rows there
    rep = reports["riemannian_round_sphere"]
    for name in ("chi_vanishes", "hamel_residual", "nabla_E_vanishes"):
        s = _suite(rep, name)
        assert not s.asserted
        assert "reported only" in s.note
        assert s.passed  # report-only rows never block


def test_chi_asserted_on_flat_and_ball_families(reports):
    for metric in ("funk_ball_berwald", "euclidean", "riemannian_flat_skew"):
        rep = reports[metric]
        for name in ("chi_vanishes", "hamel_residual", "nabla_E_vanishes"):
            s = _suite(rep, name)
            assert s.asserted, f"{metric}:{name}"
            assert s.passed
            assert s.note == ""


def test_family_conditional_suites(reports):
    riem = ("euclidean", "riemannian_flat_skew", "riemannian_round_sphere")
    for metric, rep in reports.items():
        names = {s.name for s in rep.suites}
        assert ("riemannian_degeneration" in names) == (metric in riem)
        assert ("euclidean_flag_zero" in names) == (metric == "euclidean")
        assert ("jacobi_vanishes" in names) == (metric == "funk_ball_berwald")
        assert ("closed_forms_vs_charpoly" in names) == (metric == "funk_ball_berwald")


def test_closed_forms_row_records_discrepancy(reports):
    s = _suite(reports["funk_ball_berwald"], "closed_forms_vs_charpoly")
    assert not s.asserted
    assert "normalizations differ" in s.note
    # the gap is real and large; the row exists to record it, not hide it
    assert s.worst > 1e-3
    assert s.passed


def test_sigma_override_is_live(reports):
    for rep in reports.values():
        shift = _suite(rep, "sigma_shifts_tau")
        assert not shift.asserted
        assert shift.worst > 1e-3
        indep = _suite(rep, "sigma_independence")
        assert indep.asserted
        assert indep.worst <= 1e-8


def test_biconditional_indicator_is_zero(reports):
    for rep in reports.values():
        assert _suite(rep, "hamel_chi_biconditional").worst == 0.0


def test_report_is_deterministic(funk):
    a = verify_metric(funk, n_points=8, seed=3)
    b = verify_metric(funk, n_points=8, seed=3)
    assert a.suites == b.suites
    assert a.passed == b.passed


def test_sample_count_below_one_is_rejected(funk):
    for n_points in (0, -3):
        with pytest.raises(ValueError, match="n_points must be at least 1"):
            verify_metric(funk, n_points=n_points)


def test_seed_changes_the_sample(funk):
    a = verify_metric(funk, n_points=8, seed=3)
    b = verify_metric(funk, n_points=8, seed=4)
    assert a.suites != b.suites


def test_sigma_test_expression_parses_and_depends_on_x_only(funk):
    node = expr.parse_expression(SIGMA_TEST_EXPRESSION)
    assert node is not None
    # the test density must shift tau by exactly -1/2 ln sigma(x), blind to y
    x = (0.2, -0.1, 0.05)
    expected = -(0.3 * x[0] - 0.2 * x[1] + 0.1 * sum(v * v for v in x))
    taus = []
    for y in ((1.0, 0.0, 0.0), (0.3, -0.8, 0.5)):
        p = tensors.PhasePoint(x, y)
        t0 = tensors.PointEvaluation(funk, p, order=2).tau.num
        t1 = tensors.PointEvaluation(replace(funk, sigma=node), p, order=2).tau.num
        taus.append(t1 - t0)
    assert taus[0] == pytest.approx(expected, rel=1e-12)
    assert taus[1] == pytest.approx(expected, rel=1e-12)


def test_four_dimensional_metric_verifies():
    spec = metrics.catalog(4)["funk_ball_berwald"]
    rep = verify_metric(spec, n_points=6, seed=2)
    assert rep.passed
    # the FD index sample adapts to the dimension instead of going out of range
    fd = _suite(rep, "jets_match_finite_differences")
    assert fd.asserted and fd.passed


# -- one evaluation per sampled point ------------------------------------------------

@pytest.fixture
def evaluations(monkeypatch):
    """Counts ``PointEvaluation`` constructions in ``.count`` while the test
    runs, and keeps each one's spec and keyword arguments in ``.calls``."""
    counter = SimpleNamespace(count=0, calls=[])
    init = PointEvaluation.__init__

    def counted(self, spec, *args, **kwargs):
        counter.count += 1
        counter.calls.append((spec, kwargs))
        init(self, spec, *args, **kwargs)

    monkeypatch.setattr(PointEvaluation, "__init__", counted)
    return counter


def _packet_integrals(pkt):
    return integrals.first_integral_set(pkt.F, pkt.g, pkt.g_inv, pkt.E, np.array(pkt.point.y))


def _per_suite_rows(spec, n_points, seed):
    """The point-subset suites recomputed with an order-5 evaluation of
    their own at every point, independently of the runner's order-6 one."""
    rng = np.random.default_rng(seed)
    points = [metrics.sample_phase_point(spec, rng) for _ in range(n_points)]
    n = spec.dimension
    rows = {}

    worst = shift = 0.0
    spec_b = replace(spec, sigma=expr.parse_expression(SIGMA_TEST_EXPRESSION))
    for x, y in points[:25]:
        ev_a = PointEvaluation(spec, PhasePoint(x, y), order=5)
        ev_b = PointEvaluation(spec_b, PhasePoint(x, y), order=5)
        E_a, E_b = ev_a.E.num, ev_b.E.num
        E_S_a, E_S_b = ev_a.E_S.num, ev_b.E_S.num
        chi_a, chi_b = ev_a.chi.num, ev_b.chi.num
        Es = max(1.0, _norm(E_a))
        worst = max(worst, _norm(E_a - E_b) / Es, _norm(E_S_a - E_S_b) / Es, _norm(chi_a - chi_b) / max(1.0, _norm(chi_a)))
        shift = max(shift, abs(ev_a.tau.num - ev_b.tau.num))
    rows["sigma_independence"] = SuiteResult("sigma_independence", worst <= 1e-8, worst, 1e-8)
    rows["sigma_shifts_tau"] = shift

    worst = 0.0
    for x, y in points[:40]:
        pkt1 = PointEvaluation(spec, PhasePoint(x, y), order=5).packet()
        fis1 = _packet_integrals(pkt1)
        for lam in (2.0, 0.5):
            pkt2 = PointEvaluation(spec, PhasePoint(x, lam * np.asarray(y)), order=5).packet()
            fis2 = _packet_integrals(pkt2)
            worst = max(
                worst,
                _norm(fis1.EE - fis2.EE) / max(1.0, _norm(fis1.EE)),
                float(np.abs(fis1.f - fis2.f).max()) / max(1.0, float(np.abs(fis1.f).max())),
                float(np.abs(fis1.c - fis2.c).max()) / max(1.0, float(np.abs(fis1.c).max())),
                abs(pkt2.F - lam * pkt1.F) / max(1.0, pkt1.F),
                _norm(pkt2.g - pkt1.g) / max(1.0, _norm(pkt1.g)),
                _norm(pkt2.G - lam**2 * pkt1.G) / max(1.0, _norm(pkt1.G)),
                _norm(pkt2.N - lam * pkt1.N) / max(1.0, _norm(pkt1.N)),
                _norm(pkt2.E - pkt1.E / lam) / max(1.0, _norm(pkt1.E)),
            )
    rows["homogeneity_ladder"] = SuiteResult("homogeneity_ladder", worst <= 1e-9, worst, 1e-9)

    worst = gap = 0.0
    rng2 = np.random.default_rng(seed + 1)
    for x, y in points[:10]:
        y2 = rng2.standard_normal(n)
        y2 /= np.linalg.norm(y2)
        h1 = PointEvaluation(spec, PhasePoint(x, y), order=5).hamel.num
        h2 = PointEvaluation(spec, PhasePoint(x, y2), order=5).hamel.num
        worst = max(worst, _norm(h1 - h2))
        if spec.family == "funk_ball_berwald" and n == 3:
            g1p, g2p = integrals.paper_closed_forms(PhasePoint(x, y))
            fis = _packet_integrals(PointEvaluation(spec, PhasePoint(x, y), order=5).packet())
            gap = max(gap, abs(g1p - fis.c[0]), abs(g2p - fis.c[1]))
    rows["hamel_y_independence"] = worst
    rows["closed_forms_vs_charpoly"] = gap
    return rows


@pytest.mark.parametrize("name", ["funk_ball_berwald", "riemannian_round_sphere"])
def test_one_order6_evaluation_feeds_every_point_suite(catalog3, evaluations, name):
    # per point: the shared order-6 evaluation, the one under the test density and
    # the lambda = 2 and 1/2 packets; per point of the first ten, the Hamel
    # residual at a second fiber direction -- 4 * 5 = 20 at four points
    # (36 on the ball and 32 on the sphere with an evaluation per suite);
    # and the order-4 F^2 jets of the finite-difference suite's two points
    verify_metric(catalog3[name], n_points=4, seed=SEED)
    assert evaluations.count == 22


def test_subset_suites_stop_at_their_sizes(catalog3, evaluations):
    # past every subset size: the order-6 evaluation at each of 45 points,
    # ones under the test density at 25, two ladder rungs at 40, a second fiber
    # direction at 10 and the oracle's order-4 jets at 2
    verify_metric(catalog3["euclidean"], n_points=45, seed=SEED)
    kinds = Counter((kw["order"], spec.sigma is not None, kw.get("x_cap", 2)) for spec, kw in evaluations.calls)
    assert kinds == {(6, False, 2): 45, (5, True, 2): 25, (5, False, 1): 80, (5, False, 2): 10, (4, False, 2): 2}
    assert evaluations.count == 162


@pytest.mark.parametrize(
    "name, n_points",
    [("funk_ball_berwald", 4), ("riemannian_round_sphere", 4), ("funk_ball_berwald", 12)],
)
def test_shared_evaluation_gives_the_per_suite_rows(catalog3, name, n_points):
    # an order-5 value part equals the order-6 one, so sharing the point's
    # evaluation leaves every row the same, bit for bit
    spec = catalog3[name]
    rows = {s.name: s for s in verify_metric(spec, n_points=n_points, seed=SEED).suites}
    old = _per_suite_rows(spec, n_points, SEED)
    for suite in ("sigma_independence", "homogeneity_ladder"):
        assert rows[suite] == old[suite]
    for suite in ("sigma_shifts_tau", "hamel_y_independence", "closed_forms_vs_charpoly"):
        if suite in rows:
            assert rows[suite].worst == old[suite], suite
    assert ("closed_forms_vs_charpoly" in rows) == (name == "funk_ball_berwald")


# -- only the tensors the suites compare ------------------------------------------------

def _packet_route(spec, n_points, seed):
    """Every jet that ``verify_metric`` built when each main-loop point and
    each lambda*y point of the homogeneity ladder built a full curvature
    packet; the other evaluations and the oracle's jet are as in the runner."""
    rng = np.random.default_rng(seed)
    points = [metrics.sample_phase_point(spec, rng) for _ in range(n_points)]
    n = spec.dimension
    for x, y in points:
        ev = PointEvaluation(spec, PhasePoint(x, y), order=6)
        ev.packet()
        for name in ("h", "E_S", "E_CL", "hamel"):
            getattr(ev, name)
        ev.nabla2(ev.g)
        ev.nabla2(ev.E)
    spec_b = replace(spec, sigma=expr.parse_expression(SIGMA_TEST_EXPRESSION))
    for x, y in points[:25]:
        ev_b = PointEvaluation(spec_b, PhasePoint(x, y), order=5)
        ev_b.E, ev_b.E_S, ev_b.chi, ev_b.tau
    for x, y in points[:40]:
        for lam in (2.0, 0.5):
            PointEvaluation(spec, PhasePoint(x, lam * np.asarray(y)), order=5).packet()
    rng2 = np.random.default_rng(seed + 1)
    for x, _ in points[:10]:
        y2 = rng2.standard_normal(n)
        PointEvaluation(spec, PhasePoint(x, y2 / np.linalg.norm(y2)), order=5).hamel
    for x, y in points[:2]:
        seeds = seed_phase_point(PhasePoint(0.5 * np.asarray(x), y), 4)
        metrics.eval_F2(spec, seeds[:n], seeds[n:])


@pytest.mark.parametrize("name", ["funk_ball_berwald", "riemannian_round_sphere"])
def test_verify_builds_neither_packets_nor_connection_curvature(catalog3, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_metric built a tensor no suite compares")

    monkeypatch.setattr(PointEvaluation, "packet", refuse)
    monkeypatch.setattr(PointEvaluation, "R_curv", property(refuse))
    assert verify_metric(catalog3[name], n_points=4, seed=SEED).passed


@pytest.mark.parametrize("name", ["funk_ball_berwald", "riemannian_round_sphere"])
def test_verify_needs_a_third_fewer_products_than_the_packet_route(catalog3, jet_products, name):
    spec = catalog3[name]
    verify_metric(spec, n_points=4, seed=SEED)
    lean = jet_products.count
    jet_products.count = 0
    _packet_route(spec, 4, SEED)
    assert lean <= 0.65 * jet_products.count, (lean, jet_products.count)


def test_verify_builds_no_uncapped_order_six_product(jet_products):
    # every verify evaluation is seeded at x-degree cap 2: the dense (8, 6)
    # space, 74 613 pairs a product, is never multiplied in
    spec = metrics.catalog(4)["funk_ball_berwald"]
    assert verify_metric(spec, n_points=4, seed=SEED).passed
    assert jet_products.by_space[8, 6, 6] == 0
    assert jet_products.by_space[8, 6, 2] > 0


# -- the finite-difference oracle --------------------------------------------------

@pytest.mark.parametrize(
    "metric, seed",
    [("ball4", 70131669), ("randers3", 2084654370)],
)
def test_fd_oracle_settles_on_a_step_it_can_resolve(randers, metric, seed):
    # at these seeds a fixed finest step of 0.01 read 1.2e-4 (a fourth
    # y-derivative at |y| = 1.39, roundoff-bound) and 1.0e-3 against tol 1e-4
    spec = randers if metric == "randers3" else metrics.catalog(4)["funk_ball_berwald"]
    rep = verify_metric(spec, n_points=4, seed=seed)
    fd = _suite(rep, "jets_match_finite_differences")
    assert fd.passed and fd.worst <= fd.tol
    assert rep.passed
