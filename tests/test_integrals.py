"""First integrals: trace/charpoly families, closed forms, Poisson bracket.

The Vandermonde fit of det(Lambda I + EE) at integer arguments is the
independent oracle for the recursive characteristic-polynomial route; the
Newton identities tie the two families to each other.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import fdcheck, integrals, metrics, tensors
from finslerkit.errors import DimensionError, DomainError, FamilyError, UnknownFieldError
from finslerkit.tensors import PhasePoint


def _packet_integrals(pkt):
    return integrals.first_integral_set(pkt.F, pkt.g, pkt.g_inv, pkt.E, np.array(pkt.point.y))


def _sample(spec, seed=0):
    rng = np.random.default_rng(seed)
    x, y = metrics.sample_phase_point(spec, rng)
    return PhasePoint(x, y)


# -- homotheties ----------------------------------------------------------------

_RANDERS = "(sqrt(normy2) + 0.2*(x2*y1 - x1*y2 + x3*y3))^2"


def _scaled_randers(c):
    return metrics.parse_metric(f"[metric]\ndimension = 3\nfamily = custom\nexpression = {c!r}*{_RANDERS}\n")


@pytest.mark.parametrize("c", [1e-100, 1e-30, 1e30, 1e100])
def test_a_homothety_keeps_the_spray_and_scales_the_first_integrals(c):
    # c F^2 has the spray, connection, mean Berwald curvature, chi and Jacobi
    # endomorphism of F^2, and each f_a scales by c^(-a/2)
    for p in metrics.sample_points(_scaled_randers(1.0), 3, 5):
        want = tensors.PointEvaluation(_scaled_randers(1.0), p).packet()
        got = tensors.PointEvaluation(_scaled_randers(c), p).packet()
        for name in ("G", "N", "E", "chi", "R_jac"):
            ref = getattr(want, name)
            assert np.max(np.abs(getattr(got, name) - ref)) <= 1e-14 * np.max(np.abs(ref)), name
        f, f_want = _packet_integrals(got).f, _packet_integrals(want).f
        a = np.arange(1, len(f_want) + 1)
        np.testing.assert_allclose(f * c ** (a / 2), f_want, rtol=1e-14)


# -- frozen values at the ball center -----------------------------------------

def test_first_integral_set_at_center(funk, origin_point):
    pkt = tensors.PointEvaluation(funk, origin_point).packet()
    fis = _packet_integrals(pkt)
    np.testing.assert_allclose(fis.EE, np.diag([0.0, 4.0, 4.0]), atol=1e-12)
    np.testing.assert_allclose(fis.f, [8.0, 32.0], atol=1e-11)
    np.testing.assert_allclose(fis.c, [8.0, 16.0], atol=1e-11)
    assert fis.newton_residual < 1e-12
    assert fis.bordered_value == pytest.approx(16.0, rel=1e-11)


def test_paper_closed_forms_at_center(origin_point):
    g1, g2 = integrals.paper_closed_forms(origin_point)
    assert g1 == pytest.approx(-0.25, rel=1e-13)
    assert g2 == pytest.approx(1.0, rel=1e-13)


def test_closed_forms_are_one_formula_for_floats_and_jets(funk):
    # jet division goes through recip, so the float and jet runs of the same
    # formula agree to rounding, not bit for bit
    for seed in range(12):
        p = _sample(funk, seed)
        floats = integrals.paper_closed_forms(p)
        jets = integrals.evaluate_fields(funk, ["g1_paper", "g2_paper"], p)
        for got, want in zip(floats, (jets["g1_paper"], jets["g2_paper"])):
            assert type(got) is float
            assert abs(got - want) <= 1e-14 * abs(want), seed


# -- the two families against the fit oracle ----------------------------------

def test_charpoly_recursion_matches_vandermonde_fit(funk):
    for seed in (1, 2, 3):
        pkt = tensors.PointEvaluation(funk, _sample(funk, seed)).packet()
        EE = integrals.build_EE(pkt.F, pkt.g_inv, pkt.E)
        f, c = integrals._power_traces(EE), integrals._charpoly(EE)
        fitted = integrals.charpoly_fit(EE)
        scale = max(1.0, float(np.abs(c).max()))
        np.testing.assert_allclose(c, fitted[: len(c)], atol=1e-9 * scale)
        # EE annihilates y, so the free coefficient (det) vanishes
        assert abs(fitted[-1]) < 1e-9 * scale


def test_newton_identities_connect_the_families():
    rng = np.random.default_rng(43)
    for _ in range(10):
        # symmetric endomorphism with a known kernel direction, like EE
        m = rng.standard_normal((3, 3))
        m = m + m.T
        y = rng.standard_normal(3)
        m -= np.outer(m @ y, y) / (y @ y)
        f, c = integrals._power_traces(m), integrals._charpoly(m)
        e = integrals.newton_from_traces(f)
        np.testing.assert_allclose(e, c, atol=1e-10 * max(1.0, np.abs(c).max()))
        # closed form for the second elementary symmetric function
        assert e[1] == pytest.approx((f[0] ** 2 - f[1]) / 2.0, rel=1e-10, abs=1e-12)


def test_bordered_determinant_equals_last_charpoly_coeff(funk, sphere):
    for spec, seed in ((funk, 5), (sphere, 6)):
        pkt = tensors.PointEvaluation(spec, _sample(spec, seed)).packet()
        fis = _packet_integrals(pkt)
        want = fis.c[-1] if len(fis.c) else 0.0
        assert fis.bordered_value == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))


def test_EE_annihilates_y_and_is_zero_homogeneous(funk):
    p = _sample(funk, 7)
    pkt = tensors.PointEvaluation(funk, p).packet()
    EE = integrals.build_EE(pkt.F, pkt.g_inv, pkt.E)
    np.testing.assert_allclose(EE @ np.array(p.y), np.zeros(3), atol=1e-10)
    scaled = tensors.PointEvaluation(funk, PhasePoint(p.x, 3.0 * np.array(p.y))).packet()
    EE_scaled = integrals.build_EE(scaled.F, scaled.g_inv, scaled.E)
    np.testing.assert_allclose(EE_scaled, EE, rtol=1e-9, atol=1e-11)


def test_riemannian_families_are_identically_zero(sphere, skew):
    for spec, seed in ((sphere, 8), (skew, 9)):
        fis = _packet_integrals(tensors.PointEvaluation(spec, _sample(spec, seed)).packet())
        np.testing.assert_allclose(fis.f, np.zeros(2), atol=1e-10)
        np.testing.assert_allclose(fis.c, np.zeros(2), atol=1e-10)


# -- field registry -------------------------------------------------------------

def test_field_registry_contents(funk, euclid):
    assert integrals.field_ids(funk) == [
        "F", "F2", "c1", "c2", "f1", "f2", "g1_paper", "g2_paper", "one", "s_cl",
    ]
    assert integrals.field_ids(euclid) == ["F", "F2", "c1", "c2", "f1", "f2", "one", "s_cl"]
    four = metrics.catalog(4)["euclidean"]
    assert integrals.field_ids(four) == ["F", "F2", "c1", "c2", "c3", "f1", "f2", "f3", "one", "s_cl"]


def test_evaluate_fields_consistency(funk):
    p = _sample(funk, 10)
    vals = integrals.evaluate_fields(funk, ["one", "F", "F2", "s_cl", "f1", "f2", "c1", "c2"], p)
    assert vals["one"] == 1.0
    assert vals["F2"] == pytest.approx(vals["F"] ** 2, rel=1e-13)
    # the contracted trace s_cl carries the same content as f1 = tr(EE)
    assert vals["f1"] == pytest.approx(2.0 * vals["F"] * vals["s_cl"], rel=1e-11)
    pkt = tensors.PointEvaluation(funk, p).packet()
    fis = _packet_integrals(pkt)
    assert vals["f1"] == pytest.approx(fis.f[0], rel=1e-12)
    assert vals["c2"] == pytest.approx(fis.c[1], rel=1e-12)
    # the fields share _power_traces and _charpoly with fis; the independent routes
    # to c_a hold them to verify's tolerances
    c = np.array([vals["c1"], vals["c2"]])
    scale = max(1.0, float(np.abs(c).max()))
    assert float(np.abs(integrals.newton_from_traces(fis.f) - c).max()) / scale <= 1e-9
    fit = integrals.charpoly_fit(fis.EE)
    assert max(float(np.abs(fit[:2] - c).max()), abs(float(fit[2]))) / scale <= 1e-9


def test_s_cl_reads_the_cartan_landsberg_route(funk, monkeypatch):
    # s_cl contracts E_CL = 1/2 (I_{j;i} + J_{i.j}), never the Berwald E:
    # with E replaced by garbage its value stays the same, bit for bit
    p = _sample(funk, 10)
    vals = integrals.evaluate_fields(funk, ["F", "f1", "s_cl"], p)
    assert vals["f1"] == pytest.approx(2.0 * vals["F"] * vals["s_cl"], rel=1e-11)
    garbage = tensors.PointEvaluation(funk, p, order=5).E_CL * 1e3
    monkeypatch.setattr(tensors.PointEvaluation, "E", property(lambda ev: garbage))
    assert integrals.evaluate_fields(funk, ["s_cl"], p)["s_cl"] == vals["s_cl"]
    assert integrals.evaluate_fields(funk, ["f1"], p)["f1"] != vals["f1"]


def test_unknown_and_out_of_family_fields(euclid, funk):
    p = PhasePoint((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(UnknownFieldError) as err:
        integrals.evaluate_fields(euclid, ["nope"], p)
    assert "f1" in str(err.value)  # the message lists what is registered
    with pytest.raises(FamilyError):
        integrals.evaluate_fields(euclid, ["g1_paper"], p)
    with pytest.raises(UnknownFieldError):
        integrals.field_order(funk, ["f9"])


def test_closed_form_guards():
    with pytest.raises(DimensionError):
        integrals.paper_closed_forms(PhasePoint((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DomainError):
        integrals.paper_closed_forms(PhasePoint((1.2, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(DomainError):
        integrals.paper_closed_forms(PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0))
def test_closed_forms_are_zero_homogeneous(lam):
    x = (0.3, -0.2, 0.1)
    y = np.array([0.8, 0.1, -0.5])
    a = integrals.paper_closed_forms(PhasePoint(x, y))
    b = integrals.paper_closed_forms(PhasePoint(x, lam * y))
    assert b[0] == pytest.approx(a[0], rel=1e-11)
    assert b[1] == pytest.approx(a[1], rel=1e-11)


# -- gradients, spray derivative, bracket ----------------------------------------

def test_field_gradient_against_finite_differences(funk):
    p = PhasePoint((0.2, -0.1, 0.3), (0.9, 0.2, -0.4))
    value, grad_x, grad_y = integrals.field_gradient(funk, "f1", p)

    def f1_at(coords):
        q = PhasePoint(coords[:3], coords[3:])
        return integrals.evaluate_fields(funk, ["f1"], q)["f1"]

    coords = np.array(p.x + p.y)
    assert value == pytest.approx(f1_at(coords), rel=1e-12)
    for k in range(6):
        orders = [0] * 6
        orders[k] = 1
        want = fdcheck.fd_partial(f1_at, coords, orders)
        got = grad_x[k] if k < 3 else grad_y[k - 3]
        assert got == pytest.approx(want, rel=2e-7, abs=1e-8), k


def test_invariants_have_zero_spray_derivative(funk):
    for seed in (11, 12):
        p = _sample(funk, seed)
        for name in ("F2", "f1", "f2", "c1", "c2", "g2_paper"):
            rate = integrals.spray_derivative_of_field(funk, name, p)
            assert abs(rate) < 1e-7 * max(1.0, abs(integrals.evaluate_fields(funk, [name], p)[name]))


def test_bracket_antisymmetry_and_self(funk):
    p = _sample(funk, 13)

    def bracket(fa, fb):
        return integrals.poisson_bracket_scaled(funk, fa, fb, p)[0]

    ab = bracket("f1", "g2_paper")
    ba = bracket("g2_paper", "f1")
    assert ab == pytest.approx(-ba, rel=1e-10, abs=1e-12)
    assert bracket("f1", "f1") == pytest.approx(0.0, abs=1e-10)
    assert bracket("one", "f2") == pytest.approx(0.0, abs=1e-10)


def test_trace_family_is_in_involution(funk):
    for seed in (14, 15, 16):
        p = _sample(funk, seed)
        value, scale = integrals.poisson_bracket_scaled(funk, "f1", "f2", p)
        assert abs(value) / scale < 1e-8
        value, scale = integrals.poisson_bracket_scaled(funk, "c1", "c2", p)
        assert abs(value) / scale < 1e-8


def test_bracket_with_energy_vanishes_for_invariants(funk):
    # the geodesic flow is the Hamiltonian flow of the energy, so
    # {F2, u} = 0 exactly when the spray derivative of u is 0
    p = _sample(funk, 17)
    for name in ("f1", "c2"):
        value, scale = integrals.poisson_bracket_scaled(funk, "F2", name, p)
        assert abs(value) / scale < 1e-8


# -- the jet gradient route against Richardson differences ----------------------

def _fd_gradients(spec, names, p, monkeypatch):
    """Phase-space gradients by Richardson differences (:mod:`finslerkit.fdcheck`)
    of the fields' long-double values, which share no derivative code with
    the jets' degree-1 coefficients.  The fields share one evaluation per
    stencil point."""
    # the default ladder starts at 0.16: from |x| = 0.93 it leaves the ball
    monkeypatch.setattr(fdcheck, "BASE_H", 0.005)
    n = spec.dimension
    order = integrals.field_order(spec, names)
    evaluations = {}

    def value(name, coords):
        key = tuple(coords)
        if key not in evaluations:
            point = PhasePoint(coords[:n], coords[n:])
            evaluations[key] = tensors.PointEvaluation(spec, point, order=order, x_cap=1, dtype=np.longdouble)
        return integrals._lookup(spec, name).build(evaluations[key]).coeffs[0]

    coords = list(p.x) + list(p.y)
    unit = np.eye(2 * n, dtype=int)
    return {
        name: np.array([float(fdcheck.fd_partial(lambda c: value(name, c), coords, unit[k])) for k in range(2 * n)])
        for name in names
    }


def _bracket_reference(spec, grad_a, grad_b, p):
    """(term1, term2) from the given gradients and an order-3 evaluation,
    and the magnitude of the products each term sums (its rounding scale:
    a term can cancel to near zero)."""
    n = spec.dimension
    base = tensors.PointEvaluation(spec, p, order=3)
    N = base.N.num
    g_inv = base.g_inv.num
    delta_a = grad_a[:n] - N.T @ grad_a[n:]
    delta_b = grad_b[:n] - N.T @ grad_b[n:]
    a, b, g, nn = np.abs(grad_a), np.abs(grad_b), np.abs(g_inv), np.abs(N)
    terms = (grad_a[n:] @ g_inv @ delta_b, grad_b[n:] @ g_inv @ delta_a)
    sizes = (a[n:] @ g @ (b[:n] + nn.T @ b[n:]), b[n:] @ g @ (a[:n] + nn.T @ a[n:]))
    return np.array(terms), np.array(sizes)


def _assert_close(got, want, size, what):
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-9 * max(1.0, size), (what, got, want)


# float64 field values leave the differences at 1.7e-9 near the ball's rim
@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant, reason="np.longdouble is float64 here"
)
@pytest.mark.parametrize("case", ["ball3", "ball4", "randers"])
def test_jet_gradients_match_richardson_differences(case, funk, randers, monkeypatch):
    # sampled points from the centre to the sampler's limit (|x| = 0.93 on the balls)
    if case == "ball3":
        spec, names, seeds = funk, integrals.field_ids(funk), (21, 35)
    elif case == "ball4":
        spec, names, seeds = metrics.catalog(4)["funk_ball_berwald"], ["f1", "f3"], (27,)
    else:
        spec = randers
        names, seeds = integrals.field_ids(spec), (24, 25)
    n = spec.dimension
    for seed in seeds:
        p = _sample(spec, seed)
        fd = _fd_gradients(spec, names, p, monkeypatch)
        for name in names:
            value, grad_x, grad_y = integrals.field_gradient(spec, name, p)
            assert value == integrals.evaluate_fields(spec, [name], p)[name]
            assert grad_x.shape == grad_y.shape == (n,)
            want = fd[name]
            _assert_close(np.concatenate([grad_x, grad_y]), want, np.max(np.abs(want)), (case, seed, name))
        for fa, fb in zip(names, names[1:] + names[:1]):
            want, sizes = _bracket_reference(spec, fd[fa], fd[fb], p)
            got = integrals._bracket_terms(spec, fa, fb, p)
            _assert_close(got, want, np.max(sizes), (case, seed, fa, fb))


def test_field_registry_is_built_once_per_shape(funk):
    integrals.field_ids(funk)
    built = integrals._fields_for.cache_info().misses
    again = replace(funk)  # an equal spec, another instance
    assert integrals.field_ids(again) == integrals.field_ids(funk)
    for _ in range(3):
        integrals.field_order(again, ["f1", "c2", "F"])
    assert integrals._fields_for.cache_info().misses == built
    assert "g1_paper" not in integrals.field_ids(metrics.catalog(4)["funk_ball_berwald"])
