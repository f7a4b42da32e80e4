"""Truncated Taylor arithmetic against symbolically computed partials.

The two oracle tables below were generated once with sympy and frozen;
the jet pipeline must reproduce them through plain arithmetic on seeded
coordinate jets.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import jets, metrics
from finslerkit.errors import (
    BranchError,
    DimensionError,
    DomainError,
    OrderError,
    PoleError,
    SignatureError,
)
from finslerkit.jets import (
    DualLayer,
    Jet,
    JetArray,
    JetSpace,
    jet_space,
    seed_dual_phase_point,
    seed_phase_point,
    stack,
)
from finslerkit.metrics import PhasePoint

# d^(a+b) f / du^a dv^b for f = exp(u)*sqrt(v)/(1+u*v) at (u,v) = (0.3, 1.7),
# from sympy.diff evaluated at rational coordinates.
F_PARTIALS = {
    (0, 0): 1.1655632827858886,
    (1, 0): -0.14666028061544292,
    (0, 1): 0.11124386610149696,
    (1, 1): -0.5251871180958765,
    (2, 0): 1.4957917292047667,
    (0, 2): -0.14503013429997677,
    (2, 1): 1.4224281236056047,
    (1, 2): 0.12379243962412302,
    (3, 0): -3.8864485178394825,
    (0, 3): 0.17540704331011478,
    (2, 2): 0.4464557088516942,
    (1, 3): 0.10584287956246273,
    (4, 0): 18.667450647890842,
    (0, 4): -0.27022756317622504,
    (3, 1): -6.661044264901995,
}

# same for g = ln(1+u^2+v^2)*(u+2v)^(3/2) at (u,v) = (0.5, 0.8)
G_PARTIALS = {
    (0, 0): 1.9372236781738015,
    (1, 0): 2.993884170494399,
    (0, 1): 5.343707152269268,
    (2, 1): 1.5289496316049114,
    (0, 3): 4.5985467968838405,
    (3, 1): -1.0625214082824763,
}


def test_partials_of_exp_sqrt_quotient():
    space = jet_space(2, 4)
    u = Jet.variable(space, 0, 0.3)
    v = Jet.variable(space, 1, 1.7)
    f = u.exp() * v.sqrt() / (1.0 + u * v)
    for index, want in F_PARTIALS.items():
        got = f.extract(index)
        assert got == pytest.approx(want, rel=1e-13), index


def test_partials_of_ln_times_rational_power():
    space = jet_space(2, 4)
    u = Jet.variable(space, 0, 0.5)
    v = Jet.variable(space, 1, 0.8)
    g = (1.0 + u * u + v * v).ln() * (u + 2.0 * v).powc(1.5)
    for index, want in G_PARTIALS.items():
        assert g.extract(index) == pytest.approx(want, rel=1e-13), index


def test_enumeration_is_graded_lexicographic():
    space = jet_space(2, 2)
    got = [tuple(e) for e in space.exponents]
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert space.degree_end == [1, 3, 6]


def test_lower_order_enumeration_is_a_prefix():
    hi = jet_space(3, 5)
    lo = jet_space(3, 3)
    assert [tuple(e) for e in hi.exponents[: lo.size]] == [tuple(e) for e in lo.exponents]


def test_extract_applies_factorials():
    # exp(u) around 0 stores coefficients 1/k!; partials are all 1
    space = jet_space(1, 6)
    e = Jet.variable(space, 0, 0.0).exp()
    for k in range(7):
        assert e.coeffs[k] == pytest.approx(1.0 / math.factorial(k))
        assert e.extract((k,)) == pytest.approx(1.0)


def test_polynomial_derivatives_are_exact():
    space = jet_space(2, 4)
    a = Jet.variable(space, 0, 1.5)
    b = Jet.variable(space, 1, -2.0)
    p = 3.0 + 2.0 * a + a * a * b  # d2/da db = 2a, d3/da2 db = 2
    assert p.extract((0, 0)) == pytest.approx(3.0 + 3.0 + 1.5 * 1.5 * -2.0)
    assert p.extract((1, 1)) == pytest.approx(2.0 * 1.5)
    assert p.extract((2, 1)) == pytest.approx(2.0)
    assert p.extract((2, 2)) == 0.0


def test_d_consumes_one_order():
    space = jet_space(2, 3)
    a = Jet.variable(space, 0, 0.7)
    d = (a * a * a).d(0)
    assert d.order == 2
    assert d.value == pytest.approx(3 * 0.7**2)
    assert d.extract((1, 0)) == pytest.approx(6 * 0.7)


def test_truncation_is_a_prefix_slice():
    space = jet_space(2, 4)
    a = Jet.variable(space, 0, 0.4).exp() * Jet.variable(space, 1, 0.9).sqrt()
    t = a.truncated(2)
    assert t.order == 2
    np.testing.assert_array_equal(t.coeffs, a.coeffs[: jet_space(2, 2).size])
    with pytest.raises(OrderError):
        t.truncated(4)


coeff_arrays = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=10, max_size=10
).map(lambda c: np.array(c))


def _jet(coeffs, value=None):
    space = jet_space(2, 3)  # size 1+2+3+4 = 10
    c = coeffs.copy()
    if value is not None:
        c[0] = value
    return Jet(space, c)


@given(coeff_arrays, coeff_arrays, coeff_arrays)
def test_ring_laws(ca, cb, cc):
    a, b, c = _jet(ca), _jet(cb), _jet(cc)
    lhs = (a + b) * c
    rhs = a * c + b * c
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-14)
    np.testing.assert_allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-12)


@given(coeff_arrays, coeff_arrays)
def test_leibniz_rule(ca, cb):
    a, b = _jet(ca), _jet(cb)
    for var in (0, 1):
        lhs = (a * b).d(var)
        rhs = a.d(var) * b.truncated(2) + a.truncated(2) * b.d(var)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


@given(coeff_arrays, st.floats(min_value=0.5, max_value=2.0))
def test_inverse_functions_round_trip(ca, value):
    a = _jet(ca, value)
    one = a * a.recip()
    np.testing.assert_allclose(one.coeffs, Jet.constant(a.space, 1.0).coeffs, atol=1e-10)
    np.testing.assert_allclose((a.sqrt() * a.sqrt()).coeffs, a.coeffs, atol=1e-10)
    np.testing.assert_allclose(a.exp().ln().coeffs, a.coeffs, atol=1e-10)
    np.testing.assert_allclose(a.powc(3.0).coeffs, (a * a * a).coeffs, atol=1e-9)
    np.testing.assert_allclose((a**-2).coeffs, (a.recip() * a.recip()).coeffs, atol=1e-10)


@given(coeff_arrays, st.floats(min_value=0.5, max_value=2.0))
def test_chain_rule_against_composition(ca, value):
    # d/dvar ln(a) = a.d(var) / a, same through either route
    a = _jet(ca, value)
    for var in (0, 1):
        lhs = a.ln().d(var)
        rhs = a.d(var) / a.truncated(2)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


def test_dual_layer_tangent_is_directional_derivative():
    space = jet_space(2, 3)
    u = DualLayer(Jet.variable(space, 0, 0.3), Jet.constant(space, 1.0))
    v = DualLayer(Jet.variable(space, 1, 1.7), Jet.constant(space, 0.0))
    f = u.exp() * v.sqrt() / (1.0 + u * v)
    assert f.num == pytest.approx(F_PARTIALS[(0, 0)], rel=1e-13)
    assert f.tangent.num == pytest.approx(F_PARTIALS[(1, 0)], rel=1e-13)
    # the tangent is itself a jet: mixed dual/jet derivative
    assert f.tangent.extract((0, 1)) == pytest.approx(F_PARTIALS[(1, 1)], rel=1e-12)


def test_nested_duals_give_second_directionals():
    space = jet_space(2, 2)

    def build(mk_u, mk_v):
        return mk_u.exp() * mk_v.sqrt() / (1.0 + mk_u * mk_v)

    inner_u = DualLayer(Jet.variable(space, 0, 0.3), Jet.constant(space, 1.0))
    inner_v = DualLayer(Jet.variable(space, 1, 1.7), Jet.constant(space, 0.0))
    outer_u = DualLayer(inner_u, inner_u.const(0.0) + 1.0)
    outer_v = DualLayer(inner_v, inner_v.const(0.0))
    f = build(outer_u, outer_v)
    assert f.tangent.tangent.num == pytest.approx(F_PARTIALS[(2, 0)], rel=1e-12)


def test_seed_dual_phase_point_matches_jet_partials(funk):
    point = PhasePoint((0.1, -0.2, 0.3), (0.9, 0.4, -0.5))
    jets = seed_phase_point(point, 4)
    f2_jet = metrics.eval_F2(funk, jets[:3], jets[3:])
    for direction in range(6):
        duals = seed_dual_phase_point(point, 3, direction)
        f2_dual = metrics.eval_F2(funk, duals[:3], duals[3:])
        unit = tuple(1 if k == direction else 0 for k in range(6))
        assert f2_dual.tangent.num == pytest.approx(f2_jet.extract(unit), rel=1e-12)
        assert f2_dual.num == pytest.approx(f2_jet.value, rel=1e-14)


def test_seed_phase_point_layout():
    jets = seed_phase_point(PhasePoint((1.0, 2.0), (3.0, 4.0)), 2)
    assert [j.value for j in jets] == [1.0, 2.0, 3.0, 4.0]
    assert jets[0].extract((1, 0, 0, 0)) == 1.0
    assert jets[3].extract((0, 0, 0, 1)) == 1.0
    assert jets[3].extract((0, 0, 1, 0)) == 0.0


def test_signature_mixing_is_rejected():
    a = Jet.variable(jet_space(2, 3), 0, 1.0)
    b = Jet.variable(jet_space(2, 2), 0, 1.0)
    c = Jet.variable(jet_space(3, 3), 0, 1.0)
    for other in (b, c):
        with pytest.raises(SignatureError):
            a + other
        with pytest.raises(SignatureError):
            a * other
    # aligned explicitly, it works
    assert (a.truncated(2) + b).value == 2.0


def test_order_and_dimension_errors():
    space = jet_space(2, 2)
    a = Jet.variable(space, 0, 1.0)
    with pytest.raises(OrderError):
        a.extract((2, 1))
    with pytest.raises(DimensionError):
        a.extract((1, 0, 0))
    with pytest.raises(OrderError):
        a.truncated(0).truncated(0).d(0)  # order-0 jet cannot differentiate
    with pytest.raises(DimensionError):
        a.d(5)
    with pytest.raises(DimensionError):
        Jet.variable(space, 9, 0.0)
    with pytest.raises(OrderError):
        Jet.variable(jet_space(2, 0), 0, 1.0)


def test_branch_and_pole_errors():
    space = jet_space(1, 3)
    neg = Jet.constant(space, -1.0)
    zero = Jet.constant(space, 0.0)
    with pytest.raises(BranchError):
        neg.sqrt()
    with pytest.raises(BranchError):
        zero.ln()
    with pytest.raises(BranchError):
        neg.powc(0.5)
    with pytest.raises(PoleError):
        zero.recip()
    # negative value parts are fine for pure arithmetic
    assert (neg * neg).value == 1.0


def test_phase_seed_rejects_degenerate_input():
    with pytest.raises(DomainError):
        PhasePoint((0.0,), (0.0,))
    with pytest.raises(DimensionError):
        PhasePoint((0.0, 1.0), (1.0,))
    with pytest.raises(OrderError):
        seed_phase_point(PhasePoint((0.0,), (1.0,)), 0)
    with pytest.raises(DimensionError):
        seed_dual_phase_point(PhasePoint((0.0,), (1.0,)), 2, direction=7)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
def test_space_size_is_binomial(dim, order):
    space = jet_space(dim, order)
    assert space.size == math.comb(dim + order, order)


@pytest.mark.parametrize("dim, order", [(2, 3), (6, 5), (8, 6)])
def test_product_table_matches_double_loop(dim, order):
    space = jet_space(dim, order)
    rng = np.random.default_rng(dim * 10 + order)
    a = rng.uniform(-1.0, 1.0, space.size)
    b = rng.uniform(-1.0, 1.0, space.size)
    exps = [tuple(e) for e in space.exponents.tolist()]
    position = {e: k for k, e in enumerate(exps)}
    degrees = [sum(e) for e in exps]
    want = np.zeros(space.size)
    magnitude = np.zeros(space.size)  # sum of |terms| per output
    terms = np.zeros(space.size)
    for i, ei in enumerate(exps):
        for j, ej in enumerate(exps):
            if degrees[i] + degrees[j] > order:
                break  # the layout ascends in degree
            k = position[tuple(p + q for p, q in zip(ei, ej))]
            want[k] += a[i] * b[j]
            magnitude[k] += abs(a[i] * b[j])
            terms[k] += 1
    got = (Jet(space, a) * Jet(space, b)).coeffs
    # summation order differs: bound by the float64 error of a sum of that many terms
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(got - want) <= 2.0 * terms * eps * magnitude)


def test_gradient_matches_extract_without_the_index_dict():
    space = JetSpace(8, 6)  # uninterned: nothing else has touched it
    xs = [Jet.variable(space, k, 0.1 * k + 0.5) for k in range(8)]
    f = (xs[0] * xs[3] + xs[7]).sqrt() * xs[5]
    grad = f.gradient()
    np.testing.assert_array_equal(xs[3].gradient(), np.eye(8)[3])
    assert "index_of" not in vars(space)
    want = [f.extract(tuple(np.eye(8, dtype=int)[k])) for k in range(8)]
    np.testing.assert_array_equal(grad, want)
    with pytest.raises(OrderError):
        f.truncated(0).gradient()


@pytest.mark.parametrize("dim, order", [(6, 2), (6, 5), (8, 3)])
def test_hessian_matches_extract_for_every_pair(dim, order):
    space = jet_space(dim, order)
    f = Jet(space, np.random.default_rng(dim + order).uniform(-1.0, 1.0, space.size))
    unit = np.eye(dim, dtype=int)
    want = [[f.extract(tuple(unit[i] + unit[j])) for j in range(dim)] for i in range(dim)]
    np.testing.assert_array_equal(f.hessian(), want)
    with pytest.raises(OrderError):
        f.truncated(1).hessian()


def test_integer_powers_skip_the_unused_square(jet_products):
    space = jet_space(6, 3)
    x = Jet(space, np.random.default_rng(5).uniform(-1.0, 1.0, space.size))
    x2 = x * x
    want = {2: x2, 3: x * x2, 4: x2 * x2}
    for n, count in ((2, 1), (3, 2), (4, 2)):
        jet_products.count = 0
        got = x**n
        assert jet_products.count == count, n
        np.testing.assert_array_equal(got.coeffs, want[n].coeffs)


# -- x-degree caps ----------------------------------------------------------------

def _kept_rows(full, capped):
    """Positions in ``full`` of the rows ``capped`` keeps, checked against
    the exponents (first dim // 2 variables are positions)."""
    keep = np.flatnonzero(full.exponents[:, : full.dim // 2].sum(axis=1) <= capped.x_cap)
    np.testing.assert_array_equal(full.exponents[keep], capped.exponents)
    return keep


@pytest.mark.parametrize("dim, order, cap", [(6, 6, 2), (8, 6, 2), (6, 5, 1), (8, 5, 1)])
def test_capped_products_equal_uncapped_on_kept_rows(dim, order, cap):
    full, capped = jet_space(dim, order), jet_space(dim, order, cap)
    keep = _kept_rows(full, capped)
    rng = np.random.default_rng(dim * 100 + order * 10 + cap)
    a, b = (Jet(full, rng.uniform(-1.0, 1.0, full.size)) for _ in range(2))
    want = (a * b).coeffs[keep]
    got = a.to_space(capped) * b.to_space(capped)
    assert got.space is capped
    np.testing.assert_array_equal(got.coeffs, want)  # bit for bit
    np.testing.assert_array_equal(a.to_space(capped).coeffs, a.coeffs[keep])


def test_d_lowers_the_cap_only_for_position_variables():
    space = jet_space(6, 5, 2)
    f = Jet(space, np.random.default_rng(3).uniform(-1.0, 1.0, space.size))
    full = Jet(jet_space(6, 5), np.zeros(jet_space(6, 5).size))
    full.coeffs[_kept_rows(full.space, space)] = f.coeffs
    for var in range(6):
        got = f.d(var)
        cap = 1 if var < 3 else 2
        assert got.space is jet_space(6, 4, cap)
        # the kept coefficients of the derivative are those of the uncapped one
        want = full.d(var).coeffs[_kept_rows(jet_space(6, 4), got.space)]
        np.testing.assert_array_equal(got.coeffs, want)
    # two position derivatives use the cap up; a third has nothing to read
    g = f.d(0).d(1)
    assert g.space is jet_space(6, 3, 0)
    assert g.d(4).space is jet_space(6, 2, 0)
    with pytest.raises(OrderError):
        g.d(2)


def test_a_cap_at_or_above_the_order_is_the_uncapped_space():
    for cap in (5, 6, 99, None):
        assert jet_space(6, 5, cap) is jet_space(6, 5)
    assert jet_space(6, 5).x_cap == 5
    assert jet_space(6, 5, 4) is not jet_space(6, 5)
    assert jet_space(1, 4, 0) is jet_space(1, 4)  # no position variables, no cap
    assert JetSpace(6, 5).size == jet_space(6, 5).size
    with pytest.raises(OrderError):
        jet_space(6, 5, -1)


def test_mixing_caps_needs_explicit_alignment():
    lo, hi = jet_space(6, 4, 1), jet_space(6, 4, 2)
    a = Jet.variable(hi, 4, 1.0)
    b = Jet.variable(lo, 4, 2.0)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(SignatureError):
            op()
    meet = hi.meet(jet_space(6, 3))
    assert meet is jet_space(6, 3, 2) and meet is jet_space(6, 3).meet(hi)
    assert (a.to_space(lo) * b).value == 2.0
    # a lower order at the same cap is a prefix: the aligned jet is a view
    assert np.shares_memory(a.truncated(2).coeffs, a.coeffs)
    assert a.truncated(2).space is jet_space(6, 2, 2)
    with pytest.raises(OrderError):
        b.to_space(hi)  # a cap cannot be raised


def test_partials_below_the_cap_are_refused():
    space = jet_space(6, 4, 1)
    xs = [Jet.variable(space, k, 0.1 * k + 0.5) for k in range(6)]
    f = xs[0] * xs[4] + xs[5] * xs[5]
    assert f.extract((1, 0, 0, 0, 1, 0)) == 1.0
    assert f.gradient()[5] == pytest.approx(2.0 * xs[5].value)
    with pytest.raises(OrderError):
        f.extract((1, 1, 0, 0, 0, 0))
    with pytest.raises(OrderError):
        f.hessian()
    with pytest.raises(OrderError):
        f.d(0).gradient()
    with pytest.raises(OrderError):
        Jet.variable(jet_space(6, 4, 0), 1, 0.0)
    # a fiber variable needs no cap
    assert Jet.variable(jet_space(6, 4, 0), 3, 0.5).extract((0, 0, 0, 1, 0, 0)) == 1.0


# -- analytic functions by degree-graded recurrences --------------------------------

# (name, outer Taylor coefficient k at value part b0, as a 50-digit number, jet method)
OUTER_SERIES = {
    "recip": (lambda k, b0: (-1) ** k / b0 ** (k + 1), Jet.recip),
    "sqrt": (lambda k, b0: mpmath.binomial(0.5, k) * b0 ** (0.5 - k), Jet.sqrt),
    "ln": (lambda k, b0: mpmath.log(b0) if k == 0 else (-1) ** (k + 1) / (k * b0**k), Jet.ln),
    "exp": (lambda k, b0: mpmath.exp(b0) / mpmath.factorial(k), Jet.exp),
    "power 1.5": (lambda k, b0: mpmath.binomial(1.5, k) * b0 ** (1.5 - k), lambda jet: jet.powc(1.5)),
    "power -1.5": (lambda k, b0: mpmath.binomial(-1.5, k) * b0 ** (-1.5 - k), lambda jet: jet.powc(-1.5)),
}


def _mp_product(space, a, b):
    """Truncated product of two coefficient lists of 50-digit numbers,
    through the space's product table."""
    ia, ib, starts = space._mult_table()
    bounds = list(starts) + [len(ia)]
    return [mpmath.fsum(a[i] * b[j] for i, j in zip(ia[s:e], ib[s:e])) for s, e in zip(bounds, bounds[1:])]


def _mp_reference(jet, outer, to=float):
    """sum_k outer(k, b0) (jet - b0)**k by Horner's rule in 50 digits, each
    coefficient converted by ``to``."""
    space = jet.space
    with mpmath.workdps(50):
        b0 = mpmath.mpf(jet.value)
        u = [mpmath.mpf(0)] + [mpmath.mpf(c) for c in jet.coeffs[1:]]
        acc = [outer(space.order, b0)] + [mpmath.mpf(0)] * (space.size - 1)
        for k in range(space.order - 1, -1, -1):
            acc = _mp_product(space, acc, u)
            acc[0] += outer(k, b0)
        return np.array([to(c) for c in acc])


def _random_jet(signature, name, value):
    space = jet_space(*signature)
    rng = np.random.default_rng(sum(map(ord, name)) + space.size)
    coeffs = 0.4 * rng.standard_normal(space.size)
    coeffs[0] = value
    return Jet(space, coeffs)


@pytest.mark.parametrize("signature", [(6, 5, 2), (2, 6, None)])
@pytest.mark.parametrize("name", sorted(OUTER_SERIES))
def test_functions_match_a_50_digit_reference(signature, name):
    outer, method = OUTER_SERIES[name]
    jet = _random_jet(signature, name, 1.7)
    want = _mp_reference(jet, outer)
    got = method(jet).coeffs
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("signature", [(6, 5, 2), (2, 6, None)])
@pytest.mark.parametrize("name", sorted(OUTER_SERIES))
def test_functions_in_long_double_match_a_50_digit_reference(signature, name):
    # the same jets in long double: a step that rounds through a float64
    # array (numpy's same_kind casting does so silently) costs about
    # three digits here
    outer, method = OUTER_SERIES[name]
    jet = _random_jet(signature, name, 1.7)
    want = _mp_reference(jet, outer, lambda c: np.longdouble(mpmath.nstr(c, 30)))
    got = method(Jet(jet.space, jet.coeffs.astype(np.longdouble))).coeffs
    assert got.dtype == np.longdouble
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(np.longdouble).eps * np.max(np.abs(want))


@pytest.mark.parametrize("value", [1e-300, 1e-100, 1e-30, 1e30, 1e100, 1e300])
@pytest.mark.parametrize("signature", [(6, 5, 2), (2, 6, None)])
@pytest.mark.parametrize("name", sorted(OUTER_SERIES))
def test_functions_fail_only_where_a_coefficient_leaves_the_float_range(signature, name, value):
    # far from 1 the same rule holds: the coefficients match the reference,
    # or, exactly where one of the reference's exceeds the float range, the
    # function raises DomainError naming itself and the value part
    outer, method = OUTER_SERIES[name]
    jet = _random_jet(signature, name, value)
    want = _mp_reference(jet, outer)
    if np.isfinite(want).all():
        got = method(jet).coeffs
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
    else:
        message = f"{name} of a jet with value part {value!r}: a coefficient leaves the float range"
        with pytest.raises(DomainError, match=re.escape(message)):
            method(jet)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(OUTER_SERIES))
def test_functions_refuse_a_non_finite_value_part(name, value):
    jet = Jet.variable(jet_space(2, 3), 0, value)
    with pytest.raises(DomainError, match=re.escape(f"{name} of a jet with non-finite value part {value!r}")):
        OUTER_SERIES[name][1](jet)


@pytest.mark.parametrize("signature", [(6, 6, 2), (8, 5, None), (3, 2, None)])
def test_functions_invert_each_other_to_rounding(signature):
    space = jet_space(*signature)
    rng = np.random.default_rng(space.size)
    coeffs = 0.3 * rng.standard_normal(space.size)
    coeffs[0] = 1.3
    u = Jet(space, coeffs)
    one = u.const(1.0)
    eps = np.finfo(np.float64).eps
    for got, want in ((u.recip() * u, one), (u.sqrt() * u.sqrt(), u), (u.ln().exp(), u)):
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 64 * eps * np.max(np.abs(coeffs))


def test_functions_issue_no_products(jet_products):
    for signature in ((6, 6, 2), (8, 5, None), (6, 2, None)):
        space = jet_space(*signature)
        coeffs = 0.1 * np.random.default_rng(space.size).standard_normal(space.size)
        coeffs[0] = 2.0
        u = Jet(space, coeffs)
        for fn in (Jet.recip, Jet.sqrt, Jet.ln, Jet.exp, lambda jet: jet.powc(-1.5)):
            fn(u)
    assert jet_products.count == 0


def test_functions_keep_the_value_part_of_the_float_functions():
    u = Jet.variable(jet_space(2, 5), 1, 2.7)
    assert u.recip().value == 1.0 / 2.7
    assert u.sqrt().value == 2.7**0.5
    assert u.powc(-1.5).value == 2.7**-1.5
    assert u.ln().value == math.log(2.7)
    assert u.exp().value == math.exp(2.7)


# -- tensors of jets ---------------------------------------------------------------

def _entrywise(op, *tensors):
    """op applied entry by entry to single jets, as a nested list."""
    if isinstance(tensors[0], list):
        return [_entrywise(op, *entries) for entries in zip(*tensors)]
    return op(*tensors)


def _coeffs(entries):
    """The coefficients of a nested list of jets, as one array."""
    return np.array(_entrywise(lambda jet: jet.coeffs, entries))


@pytest.mark.parametrize("dim", [6, 8])
@pytest.mark.parametrize("order", range(7))
def test_jet_arrays_equal_entrywise_jet_operations_bit_for_bit(dim, order):
    # every cap the pipeline's spaces carry, at every order the batched products serve
    spaces = {jet_space(dim, order, cap) for cap in (0, 1, 2, None)}
    rng = np.random.default_rng(100 * dim + order)
    for space in sorted(spaces, key=lambda s: s.x_cap):
        a, b = (rng.standard_normal((3, 3, space.size)) for _ in range(2))
        A, B = JetArray(space, a), JetArray(space, b)
        ja, jb = ([[Jet(space, c) for c in row] for row in t] for t in (a, b))
        cases = {
            "+": (A + B, _entrywise(lambda u, v: u + v, ja, jb)),
            "-": (A - B, _entrywise(lambda u, v: u - v, ja, jb)),
            "* 0.3": (A * 0.3, _entrywise(lambda u: u * 0.3, ja)),
            "*": (A * B, _entrywise(lambda u, v: u * v, ja, jb)),
            "jet *": (ja[1][2] * B, _entrywise(lambda v: ja[1][2] * v, jb)),
            "@": (A @ B, [[sum((ja[i][k] * jb[k][j] for k in range(1, 3)), ja[i][0] * jb[0][j]) for j in range(3)]
                          for i in range(3)]),
            "@ vector": (A @ B[:, 0], [sum((ja[i][k] * jb[k][0] for k in range(1, 3)), ja[i][0] * jb[0][0])
                                       for i in range(3)]),
        }
        for var in range(dim):
            if order >= 1 and (var >= dim // 2 or space.x_cap >= 1):
                cases[f"d{var}"] = (A.d(var), _entrywise(lambda u: u.d(var), ja))
        for target in {jet_space(dim, o, c) for o in range(order + 1) for c in (0, 1, 2, None)}:
            if target.x_cap <= space.x_cap:
                cases[f"to {target}"] = (A.to_space(target), _entrywise(lambda u: u.to_space(target), ja))
        for name, (got, want) in cases.items():
            want_space = _entrywise(lambda jet: jet.space, want)
            assert all(s is got.space for s in np.ravel(want_space)), (space, name)
            assert np.array_equal(got.coeffs, _coeffs(want)), (space, name)


# -- polynomial degree ----------------------------------------------------------------

def test_degree_bounds_follow_the_operations():
    space = jet_space(6, 5, 2)
    x, y = Jet.variable(space, 0, 0.3), Jet.variable(space, 4, -1.2)
    c = Jet.constant(space, 2.0)
    assert (x.deg, c.deg, Jet(space, np.zeros(space.size)).deg) == (1, 0, 5)
    assert ((x + c).deg, (x - 1.0).deg, (2.0 - x).deg, (-x).deg, (x * 3.0).deg) == (1, 1, 1, 1, 1)
    assert ((x * y).deg, (x * y * y).deg, (x**3).deg, (x**9).deg, (x * c).deg) == (2, 3, 3, 5, 1)
    assert ((x * y).d(0).deg, c.d(4).deg, (x * y).partials(range(3, 6)).deg) == (1, 0, 1)
    t = stack([x, x * y])
    assert (t.deg, t[0].deg, t.sum().deg, (t * x).deg, t.to_space(jet_space(6, 2, 1)).deg) == (2, 2, 2, 3, 2)
    for fn in (Jet.recip, Jet.sqrt, Jet.ln, Jet.exp, lambda u: u.powc(1.5)):
        assert fn(x * x + 1.0).deg == 5


def test_a_tensor_refuses_item_assignment():
    # a tensor is immutable: its degree bound stays true for every entry
    space = jet_space(6, 4)
    x = Jet.variable(space, 1, 0.5)
    t = stack([x, x])
    with pytest.raises(TypeError):
        t[0] = x * x
    assert t.deg == 1 and np.array_equal(t.coeffs, stack([x, x]).coeffs)


def _bits(coeffs):
    return np.ascontiguousarray(coeffs).view(np.int64)


_finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(6, 3, 1), (6, 5, 2), (6, 6, 2), (8, 6, 2)]), st.data())
def test_products_below_the_order_keep_the_full_tables_bits(signature, data):
    """Random programs over seeds and constants: every coefficient past a
    result's bound is zero, and each product equals the full table's."""
    space = jet_space(*signature)
    dim, nx = space.dim, space.dim // 2
    pool = [Jet.variable(space, v, data.draw(_finite)) for v in range(dim)]
    pool += [Jet.constant(space, data.draw(_finite)) for _ in range(2)]

    def pick():
        return pool[data.draw(st.integers(0, len(pool) - 1))]

    def aligned_pair():
        a, b = pick(), pick()
        meet = a.space.meet(b.space)
        a, b = a.to_space(meet), b.to_space(meet)
        if isinstance(a, JetArray) and isinstance(b, JetArray) and a.shape != b.shape:
            b = b.sum()
        return a, b

    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["+", "-", "*", "*", "scale", "d", "partials", "to_space", "stack"]))
        if op in ("+", "-", "*"):
            a, b = aligned_pair()
            if op == "*":
                got = a * b
                want = jets._products(a.space, a.coeffs, b.coeffs)
                # the lower table's outputs carry the full table's bits,
                # signed zeros included; past them both are zero, though
                # the full table may sum a zero to -0.0 (say (-0.0)**2)
                end = a.space.degree_end[min(a.deg + b.deg, a.space.order)]
                assert np.array_equal(_bits(got.coeffs[..., :end]), _bits(want[..., :end]))
                assert np.all(want[..., end:] == 0.0)
            else:
                got = a + b if op == "+" else a - b
        elif op == "scale":
            a, s = pick(), data.draw(_finite)
            got = data.draw(st.sampled_from([lambda: a * s, lambda: s - a, lambda: -a, lambda: a + s]))()
        elif op in ("d", "partials"):
            a = pick()
            if a.space.order < 1:
                continue
            if op == "d":
                got = a.d(data.draw(st.integers(0 if a.space.x_cap >= 1 else nx, dim - 1)))
            else:
                fibers = a.space.x_cap < 1 or data.draw(st.booleans())
                got = a.partials(range(nx, dim) if fibers else range(nx))
                if len(got.shape) > 1:
                    got = got.sum()
        elif op == "to_space":
            a = pick()
            order, cap = data.draw(st.integers(0, a.space.order)), data.draw(st.integers(0, a.space.x_cap))
            got = a.to_space(jet_space(dim, order, cap))
        else:
            a, b = aligned_pair()
            got = stack([t.sum() if isinstance(t, JetArray) else t for t in (a, b)])
        assert got.deg <= got.space.order
        assert np.all(got.coeffs[..., got.space.degree_end[got.deg] :] == 0.0), op
        pool.append(got)
