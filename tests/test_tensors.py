"""Curvature pipeline against closed forms and finite-difference oracles.

Independent oracles used here:

* the projectively flat ball metric at the center, where every tensor has
  a short hand derivation (G = |y| y, N = |y| I + y y^T/|y|, ...);
* the conformally flat round-sphere metric, whose spray and curvature have
  classical closed forms (G^i = (grad phi . y) y^i - |y|^2 phi^i / 2,
  constant flag curvature 1);
* Richardson-extrapolated finite differences of the energy, assembled into
  the spray the same way the definitions read.
"""

import functools
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import fdcheck, integrals, metrics, tensors, verify
from finslerkit.errors import DimensionError, DomainError, OrderError, SingularMetricError
from finslerkit.jets import Jet, JetArray, jet_space, stack
from finslerkit.tensors import PhasePoint, PointEvaluation, mat_inv_det


def _sample(spec, seed=0):
    rng = np.random.default_rng(seed)
    x, y = metrics.sample_phase_point(spec, rng)
    return PhasePoint(x, y)


# -- center of the ball: every tensor by hand --------------------------------

class TestBallCenter:
    """At x = 0, y = e1 the ball metric's energy reduces to |y|^4/|y|^2,
    so F = |y| there and the spray is G = |y| y with projective factor |y|."""

    @pytest.fixture(autouse=True)
    def _packet(self, funk, origin_point):
        self.pkt = PointEvaluation(funk, origin_point).packet()

    def test_metric_is_euclidean_at_center(self):
        assert self.pkt.F == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(self.pkt.g, np.eye(3), atol=1e-13)
        np.testing.assert_allclose(self.pkt.g_inv, np.eye(3), atol=1e-13)
        np.testing.assert_allclose(self.pkt.h, np.diag([0.0, 1.0, 1.0]), atol=1e-13)

    def test_spray_and_connection(self):
        np.testing.assert_allclose(self.pkt.G, [1.0, 0.0, 0.0], atol=1e-13)
        # N = d(|y| y)/dy = |y| I + y y^T/|y|
        np.testing.assert_allclose(self.pkt.N, np.diag([2.0, 1.0, 1.0]), atol=1e-13)

    def test_jacobi_endomorphism_vanishes(self):
        # projectively flat with vanishing flag curvature
        np.testing.assert_allclose(self.pkt.R_jac, np.zeros((3, 3)), atol=1e-12)
        np.testing.assert_allclose(self.pkt.R_curv, np.zeros((3, 3, 3)), atol=1e-12)
        assert self.pkt.flag.is_scalar
        assert self.pkt.flag.kappa == pytest.approx(0.0, abs=1e-12)

    def test_mean_berwald_curvature(self):
        # E = (n+1)/2 * d^2 P/dy dy with P = |y|: hessian of |y| at e1
        # is diag(0, 1, 1), so E = diag(0, 2, 2)
        np.testing.assert_allclose(self.pkt.E, np.diag([0.0, 2.0, 2.0]), atol=1e-12)

    def test_s_function_and_distortion(self):
        assert self.pkt.tau == pytest.approx(0.0, abs=1e-13)
        assert self.pkt.S == pytest.approx(4.0, rel=1e-13)

    def test_chi_and_alpha_pair_at_center(self):
        np.testing.assert_allclose(self.pkt.chi, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(np.asarray(self.pkt.alpha[0]), np.asarray(self.pkt.J), atol=1e-14)
        np.testing.assert_allclose(np.asarray(self.pkt.alpha[1]), -np.asarray(self.pkt.I), atol=1e-14)


# -- closed-form sphere oracle -----------------------------------------------

class TestRoundSphere:
    def test_spray_matches_conformal_closed_form(self, sphere):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = metrics.sample_phase_point(sphere, rng)
            G = np.asarray(tensors.spray_values(sphere, PhasePoint(x, y)))
            grad_phi = -2.0 * x / (1.0 + x @ x)
            want = (grad_phi @ y) * y - 0.5 * (y @ y) * grad_phi
            np.testing.assert_allclose(G, want, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_flag_curvature_is_one(self, sphere):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x, y = metrics.sample_phase_point(sphere, rng)
            flag = PointEvaluation(sphere, PhasePoint(x, y), order=4).flag
            assert flag.is_scalar
            assert flag.kappa == pytest.approx(1.0, rel=1e-10)
            assert flag.residual < 1e-10

    def test_riemannian_degeneration(self, sphere):
        p = _sample(sphere, 7)
        pkt = PointEvaluation(sphere, p).packet()
        np.testing.assert_allclose(pkt.B, np.zeros((3, 3, 3, 3)), atol=1e-10)
        np.testing.assert_allclose(pkt.E, np.zeros((3, 3)), atol=1e-10)
        np.testing.assert_allclose(pkt.I, np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(pkt.J, np.zeros(3), atol=1e-10)


# -- finite-difference spray oracle ------------------------------------------

def test_spray_against_finite_differences(funk):
    p = PhasePoint((0.15, -0.3, 0.2), (0.8, 0.5, -0.4))
    n = 3

    def f2(coords):
        return metrics.f2_value(funk, coords[:n], coords[n:])

    coords = np.array(p.x + p.y)

    def fd(orders):
        return fdcheck.fd_partial(f2, coords, orders)

    g_fd = np.empty((n, n))
    mixed = np.empty((n, n))  # d^2 F^2 / dy_j dx_k
    grad_x = np.empty(n)
    for j in range(n):
        orders = [0] * (2 * n)
        orders[j] = 1
        grad_x[j] = fd(orders)
        for k in range(n):
            orders = [0] * (2 * n)
            orders[n + j] += 1
            orders[n + k] += 1
            g_fd[j, k] = 0.5 * fd(orders)
            orders = [0] * (2 * n)
            orders[n + j] += 1
            orders[k] += 1
            mixed[j, k] = fd(orders)
    G_fd = 0.25 * np.linalg.solve(g_fd, mixed @ np.array(p.y) - grad_x)

    g = PointEvaluation(funk, p, order=2).g.num
    G = tensors.spray_values(funk, p)
    np.testing.assert_allclose(np.asarray(g), g_fd, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(np.asarray(G), G_fd, rtol=1e-6, atol=1e-8)


# -- structural identities at generic points ----------------------------------

def test_jacobi_annihilates_y_and_traces_curvature(sphere):
    p = _sample(sphere, 11)
    ev = PointEvaluation(sphere, p, order=4)
    R_jac = ev.R_jac.num
    R_curv = ev.R_curv.num
    y = np.array(p.y)
    np.testing.assert_allclose(R_jac @ y, np.zeros(3), atol=1e-12)
    # R^i_{jk} is antisymmetric in (j,k) and contracts back to the Jacobi
    # endomorphism: R^i_{jk} y^j = R^i_k
    np.testing.assert_allclose(R_curv, -R_curv.transpose(0, 2, 1), atol=1e-12)
    np.testing.assert_allclose(np.einsum("ijk,j->ik", R_curv, y), R_jac, atol=1e-11)


def test_berwald_tensor_is_totally_symmetric(funk):
    p = _sample(funk, 13)
    B = PointEvaluation(funk, p, order=5).B.num
    for perm in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)):
        np.testing.assert_allclose(B, B.transpose(*perm), atol=1e-12)


def test_three_berwald_trace_routes_agree(funk):
    p = _sample(funk, 17)
    ev = PointEvaluation(funk, p, order=5)
    a = ev.E.num
    np.testing.assert_allclose(a, ev.E_S.num, atol=1e-11 * max(1.0, np.abs(a).max()))
    np.testing.assert_allclose(a, ev.E_CL.num, atol=1e-11 * max(1.0, np.abs(a).max()))


def test_covariant_derivative_of_metric_vanishes(catalog3):
    for name, spec in catalog3.items():
        p = _sample(spec, 19)
        ev = PointEvaluation(spec, p, order=6)
        nabla_g = ev.nabla2(ev.g).num
        assert np.abs(nabla_g).max() < 1e-10, name


def test_ball_metric_weak_berwald_invariants_vanish(funk):
    p = _sample(funk, 23)
    ev, ev6 = PointEvaluation(funk, p, order=5), PointEvaluation(funk, p, order=6)
    chi = ev.chi.num
    nabla_E = ev6.nabla2(ev6.E).num
    hamel = ev.hamel.num
    assert np.abs(chi).max() < 1e-9
    assert np.abs(nabla_E).max() < 1e-8
    assert np.abs(hamel).max() < 1e-8


def test_s_function_is_projective_factor_multiple(funk):
    # for this projectively flat metric S = (n+1) P with G^i = P y^i
    rng = np.random.default_rng(29)
    for _ in range(5):
        x, y = metrics.sample_phase_point(funk, rng)
        S = PointEvaluation(funk, PhasePoint(x, y), order=5).S.num
        P = metrics.eval_projective_factor(funk, list(x), list(y))
        assert S == pytest.approx(4.0 * P, rel=1e-11)


def test_euclidean_everything_flat(euclid):
    p = _sample(euclid, 31)
    pkt = PointEvaluation(euclid, p).packet()
    y = np.array(p.y)
    np.testing.assert_allclose(pkt.g, np.eye(3), atol=1e-14)
    assert pkt.F == pytest.approx(np.linalg.norm(y), rel=1e-14)
    for field in (pkt.G, pkt.N, pkt.R_jac, pkt.B, pkt.E, pkt.chi, pkt.I, pkt.J):
        assert np.abs(np.asarray(field)).max() < 1e-12
    assert pkt.flag.kappa == pytest.approx(0.0, abs=1e-12)


def test_constant_coefficient_metric_has_no_spray(skew):
    p = _sample(skew, 37)
    pkt = PointEvaluation(skew, p).packet()
    want_g = np.array([[1.5, 0.3, 0.0], [0.3, 2.0, 0.3], [0.0, 0.3, 2.5]])
    np.testing.assert_allclose(pkt.g, want_g, atol=1e-13)
    assert np.abs(np.asarray(pkt.G)).max() < 1e-13
    assert np.abs(np.asarray(pkt.N)).max() < 1e-13


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.25, max_value=4.0))
def test_homogeneity_degrees(lam):
    funk = metrics.catalog(3)["funk_ball_berwald"]
    x = np.array([0.2, -0.1, 0.35])
    y = np.array([0.9, 0.3, -0.6])
    a = PointEvaluation(funk, PhasePoint(x, y)).packet()
    b = PointEvaluation(funk, PhasePoint(x, lam * y)).packet()
    assert b.F == pytest.approx(lam * a.F, rel=1e-11)
    np.testing.assert_allclose(np.asarray(b.g), np.asarray(a.g), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(np.asarray(b.G), lam**2 * np.asarray(a.G), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(np.asarray(b.N), lam * np.asarray(a.N), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        np.asarray(b.E), np.asarray(a.E) / lam, rtol=1e-9, atol=1e-11
    )
    assert b.S == pytest.approx(lam * a.S, rel=1e-10)
    assert b.tau == pytest.approx(a.tau, abs=1e-11)


# -- linear algebra on scalars -------------------------------------------------

def _const_matrix(values):
    """A matrix of constant jets, as a tensor."""
    return JetArray(jet_space(1, 0), np.array(values, dtype=float)[..., None])


def test_mat_inv_det_matches_numpy():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        m = m @ m.T + 4.0 * np.eye(4)  # well conditioned
        inv, det = mat_inv_det(_const_matrix(m.tolist()))
        np.testing.assert_allclose(inv.num, np.linalg.inv(m), rtol=1e-11, atol=1e-12)
        assert det.num == pytest.approx(np.linalg.det(m), rel=1e-11)


def test_mat_inv_det_pivots_on_zero_diagonal():
    m = [[0.0, 1.0], [1.0, 0.0]]  # needs the row swap; det = -1
    inv, det = mat_inv_det(_const_matrix(m))
    assert det.num == pytest.approx(-1.0)
    np.testing.assert_allclose(inv.num, np.array(m), atol=1e-15)


def test_mat_inv_det_rejects_singular():
    with pytest.raises(SingularMetricError):
        mat_inv_det(_const_matrix([[1.0, 1.0], [1.0, 1.0]]))


def _full_gauss_jordan(mat):
    """Gauss-Jordan on the whole of [mat | I] with partial pivoting, every
    entry updated at every step: the oracle for mat_inv_det."""
    k = len(mat)
    one, zero = mat[0][0].const(1.0), mat[0][0].const(0.0)
    aug = [list(row) + [one if i == j else zero for j in range(k)] for i, row in enumerate(mat)]
    det, sign = None, 1.0
    for col in range(k):
        pivot_row = max(range(col, k), key=lambda r: abs(aug[r][col].num))
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            sign = -sign
        pivot = aug[col][col]
        det = pivot if det is None else det * pivot
        inv_pivot = pivot.recip()
        aug[col] = [entry * inv_pivot for entry in aug[col]]
        for row in range(k):
            if row != col:
                factor = aug[row][col]
                aug[row] = [e - factor * ce for e, ce in zip(aug[row], aug[col])]
    return [row[k:] for row in aug], det * det.const(sign)


def _spd_jet_matrix(signature, seed):
    """A symmetric matrix of jets whose value part is positive definite and
    far from diagonal, so that elimination pivots, as rows of jets."""
    space = jet_space(*signature)
    rng = np.random.default_rng(seed)
    n = space.dim // 2
    a = rng.standard_normal((n, n))
    vals = a @ a.T + 0.5 * np.eye(n)
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            coeffs = 0.3 * rng.standard_normal(space.size)
            coeffs[0] = vals[i, j]
            mat[i][j] = mat[j][i] = Jet(space, coeffs)
    return mat


@pytest.mark.parametrize("signature", [(6, 5, 2), (8, 5, 2)])
def test_mat_inv_det_equals_the_full_elimination_bit_for_bit(signature):
    for seed in range(4):
        mat = _spd_jet_matrix(signature, seed)
        inv, det = mat_inv_det(stack([stack(row) for row in mat]))
        want_inv, want_det = _full_gauss_jordan(mat)
        np.testing.assert_array_equal(det.coeffs, want_det.coeffs)
        for got_row, want_row in zip(inv, want_inv):
            for got, want in zip(got_row, want_row):
                assert got.space is want.space
                np.testing.assert_array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("signature, most", [((6, 5, 2), 26), ((8, 5, 2), 63)])
def test_mat_inv_det_product_count(jet_products, signature, most):
    mat = stack([stack(row) for row in _spd_jet_matrix(signature, 0)])
    jet_products.count = 0
    mat_inv_det(mat)
    assert jet_products.count <= most


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_fundamental_tensor_is_singular(funk, monkeypatch, bad):
    p = _sample(funk, 3)
    ev = PointEvaluation(funk, p, order=2)
    ev.g.coeffs[1, 1, 0] += bad  # the value part of g_22; tensors take no item assignment
    with pytest.raises(SingularMetricError):
        ev.g_inv
    eval_f2 = metrics.eval_F2

    def spoiled(spec, xs, ys):
        f2 = eval_f2(spec, xs, ys)
        f2.coeffs[f2.space.degree_end[1]] = bad  # first of degree 2: y_n^2, a diagonal entry of g
        return f2

    monkeypatch.setattr(metrics, "eval_F2", spoiled)
    with pytest.raises(SingularMetricError):
        tensors.spray_values(funk, p)


def test_condition_guard_near_ball_boundary(funk):
    p = PhasePoint((0.9999985, 0.0, 0.0), (1.0, 0.0, 0.0))
    # both routes word the check alike
    message = re.escape(f"fundamental tensor is numerically singular at {p} (condition number ") + r".* > 1e\+10\)"
    with pytest.raises(SingularMetricError, match=message):
        PointEvaluation(funk, p, order=2).g_inv
    with pytest.raises(SingularMetricError, match=message):
        tensors.spray_values(funk, p)


def _custom(expression):
    return metrics.parse_metric(f"[metric]\ndimension = 3\nfamily = custom\nexpression = {expression}\n")


_G_POINT = PhasePoint((0.1, 0.2, 0.3), (0.5, 1.0, 0.0))


@pytest.mark.parametrize(
    "spec, point, name, run",
    [
        # |x|^2 = 1e400 in the sphere's conformal factor
        (
            metrics.catalog(3)["riemannian_round_sphere"], PhasePoint((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)), "F2",
            lambda spec, p: PointEvaluation(spec, p).F2,
        ),
        # F^2 fits, but differentiating its y1^2 coefficient 1e308 gives 2e308
        (_custom("normy2 + 1e308*y1^2"), _G_POINT, "g", lambda spec, p: PointEvaluation(spec, p).g),
        # g = 1e110 I is a float, det g = 1e330 is not
        (
            _custom("1e110*normy2"), PhasePoint((0.1, 0.2, 0.3), (1.0, 0.0, 0.0)), "g_inv_det",
            lambda spec, p: PointEvaluation(spec, p).det_g,
        ),
        (_custom("normy2 + 1e308*y1^2"), _G_POINT, "spray", tensors.spray_values),
        # every stage fits, but the squares in the norm of g do not
        (_custom("normy2*1e300"), None, "verify", lambda spec, p: verify.verify_metric(spec, 2, 0)),
    ],
    ids=["F2", "g", "det_g", "spray", "verify"],
)
def test_an_overflowing_det_g_is_a_domain_error_naming_it(spec, point, name, run):
    # each entry point raises on its own under numpy's default errstate;
    # verify names the point of its sample where it overflows, the first
    p = metrics.sample_points(spec, 2, 0)[0] if point is None else point
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"{name} leaves the float range at {p}: ")):
            run(spec, p)


# -- coefficient dtype ----------------------------------------------------------

# every stage of a PointEvaluation, as attribute names, and nabla2 of E
_STAGES = (
    "F2", "F", "g", "g_inv", "det_g", "h", "G", "N", "R_jac", "R_curv", "B", "E", "sigma", "tau", "S", "E_S",
    "I", "J", "I_hcov", "J_vder", "E_CL", "chi", "hamel",
)


@pytest.mark.parametrize("n", [3, 4])
def test_every_stage_seeded_in_long_double_stays_long_double(n):
    # numpy's same_kind casting rounds a long double silently when it is
    # written into a float64 array: a stage that did so would come out float64
    for spec in metrics.catalog(n).values():
        p = _sample(spec, seed=n)
        wide = PointEvaluation(spec, p, order=6, dtype=np.longdouble)
        narrow = PointEvaluation(spec, p, order=6)
        for name in _STAGES:
            got, want = getattr(wide, name), getattr(narrow, name)
            assert got.coeffs.dtype == np.longdouble, (spec.name, name)
            scale = max(1.0, float(np.abs(want.coeffs).max()))
            assert float(np.abs(got.coeffs - want.coeffs).max()) <= 1e-9 * scale, (spec.name, name)
        assert wide.nabla2(wide.E).coeffs.dtype == np.longdouble


# -- order bookkeeping ----------------------------------------------------------

def test_order_requirements(funk, origin_point):
    ev = PointEvaluation(funk, origin_point, order=2)
    assert ev.F.num == pytest.approx(1.0)
    with pytest.raises(OrderError):
        ev.N
    ev3 = PointEvaluation(funk, origin_point, order=3)
    _ = ev3.N
    with pytest.raises(OrderError):
        ev3.R_jac
    ev4 = PointEvaluation(funk, origin_point, order=4)
    _ = ev4.R_jac
    with pytest.raises(OrderError):
        ev4.B
    with pytest.raises(OrderError):
        ev4.packet()
    with pytest.raises(OrderError):
        PointEvaluation(funk, origin_point, order=4).packet()


def test_phase_point_is_immutable_and_coercing():
    p = PhasePoint(np.array([0.0, 1.0]), [2, 3])
    assert p.x == (0.0, 1.0)
    assert p.y == (2.0, 3.0)
    with pytest.raises(Exception):
        p.x = (1.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_phase_point_rejects_non_finite_coordinates(bad):
    with pytest.raises(DomainError):
        PhasePoint((0.0, bad, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        PhasePoint((0.0, 0.0, 0.0), (1.0, 0.0, bad))


def test_phase_point_rejects_unequal_lengths():
    with pytest.raises(DimensionError):
        PhasePoint((0.0, 0.1), (1.0, 0.0, 0.0))
    with pytest.raises(DimensionError):
        PhasePoint((), (1.0,))


# -- the order-2 spray route ----------------------------------------------------

SPRAY_METRICS = (
    "euclidean", "funk_ball_berwald", "riemannian_flat_skew", "riemannian_round_sphere",
    "ball4", "randers3", "written",
)


@pytest.mark.parametrize("name", SPRAY_METRICS)
def test_spray_values_match_the_jet_route(catalog3, randers, written, name):
    others = {"ball4": metrics.catalog(4)["funk_ball_berwald"], "randers3": randers, "written": written}
    spec = {**catalog3, **others}[name]
    for seed in range(6):
        p = _sample(spec, seed)
        want = PointEvaluation(spec, p, order=2).G.num
        got = tensors.spray_values(spec, p)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), (name, seed)


@pytest.mark.parametrize(
    "name, most", [("riemannian_round_sphere", 10), ("riemannian_flat_skew", 5), ("funk_ball_berwald", 22)]
)
def test_spray_values_product_count(catalog3, jet_products, name, most):
    p = _sample(catalog3[name], 1)
    jet_products.count = 0
    tensors.spray_values(catalog3[name], p)
    assert jet_products.count <= most


@pytest.mark.parametrize("n, products, pairs", [(3, 339, 124_929), (4, 797, 576_975)])
def test_low_degree_products_run_in_lower_tables(catalog3, jet_products, n, products, pairs):
    # the ball's order-6 packet: the quadratic forms and their products
    # inside F^2 multiply in lower-order tables (217 476 and 1 031 619
    # pairs when every product ran in its operands' space)
    spec = catalog3["funk_ball_berwald"] if n == 3 else metrics.catalog(4)["funk_ball_berwald"]
    PointEvaluation(spec, _sample(spec, 7), order=6).packet()
    measured = sum(count * len(jet_space(*sig)._mult_table()[0]) for sig, count in jet_products.by_space.items())
    assert (jet_products.count, measured) == (products, pairs)


NON_FINITE = {
    "nan x": ((float("nan"), 0.0, 0.0), (1.0, 0.0, 0.0)),
    "inf y": ((0.0, 0.0, 0.0), (float("inf"), 0.0, 0.0)),
    "nan y": ((0.0, 0.0, 0.0), (float("nan"), 1.0, 0.0)),
}
ENTRY_POINTS = {
    "compute_packet": lambda spec, x, y: PointEvaluation(spec, (x, y)).packet(),
    "spray_values": lambda spec, x, y: tensors.spray_values(spec, (x, y)),
    "f2_value": lambda spec, x, y: metrics.f2_value(spec, x, y),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("name", ["funk_ball_berwald", "riemannian_round_sphere"])
def test_non_finite_points_raise_domain_error(catalog3, name, case, entry):
    x, y = NON_FINITE[case]
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](catalog3[name], x, y)


# -- the x-degree cap ----------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
def test_stages_are_jet_arrays_in_one_space(n):
    spec = metrics.catalog(n)["funk_ball_berwald"]
    ev = PointEvaluation(spec, _sample(spec, 5), order=6)
    # each stage's documented shape
    shapes = dict.fromkeys(("g", "g_inv", "h", "N", "R_jac", "E", "E_S", "I_hcov", "J_vder", "E_CL", "hamel"), (n, n))
    shapes.update(dict.fromkeys(("G", "I", "J", "chi"), (n,)), R_curv=(n, n, n), B=(n, n, n, n))
    stages = {name: getattr(ev, name) for name in shapes}
    stages.update({"nabla2(g)": ev.nabla2(ev.g), "nabla2(E)": ev.nabla2(ev.E)})
    shapes.update({"nabla2(g)": (n, n), "nabla2(E)": (n, n)})
    for name, tensor in stages.items():
        assert isinstance(tensor, JetArray), name
        assert tensor.shape == shapes[name], name
        assert tensor.coeffs.shape == shapes[name] + (tensor.space.size,), name
        entries = list(tensor.flat)
        assert all(isinstance(entry, Jet) and entry.space is tensor.space for entry in entries), name
        values = tensor.num
        assert values.dtype == np.float64 and values.shape == shapes[name], name
        assert values.ravel().tolist() == [entry.num for entry in entries], name
        # one entry, indexed either way, is the jet at that index
        index = (0,) * len(shapes[name])
        assert np.array_equal(tensor[index].coeffs, entries[0].coeffs), name
        assert np.array_equal(functools.reduce(operator.getitem, index, tensor).coeffs, entries[0].coeffs), name


def _loop_stages(ev):
    """The index formulas of the tensors docstring as loops over entries
    that align the operands of every product and sum, reading the
    evaluation's own G, N, I and S: the stages, which align once, must
    reproduce these bit for bit."""
    n, N, I, S = ev.n, ev.N, ev.I, ev.S

    def aligned(op):
        def apply(a, b):
            space = a.space.meet(b.space)
            return op(a.to_space(space), b.to_space(space))

        return apply

    mul, add, sub = aligned(operator.mul), aligned(operator.add), aligned(operator.sub)

    def dot(a, b):
        return functools.reduce(add, map(mul, a, b))

    def D(f):
        return functools.reduce(add, [sub(mul(ev.ys[k], f.d(k)), mul(ev.G[k], f.d(n + k)) * 2.0) for k in range(n)])

    def hder(f, i):
        return functools.reduce(sub, [mul(N[j][i], f.d(n + j)) for j in range(n)], f.d(i))

    col = [[N[k][j] for k in range(n)] for j in range(n)]  # col[j] is N[:, j]
    Sy = [S.d(n + i) for i in range(n)]
    r = range(n)

    def nabla(T):
        return [[sub(sub(D(T[i][j]), dot([T[k][j] for k in r], col[i])), dot(T[i], col[j])) for j in r] for i in r]

    return {
        "R_jac": [[sub(sub(ev.G[i].d(j) * 2.0, D(N[i][j])), dot(N[i], col[j])) for j in r] for i in r],
        "J": [sub(D(I[i]), dot(I, col[i])) for i in r],
        "I_hcov": [
            [functools.reduce(sub, [mul(I[l], N[l][i].d(n + j)) for l in r], hder(I[j], i)) for j in r] for i in r
        ],
        "chi": [sub(D(Sy[i]), S.d(i)) * 0.5 for i in r],
        "hamel": [[sub(hder(Sy[j], i), hder(Sy[i], j)) for j in r] for i in r],
        "nabla2(g)": nabla(ev.g),
        "nabla2(E)": nabla(ev.E),
    }


@pytest.mark.parametrize("name", ["funk_ball_berwald", "riemannian_round_sphere"])
def test_stages_equal_per_product_alignment_bit_for_bit(catalog3, name):
    ev = PointEvaluation(catalog3[name], _sample(catalog3[name], 9), order=6)
    got = {"R_jac": ev.R_jac, "J": ev.J, "I_hcov": ev.I_hcov, "chi": ev.chi, "hamel": ev.hamel}
    got.update({"nabla2(g)": ev.nabla2(ev.g), "nabla2(E)": ev.nabla2(ev.E)})
    for stage, want in _loop_stages(ev).items():
        want = np.array(want, dtype=object)
        for g, w in zip(got[stage].flat, want.flat):
            assert g.space is w.space and np.array_equal(g.coeffs, w.coeffs), stage


CAP_METRICS = (
    "euclidean", "funk_ball_berwald", "riemannian_flat_skew", "riemannian_round_sphere", "ball4", "randers3",
)


def _same(a, b) -> bool:
    """Exact equality of packet fields: arrays bit for bit, tuples item by item."""
    if isinstance(a, tuple):
        return all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", CAP_METRICS)
def test_capped_evaluations_equal_uncapped_bit_for_bit(catalog3, randers, jet_products, name):
    spec = {**catalog3, "ball4": metrics.catalog(4)["funk_ball_berwald"], "randers3": randers}[name]
    p = _sample(spec, 7)
    capped = PointEvaluation(spec, p, order=6)
    full = PointEvaluation(spec, p, order=6, x_cap=None)
    assert capped.F2.space.x_cap == 2 and full.F2.space is jet_space(2 * spec.dimension, 6)
    got, want = capped.packet(), full.packet()
    for field in got.__dataclass_fields__:
        assert _same(getattr(got, field), getattr(want, field)), field
    for stage in ("chi", "hamel", "E_S", "E_CL"):
        assert np.array_equal(getattr(capped, stage).num, getattr(full, stage).num), stage
    for tensor in ("E", "g"):
        got_n = capped.nabla2(getattr(capped, tensor)).num
        assert np.array_equal(got_n, full.nabla2(getattr(full, tensor)).num), tensor

    # field values at cap 1
    names = integrals.field_ids(spec)
    uncapped = PointEvaluation(spec, p, order=integrals.field_order(spec, names), x_cap=None)
    jet_products.by_space.clear()
    values = integrals.evaluate_fields(spec, names, p)
    assert max(cap for _, _, cap in jet_products.by_space) == 1
    assert values == {field: integrals._lookup(spec, field).build(uncapped).num for field in names}


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape, values and signs of zero (long double padding aside)."""
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("name", CAP_METRICS)
def test_order_zero_tail_runs_on_values_with_the_jet_route_s_bits(catalog3, randers, jet_products, name, dtype):
    """A field value's EE, f_a and c_a are order-0 jets: they are formed on
    plain value arrays, with no jet product, and equal the jet route."""
    spec = {**catalog3, "ball4": metrics.catalog(4)["funk_ball_berwald"], "randers3": randers}[name]
    for seed in (3, 4):
        ev = PointEvaluation(spec, _sample(spec, seed), order=5, x_cap=1, dtype=dtype)
        EE = tensors.build_EE(*tensors._align(ev.F, ev.g_inv, ev.E))
        assert EE.space.order == 0
        want = {"power_traces": tensors._power_traces(EE), "charpoly": tensors._charpoly(EE)}
        jet_products.count = 0
        assert ev.EE.space is EE.space and _bitwise_equal(ev.EE.coeffs, EE.coeffs)
        for stage, jets in want.items():
            got = getattr(ev, stage)
            assert len(got) == len(jets) == spec.dimension - 1
            for g, w in zip(got, jets):
                assert g.space is w.space and _bitwise_equal(g.coeffs, w.coeffs), stage
        assert jet_products.count == 0


@pytest.mark.parametrize("n, calls", [(3, 117), (4, 336)])
def test_berwald_is_three_fiber_gradients_of_G(catalog3, monkeypatch, n, calls):
    spec = catalog3["funk_ball_berwald"] if n == 3 else metrics.catalog(4)["funk_ball_berwald"]
    ev = PointEvaluation(spec, _sample(spec, 2), order=5)
    G = ev.G  # built before counting
    count = 0
    d, array_d, partials = Jet.d, JetArray.d, JetArray.partials

    # one count per entry derivative formed, whether of a jet or of a tensor's entries
    def counted(jet, var):
        nonlocal count
        count += 1
        return d(jet, var)

    def counted_array(t, var):
        nonlocal count
        count += math.prod(t.shape)
        return array_d(t, var)

    def counted_partials(t, variables):
        nonlocal count
        count += math.prod(t.shape) * len(variables)
        return partials(t, variables)

    monkeypatch.setattr(Jet, "d", counted)
    monkeypatch.setattr(JetArray, "d", counted_array)
    monkeypatch.setattr(JetArray, "partials", counted_partials)
    B = ev.B
    assert count == calls
    monkeypatch.undo()
    # every entry is the chain d/dy^l d/dy^max(j,k) d/dy^min(j,k) G^i, bit for bit
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lo, hi = min(j, k), max(j, k)
                plane = G[i].d(n + lo).d(n + hi)
                assert [plane.d(n + l).num for l in range(n)] == [b.num for b in B[i][j][k]]
