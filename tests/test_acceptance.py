"""Acceptance suite: the nine numbered end-to-end claims this package exists
to satisfy, each with its stated tolerance.

Every test prints one verdict line (criterion 4 prints one per sub-check)
carrying the measured worst value and the tolerance it was held to; pytest's
-rA flag (set in pyproject) surfaces the lines for passing tests too.

Criterion 4 asserts four sub-checks.  Two of them fail with the closed forms
as printed (the first one is not constant along the axis geodesic and the
pair's Poisson bracket is not zero); the suite reports the measured values
and fails honestly rather than masking them.
"""

import time

import numpy as np
import pytest

from finslerkit import cli, expr, flow, fdcheck, integrals, metrics
from finslerkit.jets import seed_phase_point
from finslerkit.tensors import PhasePoint, PointEvaluation
from finslerkit.verify import SIGMA_TEST_EXPRESSION, _fd_index_sample

N_POINTS = 200
SEED = 0


def _packet_integrals(pkt):
    return integrals.first_integral_set(pkt.F, pkt.g, pkt.g_inv, pkt.E, np.array(pkt.point.y))


def _sample(spec, n_points=N_POINTS, seed=SEED):
    rng = np.random.default_rng(seed)
    return [metrics.sample_phase_point(spec, rng) for _ in range(n_points)]


def _norm(a):
    return float(np.linalg.norm(np.asarray(a).ravel()))


def _line(label, ok, detail):
    print(f"[{label}] {detail} ... {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def funk_points(funk):
    return _sample(funk)


@pytest.fixture(scope="module")
def axis_trajectory(funk):
    # (x, y) = (0, e1), default tolerances rtol 1e-10 / atol 1e-12,
    # integrated until the orbit leaves the certified domain
    t0 = time.perf_counter()
    traj = flow.integrate(funk, ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), t_max=1e6)
    elapsed = time.perf_counter() - t0
    assert traj.status == "domain_exit"
    return traj, elapsed


def test_c1_three_route_mean_berwald_agreement(funk, funk_points):
    tol = 1e-7
    t0 = time.perf_counter()
    worst = 0.0
    for x, y in funk_points:
        ev = PointEvaluation(funk, PhasePoint(x, y), order=5)
        routes = [ev.E.num, ev.E_S.num, ev.E_CL.num]
        for i in range(3):
            for j in range(i + 1, 3):
                denom = max(_norm(routes[i]), _norm(routes[j]), 1e-12)
                worst = max(worst, _norm(routes[i] - routes[j]) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed <= 60.0
    _line("C1", ok,
          f"three-route E agreement, 200 pts: worst pairwise rel {worst:.3e} "
          f"(tol {tol:.0e}), {elapsed:.1f}s (limit 60s)")
    assert worst <= tol
    assert elapsed <= 60.0


def test_c2_chi_nabla_E_hamel_vanish(funk, funk_points):
    tol_chi, tol_ne, tol_hamel = 1e-7, 1e-7, 1e-6
    n = funk.dimension
    w_chi = w_ne = w_hamel = 0.0
    for x, y in funk_points:
        ev = PointEvaluation(funk, PhasePoint(x, y), order=6)
        N = ev.N.num
        E = ev.E.num
        S_y = np.array([ev.dy(ev.S, i).num for i in range(n)])
        scale_chi = 1.0 + _norm(N) * _norm(S_y)
        w_chi = max(w_chi, _norm(ev.chi.num) / scale_chi)
        w_hamel = max(w_hamel, _norm(ev.hamel.num) / scale_chi)
        w_ne = max(w_ne, _norm(ev.nabla2(ev.E).num) / (1.0 + _norm(E) * _norm(N)))
    ok = w_chi <= tol_chi and w_ne <= tol_ne and w_hamel <= tol_hamel
    _line("C2", ok,
          f"chi {w_chi:.3e} (tol {tol_chi:.0e}), nabla_E {w_ne:.3e} (tol {tol_ne:.0e}), "
          f"hamel {w_hamel:.3e} (tol {tol_hamel:.0e}) at 200 pts")
    assert w_chi <= tol_chi
    assert w_ne <= tol_ne
    assert w_hamel <= tol_hamel


def test_c3_first_integrals_constant_along_geodesic(funk, axis_trajectory):
    tol = 1e-6
    traj, t_int = axis_trajectory
    t0 = time.perf_counter()
    rep = flow.drift(funk, traj, ["f1", "f2", "c1", "c2"], tol=tol)
    elapsed = t_int + (time.perf_counter() - t0)
    f1_0 = rep.fields["f1"].initial
    f2_0 = rep.fields["f2"].initial
    worst = max(d.max_rel_drift for d in rep.fields.values())
    ok = (
        abs(f1_0 - 8.0) <= 1e-9
        and abs(f2_0 - 32.0) <= 1e-9
        and worst <= tol
        and elapsed <= 30.0
    )
    _line("C3", ok,
          f"axis geodesic to domain exit (t_final {traj.ts[-1]:.1f}): f1 starts "
          f"{f1_0:.12g}, f2 starts {f2_0:.12g}, worst rel drift {worst:.3e} "
          f"(tol {tol:.0e}), {elapsed:.1f}s (limit 30s)")
    assert abs(f1_0 - 8.0) <= 1e-9
    assert abs(f2_0 - 32.0) <= 1e-9
    assert rep.passed and worst <= tol
    assert elapsed <= 30.0


# The watched fields run in long double (flow.field_values).  Where it is
# float64 these two companions do not apply, and C3 itself reads about
# 1.1e-6 (see the README).
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant, reason="np.longdouble is float64 here"
)


@needs_long_double
def test_c3_drift_is_far_inside_its_tolerance(funk, axis_trajectory):
    # C3's drift is roundoff in E near the boundary; in long double it is
    # far below C3's tolerance
    traj, _ = axis_trajectory
    rep = flow.drift(funk, traj, ["f1", "f2", "c1", "c2"], tol=1e-9)
    worst = max(d.max_rel_drift for d in rep.fields.values())
    _line("C3'", rep.passed, f"long-double fields at {len(traj)} samples: worst rel drift {worst:.3e} (tol 1e-09)")
    assert len(traj) == flow.MAX_SAMPLES
    assert rep.passed


@needs_long_double
def test_ball_E_at_c3_last_sample_matches_a_50_digit_reference(funk, axis_trajectory):
    # The ball is projectively flat, G = P y, so E = ((n+1)/2) d^2P/dy dy
    # from the closed-form projective factor, here to 50 digits.  At C3's
    # last sample 1 - |x| is about 2e-4 and float64 loses six digits of E.
    mpmath = pytest.importorskip("mpmath")
    traj, _ = axis_trajectory
    x, y = traj.xs[-1], traj.ys[-1]
    n = len(x)
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        nx2 = mpmath.fsum(v * v for v in xs)

        def P(*ys):
            ny2 = mpmath.fsum(v * v for v in ys)
            d = mpmath.fsum(a * b for a, b in zip(xs, ys))
            return (mpmath.sqrt(ny2 - (nx2 * ny2 - d * d)) + d) / (1 - nx2)

        ys = [mpmath.mpf(float(v)) for v in y]
        want = np.array([
            [float((n + 1) / 2 * mpmath.diff(P, ys, tuple(int(k in (i, j)) + int(k == i == j) for k in range(n))))
             for j in range(n)]
            for i in range(n)
        ])

    def error(dtype):
        got = PointEvaluation(funk, PhasePoint(x, y), order=5, x_cap=1, dtype=dtype).E.num.astype(float)
        return float(np.abs(got - want).max() / np.abs(want).max())

    wide, narrow = error(np.longdouble), error(np.float64)
    _line("C3 E", wide <= 1e-9,
          f"E at 1 - |x| = {1 - np.linalg.norm(x):.2e} vs 50 digits: long double {wide:.2e}, "
          f"float64 {narrow:.2e} (tol 1e-09)")
    assert wide <= 1e-9
    assert narrow > 1e-9  # the reason the fields run in long double


def test_c4_printed_closed_forms(funk, axis_trajectory):
    tol_center, tol_drift, tol_bracket = 1e-12, 1e-6, 1e-6
    traj, _ = axis_trajectory
    failures = []

    # (a) values at x = 0 are y-independent constants
    worst_center = 0.0
    for y in ((1.0, 0.0, 0.0), (0.4, -0.3, 0.8)):
        g1, g2 = integrals.paper_closed_forms(PhasePoint((0.0, 0.0, 0.0), y))
        worst_center = max(worst_center, abs(g1 + 0.25), abs(g2 - 1.0))
    if not _line("C4a", worst_center <= tol_center,
                 f"center values (-1/4, 1): worst dev {worst_center:.3e} "
                 f"(tol {tol_center:.0e})"):
        failures.append("center values")

    # (b) constancy along the criterion-3 trajectory, field by field
    rep = flow.drift(funk, traj, ["g1_paper", "g2_paper"], tol=tol_drift)
    for name in ("g1_paper", "g2_paper"):
        d = rep.fields[name]
        ok = d.max_rel_drift <= tol_drift
        if not _line(f"C4b:{name}", ok,
                     f"drift along axis geodesic {d.max_rel_drift:.3e} "
                     f"(tol {tol_drift:.0e}, worst at t={d.t_at_max:.3f})"):
            failures.append(f"{name} drift")

    # (c) Poisson bracket of the pair at 50 seeded points
    worst_br = 0.0
    for x, y in _sample(funk, 50):
        val, scale = integrals.poisson_bracket_scaled(funk, "g1_paper", "g2_paper",
                                                      PhasePoint(x, y))
        worst_br = max(worst_br, abs(val) / scale)
    if not _line("C4c", worst_br <= tol_bracket,
                 f"|{{g1_paper, g2_paper}}| scaled, 50 pts: worst {worst_br:.3e} "
                 f"(tol {tol_bracket:.0e})"):
        failures.append("pair bracket")

    # (d) record the comparison with the charpoly coefficients; no assertion
    for x, y in [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), _sample(funk, 1, seed=7)[0]]:
        p = PhasePoint(x, y)
        g1, g2 = integrals.paper_closed_forms(p)
        fis = _packet_integrals(PointEvaluation(funk, p, order=5).packet())
        print(f"[C4 record] x={np.round(p.x, 4).tolist()}: "
              f"(g1_paper, g2_paper) = ({g1:.6g}, {g2:.6g}); "
              f"(c1, c2) = ({fis.c[0]:.6g}, {fis.c[1]:.6g})")

    _line("C4", not failures,
          f"printed closed forms: {len(failures)} of 4 asserted sub-checks failed"
          if failures else "printed closed forms: all sub-checks hold")
    assert not failures, f"sub-checks failed: {', '.join(failures)}"


def test_c5_structural_identities_per_metric(catalog3):
    tol_ey, tol_gyy, tol_newton, tol_bord, tol_scale = 1e-9, 1e-10, 1e-9, 1e-8, 1e-9
    w = dict.fromkeys(("Ey", "gyy", "newton", "bordered", "rescale"), 0.0)
    for spec in catalog3.values():
        for x, y in _sample(spec):
            p = PhasePoint(x, y)
            pkt = PointEvaluation(spec, p, order=5).packet()
            fis = _packet_integrals(pkt)
            yv = np.asarray(y)
            w["Ey"] = max(w["Ey"], _norm(pkt.E @ yv) / max(1.0, _norm(pkt.E) * _norm(yv)))
            w["gyy"] = max(w["gyy"], abs(yv @ pkt.g @ yv - pkt.F**2) / max(1.0, pkt.F**2))
            w["newton"] = max(w["newton"], fis.newton_residual)
            w["bordered"] = max(
                w["bordered"],
                abs(fis.bordered_value - fis.c[-1]) / max(1.0, abs(fis.c[-1])),
            )
            pkt2 = PointEvaluation(spec, PhasePoint(x, 2.0 * yv), order=5).packet()
            fis2 = _packet_integrals(pkt2)
            denom_f = max(1.0, float(np.abs(fis.f).max()))
            denom_c = max(1.0, float(np.abs(fis.c).max()))
            w["rescale"] = max(
                w["rescale"],
                float(np.abs(fis2.f - fis.f).max()) / denom_f,
                float(np.abs(fis2.c - fis.c).max()) / denom_c,
            )
    ok = (w["Ey"] <= tol_ey and w["gyy"] <= tol_gyy and w["newton"] <= tol_newton
          and w["bordered"] <= tol_bord and w["rescale"] <= tol_scale)
    _line("C5", ok,
          f"4 metrics x 200 pts: E.y {w['Ey']:.3e} (tol {tol_ey:.0e}), "
          f"g(y,y)-F2 {w['gyy']:.3e} (tol {tol_gyy:.0e}), "
          f"newton {w['newton']:.3e} (tol {tol_newton:.0e}), "
          f"bordered {w['bordered']:.3e} (tol {tol_bord:.0e}), "
          f"y->2y {w['rescale']:.3e} (tol {tol_scale:.0e})")
    assert w["Ey"] <= tol_ey
    assert w["gyy"] <= tol_gyy
    assert w["newton"] <= tol_newton
    assert w["bordered"] <= tol_bord
    assert w["rescale"] <= tol_scale


def test_c6_riemannian_degeneration_and_flat_curvature(catalog3, funk):
    tol_zero, tol_flag, tol_jac = 1e-10, 1e-10, 1e-8
    w_zero = 0.0
    w_flag = 0.0
    for name in ("euclidean", "riemannian_round_sphere"):
        spec = catalog3[name]
        for x, y in _sample(spec):
            ev = PointEvaluation(spec, PhasePoint(x, y), order=5)
            pkt = ev.packet()
            fis = _packet_integrals(pkt)
            w_zero = max(
                w_zero,
                float(np.abs(pkt.B).max()), float(np.abs(pkt.E).max()),
                float(np.abs(ev.I.num).max()), float(np.abs(ev.J.num).max()),
                float(np.abs(fis.f).max()), float(np.abs(fis.c).max()),
            )
            if name == "euclidean":
                flag = ev.flag
                w_flag = max(w_flag, abs(flag.kappa), flag.residual)
    w_jac = 0.0
    for x, y in _sample(funk):
        ev = PointEvaluation(funk, PhasePoint(x, y), order=4)
        w_jac = max(
            w_jac, _norm(ev.R_jac.num) / max(1.0, _norm(ev.N.num) ** 2)
        )
    ok = w_zero <= tol_zero and w_flag <= tol_flag and w_jac <= tol_jac
    _line("C6", ok,
          f"riemannian I,J,B,E,f,c {w_zero:.3e} (tol {tol_zero:.0e}); euclidean "
          f"flag {w_flag:.3e} (tol {tol_flag:.0e}); ball-family Jacobi "
          f"{w_jac:.3e} scaled (tol {tol_jac:.0e})")
    assert w_zero <= tol_zero
    assert w_flag <= tol_flag
    assert w_jac <= tol_jac


def test_c7_sigma_independence(catalog3):
    tol = 1e-8
    worst = 0.0
    sigma = expr.parse_expression(SIGMA_TEST_EXPRESSION)
    for spec in catalog3.values():
        for x, y in _sample(spec, 25):
            p = PhasePoint(x, y)
            ev_a = PointEvaluation(spec, p, order=5)
            ev_b = PointEvaluation(spec, p, order=5, sigma=sigma)
            E_a, E_b = ev_a.E.num, ev_b.E.num
            chi_a, chi_b = ev_a.chi.num, ev_b.chi.num
            worst = max(
                worst,
                _norm(E_a - E_b) / max(1.0, _norm(E_a)),
                _norm(chi_a - chi_b) / max(1.0, _norm(chi_a)),
            )
    ok = worst <= tol
    _line("C7", ok,
          f"E and chi under sigma = exp(2 phi(x)), 4 metrics x 25 pts: "
          f"worst rel change {worst:.3e} (tol {tol:.0e})")
    assert worst <= tol


def test_c8_jets_match_richardson_differences(catalog3):
    tol = 1e-5
    worst = 0.0
    for spec in catalog3.values():
        n = spec.dimension
        idxs = _fd_index_sample(n)
        for x, y in _sample(spec)[:2]:
            x = 0.5 * np.asarray(x)  # keep the FD stencils well inside the domain
            seeds = seed_phase_point(PhasePoint(x, y), 4)
            jet = metrics.eval_F2(spec, seeds[:n], seeds[n:])

            def f2_flat(c, spec=spec, n=n):
                return metrics.f2_value(spec, c[:n], c[n:])

            coords = list(x) + list(y)
            jet_vals = {m: jet.extract(m) for m in idxs}
            scale = max(abs(v) for v in jet_vals.values())
            for m in idxs:
                fd = fdcheck.fd_partial(f2_flat, coords, m)
                # values below the oracle's own roundoff resolution carry no
                # information either way and are skipped, not compared
                noise = fdcheck.noise_floor(max(scale, abs(jet.value)), coords, m)
                if max(abs(jet_vals[m]), abs(fd)) <= 50.0 * noise:
                    continue
                denom = max(abs(jet_vals[m]), abs(fd), 1e-8)
                worst = max(worst, abs(fd - jet_vals[m]) / denom)
    ok = worst <= tol
    _line("C8", ok,
          f"mixed partials of F2 to total order 4, all catalog metrics: "
          f"worst rel vs Richardson {worst:.3e} (tol {tol:.0e})")
    assert worst <= tol


def _stable_bytes(path):
    return b"\n".join(
        ln for ln in path.read_bytes().splitlines() if b'"generated_at"' not in ln
    )


def test_c9_reports_are_byte_deterministic(tmp_path):
    outs = {"verify": [], "inspect": []}
    for run in ("a", "b"):
        out = tmp_path / f"verify_{run}.json"
        rc = cli.main(["verify", "--metric", "funk_ball_berwald",
                       "--npoints", "20", "--seed", "11", "--out", str(out)])
        assert rc == 0
        outs["verify"].append(_stable_bytes(out))
        out = tmp_path / f"inspect_{run}.json"
        rc = cli.main(["inspect", "--metric", "funk_ball_berwald",
                       "--npoints", "3", "--seed", "11", "--out", str(out)])
        assert rc == 0
        outs["inspect"].append(_stable_bytes(out))
    ok = (outs["verify"][0] == outs["verify"][1]
          and outs["inspect"][0] == outs["inspect"][1])
    _line("C9", ok,
          "verify and inspect with a fixed seed are byte-identical across two "
          "runs (timestamp line excluded)")
    assert outs["verify"][0] == outs["verify"][1]
    assert outs["inspect"][0] == outs["inspect"][1]
