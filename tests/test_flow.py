"""Geodesic integrator against analytic solutions and a library integrator.

The ball metric's axis geodesic has the closed form x1(t) = t/(1+t),
y1(t) = 1/(1+t)^2 (unit speed forever, boundary reached only as t -> inf),
which pins down both the RHS assembly and the adaptive stepping.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from finslerkit import expr, flow, integrals, metrics
from finslerkit.errors import DomainError, SingularMetricError, StepFailure
from finslerkit.flow import IntegrateSettings, Trajectory, integrate
from finslerkit.tensors import PhasePoint


AXIS_INIT = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def _axis_x1(t):
    return t / (1.0 + t)


def test_rhs_at_ball_center(funk):
    dx, dy = flow.geodesic_rhs(funk, AXIS_INIT)
    np.testing.assert_allclose(dx, [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(dy, [-2.0, 0.0, 0.0], atol=1e-12)


def test_rhs_matches_sphere_closed_form(sphere):
    rng = np.random.default_rng(3)
    x, y = metrics.sample_phase_point(sphere, rng)
    _, dy = flow.geodesic_rhs(sphere, (x, y))
    grad_phi = -2.0 * x / (1.0 + x @ x)
    G = (grad_phi @ y) * y - 0.5 * (y @ y) * grad_phi
    np.testing.assert_allclose(dy, -2.0 * G, atol=1e-12)


def test_euclidean_geodesics_are_straight_lines(euclid):
    x0 = np.array([0.1, -0.2, 0.4])
    y0 = np.array([0.5, 1.0, -0.3])
    traj = integrate(euclid, (x0, y0), 5.0)
    assert traj.status == "completed"
    np.testing.assert_allclose(traj.xs[-1], x0 + 5.0 * y0, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(traj.ys, np.tile(y0, (len(traj), 1)), rtol=1e-9, atol=1e-10)
    assert traj.ts[0] == 0.0
    assert traj.ts[-1] == pytest.approx(5.0)


def test_axis_geodesic_matches_closed_form(funk):
    traj = integrate(funk, AXIS_INIT, 50.0)
    assert traj.status == "completed"
    for t, x, y in traj.samples:
        assert abs(x[0] - _axis_x1(t)) < 1e-8
        assert abs(y[0] - (1.0 - x[0]) ** 2) < 1e-8
        assert abs(x[1]) < 1e-12 and abs(x[2]) < 1e-12


def test_domain_exit_stops_inside_the_guard(funk):
    settings = IntegrateSettings()
    traj = integrate(funk, AXIS_INIT, 1e6, settings)
    assert traj.status == "domain_exit"
    assert traj.ts[-1] < 1e6
    final_guard = metrics.guard_distance(funk, traj.xs[-1])
    assert flow.EXIT_MARGIN < final_guard < 4.0 * flow.EXIT_MARGIN
    for _, x, y in traj.samples:
        metrics.check_domain(funk, (x, y))


def test_flow_is_reversible_in_time(funk):
    # The ball metric is not reversible, so its flow is run backwards as the
    # forward flow of the reverse metric F(x, -y): a geodesic c(t) of F is
    # c(T - t) for the reverse metric, whose spray is G(x, -y).
    reverse = metrics.parse_metric(
        "[metric]\nname = funk_reversed\ndimension = 3\nfamily = custom\n"
        "expression = (sqrt(normy2 - normx2*normy2 + dotxy^2) - dotxy)^4"
        " / ((1 - normx2)^4 * (normy2 - normx2*normy2 + dotxy^2))\n"
    )
    init = ((0.1, -0.2, 0.05), (0.6, 0.3, -0.2))
    x0, y0 = np.array(init[0]), np.array(init[1])
    assert metrics.f2_value(reverse, x0, y0) == pytest.approx(metrics.f2_value(funk, x0, -y0), rel=1e-14)
    settings = IntegrateSettings(rtol=1e-10, atol=1e-12)
    fwd = integrate(funk, init, 3.0, settings)
    assert fwd.status == "completed"
    back = integrate(reverse, (fwd.xs[-1], -fwd.ys[-1]), 3.0, settings)
    assert back.status == "completed"
    err = max(np.abs(back.xs[-1] - x0).max(), np.abs(back.ys[-1] + y0).max())
    assert err < 100 * settings.rtol


def test_error_scales_with_tolerance(funk):
    def endpoint_error(rtol):
        traj = integrate(funk, AXIS_INIT, 2.0, IntegrateSettings(rtol=rtol, atol=1e-14))
        return abs(traj.xs[-1][0] - _axis_x1(traj.ts[-1]))

    loose = endpoint_error(1e-6)
    tight = endpoint_error(1e-6 / 16.0)
    assert tight < loose
    assert loose / max(tight, 1e-17) > 4.0


def test_agrees_with_library_integrator(funk):
    init = ((0.15, 0.1, -0.2), (0.4, -0.7, 0.3))
    traj = integrate(funk, init, 2.0, IntegrateSettings(rtol=1e-10, atol=1e-12))
    sol = solve_ivp(
        lambda t, s: flow._rhs_flat(funk, s),
        (0.0, 2.0),
        np.concatenate([np.array(init[0]), np.array(init[1])]),
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
    )
    ours = np.concatenate([traj.xs[-1], traj.ys[-1]])
    np.testing.assert_allclose(ours, sol.y[:, -1], rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "metric, init, t_max",
    [
        ("funk_ball_berwald", ((0.24, 0.12, -0.15), (0.21, 0.9, 0.34)), 0.5),
        ("riemannian_round_sphere", ((1 / 3, 2 / 3, 2 / 3), (1.0, 0.5, -1.0)), 2.0),
    ],
    ids=["ball", "sphere"],
)
def test_agrees_with_the_library_dop853(metric, init, t_max):
    # the same pair at the same tolerances, with its dense output computed
    # at every step, as the library's is
    spec = metrics.catalog(3)[metric]
    settings = IntegrateSettings()
    traj = integrate(spec, init, t_max, settings)
    sol = solve_ivp(
        lambda t, s: flow._rhs_flat(spec, s),
        (0.0, t_max),
        np.concatenate([np.array(init[0]), np.array(init[1])]),
        method="DOP853",
        rtol=settings.rtol,
        atol=settings.atol,
        dense_output=True,
    )
    ours = np.concatenate([traj.xs[-1], traj.ys[-1]])
    np.testing.assert_allclose(ours, sol.y[:, -1], rtol=0, atol=1e-9)
    assert traj.stats.nfev <= 1.25 * sol.nfev


def test_dense_samples_lie_on_a_great_circle(sphere):
    # |x0| = 1 and y0 orthogonal to x0: a unit circle at speed |y0|
    x0, y0 = np.array([1 / 3, 2 / 3, 2 / 3]), np.array([1.0, 0.5, -1.0])
    traj = integrate(sphere, (x0, y0), 2.0)
    speed = np.linalg.norm(y0)
    phase = speed * traj.ts[:, None]
    assert len(traj) == 1 + flow.DENSE_SAMPLES * traj.stats.steps
    np.testing.assert_allclose(traj.xs, np.cos(phase) * x0 + np.sin(phase) * (y0 / speed), rtol=0, atol=1e-8)
    np.testing.assert_allclose(traj.ys, -np.sin(phase) * (speed * x0) + np.cos(phase) * y0, rtol=0, atol=1e-8)


def test_rejections_are_counted_by_cause(funk, sphere, monkeypatch):
    # a step that fails error control is not a domain rejection
    traj = integrate(sphere, ((0.3, 0.0, -0.2), (0.0, 1.0, 0.5)), 0.5)
    assert traj.stats.rejections >= 1 and traj.stats.domain_rejections == 0
    # a stage outside the domain is one
    spray = flow.spray_values
    calls = []

    def spray_leaving_once(spec, p):
        calls.append(p)
        if len(calls) == 4:
            raise DomainError("outside")
        return spray(spec, p)

    monkeypatch.setattr(flow, "spray_values", spray_leaving_once)
    traj = integrate(funk, AXIS_INIT, 1.0)
    assert traj.stats.rejections == traj.stats.domain_rejections == 1


def test_invalid_time_span_is_rejected(funk):
    for t_max in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_max"):
            integrate(funk, AXIS_INIT, t_max)
    for name, value in (("atol", 0.0), ("atol", float("nan")), ("rtol", float("inf")), ("rtol", -1e-9)):
        with pytest.raises(ValueError, match=name):
            integrate(funk, AXIS_INIT, 1.0, IntegrateSettings(**{name: value}))
    # a pure absolute tolerance stays valid
    assert integrate(funk, AXIS_INIT, 0.1, IntegrateSettings(rtol=0.0)).status == "completed"


def test_invalid_drift_tolerance_is_rejected(funk, monkeypatch):
    monkeypatch.setattr(flow, "MAX_SAMPLES", 5)
    traj = integrate(funk, AXIS_INIT, 0.5)
    values = flow.field_values(funk, traj, ["F"])
    for tol in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="tol"):
            flow.drift(traj, values, tol=tol)
    # a zero tolerance stays valid: it passes exactly the drift-free fields
    report = flow.drift(traj, values, tol=0.0)
    assert report.tol == 0.0 and report.passed == (report.fields["F"].max_abs_dev == 0.0)


def test_step_budget_failure_carries_partial_trajectory(funk, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    with pytest.raises(StepFailure) as err:
        integrate(funk, AXIS_INIT, 10.0)
    traj = err.value.trajectory
    assert isinstance(traj, Trajectory)
    assert traj.status == "step_failure"
    assert len(traj) >= 1
    assert traj.ts[-1] < 10.0


def test_energy_and_integrals_hold_on_short_runs(funk):
    init = ((0.05, 0.1, -0.1), (0.8, -0.2, 0.4))
    traj = integrate(funk, init, 10.0)
    report = flow.drift(traj, flow.field_values(funk, traj, ["F", "f1", "c2"]), tol=1e-6)
    assert report.passed
    assert report.fields["F"].max_rel_drift < 1e-8
    assert report.fields["f1"].max_rel_drift < 1e-6
    assert report.fields["F"].initial == pytest.approx(
        np.sqrt(metrics.f2_value(funk, init[0], init[1]))
    )


def test_drift_report_flags_violations(funk):
    traj = integrate(funk, AXIS_INIT, 1.0)
    strict = flow.drift(traj, flow.field_values(funk, traj, ["F"]), tol=1e-18)
    assert not strict.passed
    assert strict.fields["F"].max_rel_drift > 1e-18
    assert strict.tol == 1e-18


def test_sample_thinning_keeps_endpoints(euclid, monkeypatch):
    monkeypatch.setattr(flow, "MAX_SAMPLES", 40)
    traj = integrate(euclid, ((0.0, 0.0, 0.0), (1.0, 0.5, 0.2)), 20.0)
    assert len(traj) <= 40
    assert traj.ts[0] == 0.0
    assert traj.ts[-1] == pytest.approx(20.0)
    assert np.all(np.diff(traj.ts) > 0)


def test_trajectory_csv_round_trips(funk, monkeypatch):
    monkeypatch.setattr(flow, "MAX_SAMPLES", 20)
    traj = integrate(funk, AXIS_INIT, 1.0)
    text = flow.trajectory_csv(traj, flow.field_values(funk, traj, ["f1", "c2"]))
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,y1,y2,y3,f1,c2"
    assert len(lines) == len(traj) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == [0.0, 0.0, 0.0]
    assert first[7] == pytest.approx(8.0, rel=1e-12)
    # 17 significant digits: values survive text round trip bit-exactly
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == traj.xs[-1][0]


def test_integrator_stats_are_populated(funk):
    traj = integrate(funk, AXIS_INIT, 5.0)
    assert traj.stats.steps > 0
    assert traj.stats.nfev >= 6 * traj.stats.steps
    assert traj.stats.min_step > 0
    assert traj.stats.rejections >= 0


def test_field_values_are_one_column_per_field(funk, monkeypatch):
    monkeypatch.setattr(flow, "MAX_SAMPLES", 20)
    traj = integrate(funk, AXIS_INIT, 1.0)
    fields = ["F", "f1", "c2", "s_cl"]
    values = flow.field_values(funk, traj, fields)
    assert list(values) == fields
    for name in fields:
        assert values[name].dtype == np.float64 and values[name].shape == (len(traj),)
    for k, (x, y) in enumerate(zip(traj.xs, traj.ys)):
        sample = integrals.evaluate_fields(funk, fields, (x, y), np.longdouble)
        assert [values[name][k] for name in fields] == [sample[name] for name in fields]


def _synthetic_trajectory(size):
    ts = np.linspace(0.0, 1.0, size)
    xs = np.zeros((size, 3))
    return Trajectory(ts, xs, xs + 1.0, "completed", flow.IntegratorStats(1, 0, 0, 12, 1.0))


def test_drift_reads_its_columns():
    traj = _synthetic_trajectory(5)
    values = {
        # the largest deviation, 2, is reached at samples 1 and 3: the first is reported
        "tied": np.array([1.0, 3.0, 0.5, -1.0, 1.0]),
        # an initial 0 divides by the 1e-8 floor
        "zero": np.array([0.0, 1e-12, -3e-12, 0.0, 2e-12]),
        # a relative drift equal to the tolerance passes
        "at_tol": np.array([4.0, 4.0, 6.0, 4.0, 2.0]),
    }
    report = flow.drift(traj, values, tol=0.5)
    tied, zero, at_tol = (report.fields[name] for name in values)
    assert (tied.initial, tied.max_abs_dev, tied.t_at_max) == (1.0, 2.0, 0.25)
    assert tied.max_rel_drift == 2.0
    assert zero.max_abs_dev == 3e-12 and zero.max_rel_drift == 3e-12 / 1e-8 and zero.t_at_max == 0.5
    assert at_tol.max_rel_drift == 0.5 and at_tol.t_at_max == 0.5
    assert not report.passed  # tied reads 2
    assert flow.drift(traj, {"at_tol": values["at_tol"]}, tol=0.5).passed
    assert not flow.drift(traj, {"at_tol": values["at_tol"]}, tol=np.nextafter(0.5, 0.0)).passed


def test_drift_equals_a_loop_over_the_samples():
    rng = np.random.default_rng(4)
    traj = _synthetic_trajectory(60)
    column = 3.0 + rng.normal(scale=1e-9, size=60)
    column[[17, 41]] = 3.0 + 5e-9  # a tie
    got = flow.drift(traj, {"u": column}).fields["u"]
    initial, max_abs, t_at = float(column[0]), 0.0, traj.ts[0]
    for t, v in zip(traj.ts, column):
        if abs(float(v) - initial) > max_abs:
            max_abs, t_at = abs(float(v) - initial), t
    assert (got.initial, got.max_abs_dev, got.t_at_max) == (initial, max_abs, t_at)
    assert got.max_rel_drift == max_abs / abs(initial)


def test_non_finite_stage_is_a_rejected_step(funk, monkeypatch):
    spray = flow.spray_values
    calls = []

    def spray_with_one_nan(spec, p):
        calls.append(p)
        G = spray(spec, p)
        return G * np.nan if len(calls) == 5 else G  # the third stage of the first step

    rhs = flow.geodesic_rhs
    states, refused = [], []

    def recorded_rhs(spec, state):
        states.append(np.concatenate(state))
        try:
            return rhs(spec, state)
        except DomainError:
            refused.append(len(states) - 1)
            raise

    monkeypatch.setattr(flow, "spray_values", spray_with_one_nan)
    monkeypatch.setattr(flow, "geodesic_rhs", recorded_rhs)
    traj = integrate(funk, AXIS_INIT, 1.0)
    assert traj.status == "completed"
    assert traj.stats.rejections == 1
    assert abs(traj.xs[-1][0] - _axis_x1(traj.ts[-1])) < 1e-8
    # the next stage's point carried the NaN, and the phase point's domain
    # contract refused it before any spray was computed there
    assert np.isnan(states[5]).any()
    assert refused == [5]
    assert not any(np.isnan(p.x + p.y).any() for p in calls)


# -- batched field values ----------------------------------------------------------

def _per_sample(spec, traj, fields):
    """The watched fields evaluated one sample at a time."""
    rows = [integrals.evaluate_fields(spec, fields, (x, y), np.longdouble) for x, y in zip(traj.xs, traj.ys)]
    return {name: np.array([row[name] for row in rows]) for name in fields}


# (metric fixture, initial point, t_max, watched fields); each run spans
# several batches and ends in a partial one
BATCHED_RUNS = [
    ("funk", ((0.24, 0.12, -0.15), (0.21, 0.9, 0.34)), 0.5, "F,F2,one,f1,f2,c1,c2,s_cl,g1_paper,g2_paper"),
    ("ball4", ((0.1, -0.2, 0.15, 0.05), (0.7, 0.3, -0.5, 0.2)), 0.3, "f1,f2,f3,c3,s_cl"),
    ("sphere", ((1 / 3, 2 / 3, 2 / 3), (1.0, 0.5, -1.0)), 2.0, "F"),
    ("randers", ((0.1, -0.3, 0.2), (0.5, 1.0, -0.4)), 1.0, "f1,c2"),
]


@pytest.mark.parametrize("metric, init, t_max, watch", BATCHED_RUNS)
def test_batched_field_values_equal_each_sample_alone_bit_for_bit(request, metric, init, t_max, watch):
    spec = metrics.catalog(4)["funk_ball_berwald"] if metric == "ball4" else request.getfixturevalue(metric)
    traj = integrate(spec, init, t_max)
    assert len(traj) > 2 * flow.FIELD_BATCH and len(traj) % flow.FIELD_BATCH
    fields = watch.split(",")
    got, want = flow.field_values(spec, traj, fields), _per_sample(spec, traj, fields)
    for name in fields:
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name].view(np.int64), want[name].view(np.int64)), name


def test_field_values_batch_the_pipeline_but_not_f2(funk, monkeypatch):
    evaluations, f2_points = [], []
    evaluation, eval_F2 = flow.integrals.PointEvaluation, metrics.eval_F2

    def counted_evaluation(spec, point, *args, **kwargs):
        evaluations.append(len(point) if isinstance(point, list) else 1)
        return evaluation(spec, point, *args, **kwargs)

    def counted_F2(spec, xs, ys):
        f2_points.append(xs[0].coeffs.ndim)
        return eval_F2(spec, xs, ys)

    traj = integrate(funk, ((0.24, 0.12, -0.15), (0.21, 0.9, 0.34)), 0.5)
    assert len(traj) == 113
    monkeypatch.setattr(flow.integrals, "PointEvaluation", counted_evaluation)
    monkeypatch.setattr(metrics, "eval_F2", counted_F2)
    flow.field_values(funk, traj, ["F", "f1", "f2"])
    assert evaluations == [16] * 7 + [1]  # 8 batched evaluations: the last holds one sample
    assert f2_points == [1] * 113  # F^2 point by point, a single jet each


def _trajectory_with(points):
    """A trajectory through the given (x, y) samples."""
    xs, ys = (np.array(column, dtype=float) for column in zip(*points))
    return Trajectory(np.arange(len(points), dtype=float), xs, ys, "completed", flow.IntegratorStats(1, 0, 0, 12, 1.0))


_OVERFLOWING = metrics.MetricSpec(
    # F^2 = |y|^2 (1 + (1e300 x1)^17): (1e300)^17 leaves even long double's range
    name="overflowing", dimension=3, family="custom",
    expression=expr.parse_expression("normy2*(1 + (1e300*x1)^17)"),
)


@pytest.mark.parametrize(
    "spec, bad, error, message",
    [
        ("funk", ((0.9999995, 0.0, 0.0), (0.0, 1.0, 0.0)), DomainError, "|x| = 0.9999995 outside the ball guard"),
        # inside the guard, with cond(g) beyond COND_LIMIT
        ("funk", ((0.999998, 0.0, 0.0), (0.3, 1.0, 0.0)), SingularMetricError,
         "fundamental tensor is numerically singular at PhasePoint(x=(0.999998, 0.0, 0.0)"),
        (_OVERFLOWING, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), DomainError,
         "F2 leaves the float range at PhasePoint(x=(1.0, 0.0, 0.0), y=(0.0, 1.0, 0.0)): overflow"),
    ],
)
def test_a_failing_sample_raises_its_own_error_from_a_batch(request, spec, bad, error, message):
    # the fifth of eleven samples fails: the batch is evaluated again one
    # sample at a time, and raises what the loop over the samples raises
    spec = request.getfixturevalue(spec) if isinstance(spec, str) else spec
    good = [((1e-301 * k, 0.1 * k, 0.0), (1.0, 0.5, -0.2 * k)) for k in range(1, 8)]
    traj = _trajectory_with(good[:4] + [bad] + good[4:])
    fields = ["F", "f1", "c2", "s_cl"]
    with pytest.raises(error) as alone:
        _per_sample(spec, traj, fields)
    with pytest.raises(error) as batched:
        flow.field_values(spec, traj, fields)
    assert type(batched.value) is type(alone.value) and str(batched.value) == str(alone.value)
    assert str(alone.value).startswith(message)
