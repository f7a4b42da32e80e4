"""Geodesic flow integration and first-integral drift measurement.

The geodesic equation in spray form is the first-order system

    dx/dt = y,      dy/dt = -2 G(x, y)

integrated with an embedded Dormand-Prince 5(4) pair, PI step-size
control and the FSAL optimization.  The integrator is hand-rolled rather
than delegated so the domain-guard contract is exact: a step whose stages
leave the metric's domain (non-finite coordinates included) is rejected
and retried smaller, and when the trajectory approaches the guard boundary
within :data:`EXIT_MARGIN` the final step is refined by bisection so every
emitted sample stays strictly inside the smooth region (near the boundary
the fundamental tensor's condition number blows up and field evaluations
turn to noise).

Drift of registered scalar fields is measured at output samples only,
never at internal stages, so the measurement is decoupled from step
control.  Relative drift uses denominator max(|initial|, 1e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import integrals, metrics
from .errors import FinslerError, StepFailure
from .metrics import PhasePoint
from .tensors import spray_values

__all__ = [
    "IntegrateSettings",
    "IntegratorStats",
    "Trajectory",
    "FieldDrift",
    "DriftReport",
    "geodesic_rhs",
    "integrate",
    "field_values",
    "drift",
    "phase_csv",
    "trajectory_csv",
]

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_A_NP = tuple(np.array(row) for row in _A)
_B5_NP = np.array(_B5)
_ERR_NP = np.array(_ERR)

# stop this far (in guard distance) before the domain boundary
EXIT_MARGIN = 2e-4
# step-size controller safety factor
SAFETY = 0.9
# attempted steps (accepted and rejected) before a run is a step failure
MAX_STEPS = 200_000
# a trajectory is thinned to at most this many samples, endpoints kept
MAX_SAMPLES = 400


@dataclass(frozen=True)
class IntegrateSettings:
    """The error tolerances of :func:`integrate`; the CLI's defaults too."""

    rtol: float = 1e-10
    atol: float = 1e-12


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejections: int
    nfev: int
    min_step: float


@dataclass(frozen=True)
class Trajectory:
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    status: str  # completed | domain_exit | step_failure
    stats: IntegratorStats

    def __len__(self):
        return len(self.ts)

    @property
    def samples(self):
        """Iterator of (t, x, y) rows."""
        return zip(self.ts, self.xs, self.ys)


@dataclass(frozen=True)
class FieldDrift:
    initial: float
    max_abs_dev: float
    max_rel_drift: float
    t_at_max: float


@dataclass(frozen=True)
class DriftReport:
    fields: dict[str, FieldDrift] = field(default_factory=dict)
    tol: float = 1e-6
    passed: bool = True


def geodesic_rhs(spec, state):
    """(dx/dt, dy/dt) = (y, -2 G(x, y))."""
    x, y = state
    G = spray_values(spec, PhasePoint(x, y))
    return np.array(y, dtype=float), -2.0 * G


def _rhs_flat(spec, t_state):
    n = len(t_state) // 2
    dx, dy = geodesic_rhs(spec, (t_state[:n], t_state[n:]))
    return np.concatenate([dx, dy])


def _initial_step(spec, state, f0, t_max, rtol, atol):
    sc = atol + rtol * np.abs(state)
    d0 = math.sqrt(float(np.mean((state / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, 0.1 * t_max)
    try:
        f1 = _rhs_flat(spec, state + h0 * f0)
    except FinslerError:
        return h0 * 0.1
    d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_max)


def _thin(indices_len: int, max_samples: int) -> np.ndarray:
    if indices_len <= max_samples:
        return np.arange(indices_len)
    idx = np.unique(np.round(np.linspace(0, indices_len - 1, max_samples)).astype(int))
    return idx


def _build_trajectory(ts, states, n, status, steps, rejections, nfev, min_step):
    ts = np.asarray(ts)
    states = np.asarray(states)
    keep = _thin(len(ts), MAX_SAMPLES)
    stats = IntegratorStats(steps=steps, rejections=rejections, nfev=nfev, min_step=min_step)
    return Trajectory(
        ts=ts[keep], xs=states[keep, :n], ys=states[keep, n:], status=status, stats=stats
    )


def integrate(spec, init, t_max: float, settings: IntegrateSettings | None = None) -> Trajectory:
    """Integrate the geodesic flow for t in [0, t_max] from ``init``, a
    :class:`~finslerkit.metrics.PhasePoint` or a pair ``(x0, y0)``."""
    settings = settings or IntegrateSettings()
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    if not (math.isfinite(settings.atol) and settings.atol > 0.0):
        raise ValueError(f"atol must be finite and positive, got {settings.atol!r}")
    if not (math.isfinite(settings.rtol) and settings.rtol >= 0.0):
        raise ValueError(f"rtol must be finite and non-negative, got {settings.rtol!r}")
    p0 = metrics.check_domain(spec, init)
    n = len(p0.x)

    state = np.concatenate([np.array(p0.x), np.array(p0.y)])
    elapsed = 0.0
    f_cur = _rhs_flat(spec, state)
    nfev = 1
    h = _initial_step(spec, state, f_cur, t_max, settings.rtol, settings.atol)
    steps = rejections = 0
    min_step = math.inf
    err_prev = 1.0

    ts = [0.0]
    states = [state.copy()]

    def guard(s):
        return metrics.guard_distance(spec, s[:n])

    def done(status):
        return _build_trajectory(ts, states, n, status, steps, rejections, nfev, min_step)

    def fail(message):
        raise StepFailure(message, trajectory=done("step_failure"))

    ks = np.empty((7, 2 * n))
    while t_max - elapsed > 1e-12 * t_max:
        if steps + rejections > MAX_STEPS:
            fail(f"exceeded {MAX_STEPS} steps at t = {elapsed:.6g}")
        h = min(h, t_max - elapsed)
        if h <= 1e-14 * max(1.0, elapsed):
            fail(f"step size underflow at t = {elapsed:.6g}")

        new_state, used = _dp_stages(spec, state, f_cur, h, ks)
        nfev += used
        if new_state is None:
            # a stage left the metric's domain: retry with a smaller step
            rejections += 1
            h *= 0.25
            continue
        err_vec = h * (ks.T @ _ERR_NP)
        sc = settings.atol + settings.rtol * np.maximum(np.abs(state), np.abs(new_state))
        err = math.sqrt(float(np.mean((err_vec / sc) ** 2)))

        if err <= 1.0:
            # PI controller (orders 5/4): exponents 0.7/5 and 0.4/5
            grow = SAFETY * max(err, 1e-10) ** -0.14 * err_prev**0.08
            err_prev = max(err, 1e-10)
            factor = min(5.0, max(0.2, grow))
            steps += 1
            min_step = min(min_step, h)

            if guard(new_state) <= EXIT_MARGIN:
                advance, state_exit, extra_nfev = _refine_exit(
                    spec, state, f_cur, elapsed, h, EXIT_MARGIN, guard
                )
                nfev += extra_nfev
                if advance > 0.0:
                    ts.append(elapsed + advance)
                    states.append(state_exit)
                return done("domain_exit")

            elapsed += h
            state = new_state
            f_cur = ks[6].copy()  # FSAL
            ts.append(elapsed)
            states.append(state.copy())
            h *= factor
        else:
            rejections += 1
            err_prev = 1.0
            h *= min(1.0, max(0.2, SAFETY * err**-0.2))
    return done("completed")


def _dp_stages(spec, state, f0, h, ks):
    """One raw DP5 step from ``state`` with ``f0`` its derivative (FSAL).

    Fills ``ks`` with the seven stage derivatives and returns the
    fifth-order state with the number of right-hand sides evaluated.  When
    a stage leaves the metric's domain (a :class:`FinslerError`, non-finite
    coordinates included) the state is ``None`` and the count covers the
    stages that did evaluate.
    """
    ks[0] = f0
    for i in range(1, 7):
        try:
            ks[i] = _rhs_flat(spec, state + h * (ks[:i].T @ _A_NP[i]))
        except FinslerError:
            return None, i - 1
    return state + h * (ks.T @ _B5_NP), 6


def _refine_exit(spec, state, f0, elapsed, h, margin, guard):
    """Bisect the final step so the last sample sits just inside the margin.

    Repeatedly halves the step, advancing whenever the half-step endpoint
    is still outside the margin zone.  The returned state satisfies
    guard > margin, i.e. is strictly inside the domain; the first value is
    the elapsed-time advance past the refinement's starting point.
    """
    nfev = 0
    advance = 0.0
    ks = np.empty((7, len(state)))
    for _ in range(80):
        if h < 1e-13 * max(1.0, elapsed + advance):
            break
        cand, used = _dp_stages(spec, state, f0, h, ks)
        nfev += used
        if cand is None:
            h *= 0.5
            continue
        if guard(cand) > margin:
            state, f0 = cand, ks[6].copy()
            advance += h
            if guard(state) <= margin * 1.0625:
                break
        else:
            h *= 0.5
    return advance, state, nfev


def field_values(spec, traj: Trajectory, fields) -> list[dict[str, float]]:
    """Values of the named fields at every trajectory sample, one shared
    pipeline evaluation per sample."""
    fields = list(fields)
    return [integrals.evaluate_fields(spec, fields, (x, y)) for x, y in zip(traj.xs, traj.ys)]


def drift(spec, traj: Trajectory, fields, tol: float = 1e-6, values=None) -> DriftReport:
    """Drift of fields over the samples; ``values`` (from :func:`field_values`)
    is evaluated here when not given."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    fields = list(fields)
    if values is None:
        values = field_values(spec, traj, fields)
    report_fields = {}
    passed = True
    for name in fields:
        initial = values[0][name]
        denom = max(abs(initial), 1e-8)
        max_abs = 0.0
        t_at = traj.ts[0]
        for t, vals in zip(traj.ts, values):
            dev = abs(vals[name] - initial)
            if dev > max_abs:
                max_abs = dev
                t_at = t
        rel = max_abs / denom
        report_fields[name] = FieldDrift(
            initial=initial, max_abs_dev=max_abs, max_rel_drift=rel, t_at_max=float(t_at)
        )
        passed = passed and rel <= tol
    return DriftReport(fields=report_fields, tol=tol, passed=passed)


def phase_csv(n: int, rows, before=(), after=()) -> str:
    """CSV text with the columns ``before``, x1..xn, y1..yn and ``after``,
    then one line per row of numbers, each to 17 significant digits."""
    header = [*before, *(f"x{i + 1}" for i in range(n)), *(f"y{i + 1}" for i in range(n)), *after]
    lines = [",".join(header), *(",".join(f"{v:.17g}" for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def trajectory_csv(spec, traj: Trajectory, fields=(), values=None) -> str:
    """CSV text: t, x, y and optional field columns at every sample;
    ``values`` (from :func:`field_values`) is evaluated here when not given."""
    fields = list(fields)
    if fields and values is None:
        values = field_values(spec, traj, fields)
    rows = ([t, *x, *y, *(values[k][name] for name in fields)] for k, (t, x, y) in enumerate(traj.samples))
    return phase_csv(traj.xs.shape[1], rows, before=["t"], after=fields)
