"""Geodesic flow integration and first-integral drift measurement.

The geodesic equation in spray form is the first-order system

    dx/dt = y,      dy/dt = -2 G(x, y)

integrated with the Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., 1993, II.5
and II.10): twelve right-hand sides a step, the last of them the next
step's first (first same as last), step-size control on the pair's
combined 5th- and 3rd-order error estimate, and its 7th-order dense
output, which costs three more per accepted step.  The integrator is hand-rolled rather than delegated
so the domain-guard contract is exact: a step whose stages leave the
metric's domain (non-finite coordinates included) is rejected and retried
smaller, and when an accepted step ends within :data:`EXIT_MARGIN` of the
guard boundary, the last sample is found by bisection on that step's dense
output, so every emitted sample stays strictly inside the smooth region
(near the boundary the fundamental tensor's condition number blows up and
field evaluations turn to noise).

Each accepted step emits :data:`DENSE_SAMPLES` evenly spaced samples from
its dense output, the last being the step's own end point; a trajectory
is then thinned to at most :data:`MAX_SAMPLES`.  Drift of registered
scalar fields is measured at those samples only, never at internal
stages, so the measurement is decoupled from step control.  The fields
are evaluated once per sample by :func:`field_values`, whose columns
:func:`drift` and :func:`trajectory_csv` read, and in long double: in
float64, the roundoff of the mean Berwald tensor near the ball's boundary
is as large as the default drift tolerance :data:`DRIFT_TOL`.  Where ``np.longdouble``
is float64 (MSVC, Apple silicon), it still is.  The samples go through
the pipeline :data:`FIELD_BATCH` at a time, as one batched
:class:`~finslerkit.tensors.PointEvaluation`; each value has the bits of
its sample evaluated alone.  Relative drift uses denominator
max(|initial|, 1e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _rows(rows: dict[int, dict[int, float]], size: int = 16) -> np.ndarray:
    """A matrix with the given nonzero entries, ``{row: {column: value}}``."""
    out = np.zeros((max(rows) + 1, size))
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


# The DOP853 tableau, transcribed from scipy/integrate/_ivp/dop853_coefficients.py.
# Stage i evaluates at state + h * (_A[i, :i] . k[:i]).  Row 12 holds the
# 8th-order weights, so stage 12 is the derivative at the new state (first
# same as last); stages 13 to 15 serve the dense output only.
_A = _rows({
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
})
_B = _A[12, :12]
# the 5th-order error weights, and the 3rd-order ones as the 8th-order
# weights less the 3rd-order solution's (over stages 0 to 12)
_E5 = _rows({0: {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}}, 13)[0]
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512, 0.733846688281611857341361741547, 0.220588235294117647058823529412e-1
)
# the dense output's coefficients of degree 4 to 7, over stages 0 to 15
_D = _rows({
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
})

# stop this far (in guard distance) before the domain boundary
EXIT_MARGIN = 2e-4
# step-size controller: safety factor and the bounds of one step's change
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# attempted steps (accepted and rejected) before a run is a step failure
MAX_STEPS = 200_000
# evenly spaced samples of each accepted step's dense output, its end included
DENSE_SAMPLES = 16
# a trajectory is thinned to at most this many samples, endpoints kept
MAX_SAMPLES = 400
# the default bound on a watched field's relative drift (flow --tol)
DRIFT_TOL = 1e-6
# samples per batched field evaluation.  Measured in long double on the
# ball (order 5, x-cap 1): past F^2, which goes point by point, a batch of
# 16 costs a half to a fifth per sample of the same products and sqrt
# alone.  Larger batches gain little and cost memory: on the flow
# benchmark, 32, 64 and whole trajectories (up to 193 samples) ran 2-10 %
# faster than 16, and raised peak RSS from 41 to 43, 47 and 52 MB.
FIELD_BATCH = 16


@dataclass(frozen=True)
class IntegrateSettings:
    """The error tolerances of :func:`integrate`; the CLI's defaults too."""

    rtol: float = 1e-10
    atol: float = 1e-12


@dataclass(frozen=True)
class IntegratorStats:
    """Accepted steps; rejected ones, in total and those whose stages left
    the metric's domain (the rest failed error control); right-hand sides
    evaluated, dense-output stages included; the smallest accepted step."""

    steps: int
    rejections: int
    domain_rejections: int
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
    fields: dict[str, FieldDrift]
    tol: float
    passed: bool


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
    """A first step size (Hairer, Norsett & Wanner, II.4) and the number of
    right-hand sides it evaluated."""
    sc = atol + rtol * np.abs(state)
    d0 = math.sqrt(float(np.mean((state / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, 0.1 * t_max)
    try:
        f1 = _rhs_flat(spec, state + h0 * f0)
    except FinslerError:
        return h0 * 0.1, 0
    d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t_max), 1


def _stages(spec, state, h, ks, first: int, last: int) -> tuple[int, bool]:
    """Fill ``ks[first:last]`` with the stage derivatives of a step h from
    ``state``, the rows before ``first`` being filled already.

    Returns how many right-hand sides evaluated and whether all did: a
    stage that leaves the metric's domain (a :class:`FinslerError`,
    non-finite coordinates included) ends the step, uncounted.
    """
    for i in range(first, last):
        try:
            ks[i] = _rhs_flat(spec, state + h * (ks[:i].T @ _A[i, :i]))
        except FinslerError:
            return i - first, False
    return last - first, True


def _error_norm(ks, h, scale) -> float:
    """The pair's scaled error estimate: the 5th-order one, damped where
    the 3rd-order one is much smaller (Hairer, Norsett & Wanner, II.10)."""
    err5 = (ks[:13].T @ _E5) / scale
    err3 = (ks[:13].T @ _E3) / scale
    e5, e3 = float(err5 @ err5), float(err3 @ err3)
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale))


def _dense_output(state, new_state, h, ks):
    """The step's interpolant: the state at a fraction ``x`` of it (an
    array), as rows, exact at both ends up to rounding."""
    delta = new_state - state
    coeffs = [delta, h * ks[0] - delta, 2.0 * delta - h * (ks[12] + ks[0]), *(h * (_D @ ks))]

    def at(x):
        x = np.asarray(x, dtype=float)[:, None]
        out = np.zeros((len(x), len(state)))
        # x (c0 + (1-x) (c1 + x (c2 + (1-x) (c3 + ...))))
        for i, c in enumerate(reversed(coeffs)):
            out += c
            out *= x if i % 2 == 0 else 1.0 - x
        return state + out

    return at


def _thin(indices_len: int, max_samples: int) -> np.ndarray:
    if indices_len <= max_samples:
        return np.arange(indices_len)
    idx = np.unique(np.round(np.linspace(0, indices_len - 1, max_samples)).astype(int))
    return idx


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
    ks = np.empty((len(_A), 2 * n))
    ks[0] = _rhs_flat(spec, state)
    h, nfev = _initial_step(spec, state, ks[0], t_max, settings.rtol, settings.atol)
    nfev += 1
    steps = rejections = domain_rejections = 0
    min_step = math.inf
    retried = False  # the step under way was rejected before: do not grow h

    ts = [np.zeros(1)]
    states = [state[None, :]]
    fractions = np.arange(1, DENSE_SAMPLES + 1) / DENSE_SAMPLES

    def guard(s):
        return metrics.guard_distance(spec, s[:n])

    def done(status):
        t, s = np.concatenate(ts), np.concatenate(states)
        keep = _thin(len(t), MAX_SAMPLES)
        stats = IntegratorStats(steps, rejections, domain_rejections, nfev, min_step)
        return Trajectory(ts=t[keep], xs=s[keep, :n], ys=s[keep, n:], status=status, stats=stats)

    def fail(message):
        raise StepFailure(message, trajectory=done("step_failure"))

    while t_max - elapsed > 1e-12 * t_max:
        if steps + rejections > MAX_STEPS:
            fail(f"exceeded {MAX_STEPS} steps at t = {elapsed:.6g}")
        h = min(h, t_max - elapsed)
        if h <= 1e-14 * max(1.0, elapsed):
            fail(f"step size underflow at t = {elapsed:.6g}")

        used, inside = _stages(spec, state, h, ks, 1, 13)
        nfev += used
        if inside:
            new_state = state + h * (ks[:12].T @ _B)
            scale = settings.atol + settings.rtol * np.maximum(np.abs(state), np.abs(new_state))
            err = _error_norm(ks, h, scale)
            if err <= 1.0:
                # the dense output's stages, for an accepted step only
                used, inside = _stages(spec, state, h, ks, 13, len(_A))
                nfev += used
        if not inside:
            # a stage left the metric's domain: retry with a smaller step
            rejections += 1
            domain_rejections += 1
            retried = True
            h *= 0.25
            continue
        if not err <= 1.0:  # NaN fails too
            rejections += 1
            retried = True
            h *= max(MIN_FACTOR, SAFETY * err ** -0.125)
            continue

        steps += 1
        min_step = min(min_step, h)
        dense = _dense_output(state, new_state, h, ks)
        if guard(new_state) <= EXIT_MARGIN:
            part = _refine_exit(dense, guard)
            if part > 0.0:
                ts.append(elapsed + h * part * fractions)
                states.append(dense(part * fractions))
            return done("domain_exit")

        ts.append(elapsed + h * fractions)
        states.append(np.vstack([dense(fractions[:-1]), new_state]))
        elapsed += h
        state = new_state
        ks[0] = ks[12]  # first same as last
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**-0.125)
        h *= min(1.0, factor) if retried else factor
        retried = False
    return done("completed")


def _refine_exit(dense, guard) -> float:
    """How far into the final step, whose end lies within the margin, the
    last sample goes, as a fraction of the step: bisection on the step's
    dense output keeps its point strictly outside the margin zone (guard >
    margin), and within 1/16 of the margin of it when the step allows."""
    lo, hi, at_lo = 0.0, 1.0, guard(dense([0.0])[0])
    while at_lo > EXIT_MARGIN * 1.0625 and hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        at_mid = guard(dense([mid])[0])
        if at_mid > EXIT_MARGIN:
            lo, at_lo = mid, at_mid
        else:
            hi = mid
    return lo


def field_values(spec, traj: Trajectory, fields) -> dict[str, np.ndarray]:
    """The named fields at every trajectory sample, one float64 column per
    field, from one shared pipeline evaluation per :data:`FIELD_BATCH`
    samples in long double (module docstring).  A batch that raises is
    evaluated again one sample at a time, so the first failing sample
    raises its own error.  :func:`drift` and :func:`trajectory_csv` read
    the columns."""
    fields = list(fields)
    points = [PhasePoint(x, y) for x, y in zip(traj.xs, traj.ys)]
    parts = []
    for start in range(0, len(points), FIELD_BATCH):
        batch = points[start : start + FIELD_BATCH]
        try:
            parts.append(integrals.evaluate_fields(spec, fields, batch, np.longdouble))
        except (FinslerError, ArithmeticError):
            rows = [integrals.evaluate_fields(spec, fields, p, np.longdouble) for p in batch]
            parts.append({name: [row[name] for row in rows] for name in fields})
    return {name: np.concatenate([part[name] for part in parts]).astype(np.float64) for name in fields}


def drift(traj: Trajectory, values: dict[str, np.ndarray], tol: float = DRIFT_TOL) -> DriftReport:
    """Drift of each column of ``values`` (from :func:`field_values`) over
    the samples: the largest deviation from the first sample, at the first
    sample that reaches it, relative to max(|initial|, 1e-8)."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    report_fields = {}
    for name, column in values.items():
        initial = float(column[0])
        dev = np.abs(column - initial)
        k = int(np.argmax(dev))
        max_abs = float(dev[k])
        report_fields[name] = FieldDrift(
            initial=initial,
            max_abs_dev=max_abs,
            max_rel_drift=max_abs / max(abs(initial), 1e-8),
            t_at_max=float(traj.ts[k]),
        )
    passed = all(d.max_rel_drift <= tol for d in report_fields.values())
    return DriftReport(fields=report_fields, tol=tol, passed=passed)


def phase_csv(n: int, rows, before=(), after=()) -> str:
    """CSV text with the columns ``before``, x1..xn, y1..yn and ``after``,
    then one line per row of numbers, each to 17 significant digits."""
    header = [*before, *(f"x{i + 1}" for i in range(n)), *(f"y{i + 1}" for i in range(n)), *after]
    lines = [",".join(header), *(",".join(f"{v:.17g}" for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory, values: dict[str, np.ndarray]) -> str:
    """CSV text: t, x, y and a column for each field of ``values`` (from
    :func:`field_values`) at every sample."""
    rows = np.column_stack((traj.ts, traj.xs, traj.ys, *values.values()))
    return phase_csv(traj.xs.shape[1], rows, before=["t"], after=list(values))
