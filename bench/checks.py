"""Reference checks for the benchmark's outputs.

Nothing here imports finslerkit.  Every reference is either a closed form
computed with numpy (the spray, fundamental tensor, norm and flag curvature
of the catalog metrics, straight-line ball geodesics, great circles), a
reference assembled with numpy from central finite differences (field
gradients, the terms of a Poisson bracket) or a property the method must
have (asserted verify suites pass, brackets of commuting integrals vanish,
spray derivatives of first integrals vanish, watched first integrals stay
constant along a geodesic).  Each check
raises :class:`CheckFailure` with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np

# Constant covector b of the Randers norm F = |y| + b.y used by the tower
# workload; ``RANDERS_EXPRESSION`` is the same metric as a custom F^2.
RANDERS_B = (0.3, 0.0, -0.2)
RANDERS_EXPRESSION = "(sqrt(normy2) + 0.3*y1 - 0.2*y3)^2"

# Tolerances, relative to max(1, |reference|).  The measured errors sit
# several orders of magnitude below each of them (see README.md).
INSPECT_TOL = {"F": 1e-10, "g": 1e-10, "G": 1e-9, "kappa": 1e-8, "E": 1e-8}
BRACKET_TOL = 1e-6
# The bracket scale's reference rests on finite differences and agrees with
# the program to about 5e-7 at worst (|x| near 0.95); terms zeroed out miss
# it by their whole size.
BRACKET_SCALE_TOL = 1e-4
BRACKET_FD_STEP = 3e-4
SPRAY_DERIVATIVE_TOL = 1e-7
GRADIENT_TOL = 1e-7
LINE_TOL = 1e-10
CIRCLE_TOL = 1e-8


class CheckFailure(Exception):
    """An output disagrees with its reference."""


def _close(what: str, got, want, tol: float) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailure(f"{what}: shape {got.shape} != reference shape {want.shape}")
    limit = tol * max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= limit:  # also rejects NaN
        raise CheckFailure(f"{what}: off by {err:.3e}, limit {limit:.3e}")
    return err


# -- closed forms for `inspect` ----------------------------------------------

def _ball_pieces(x, y):
    nx2, ny2, d = x @ x, y @ y, x @ y
    a = ny2 - nx2 * ny2 + d * d
    return nx2, d, a


def ball_norm(x, y) -> float:
    """F = (sqrt(A) + <x,y>)^2 / ((1 - |x|^2)^2 sqrt(A))."""
    nx2, d, a = _ball_pieces(x, y)
    return (math.sqrt(a) + d) ** 2 / ((1.0 - nx2) ** 2 * math.sqrt(a))


def ball_spray(x, y) -> np.ndarray:
    """G = P y with P = (sqrt(A) + <x,y>) / (1 - |x|^2)."""
    nx2, d, a = _ball_pieces(x, y)
    return (math.sqrt(a) + d) / (1.0 - nx2) * y


def ball_connection(x, y) -> np.ndarray:
    """N^i_j = dG^i/dy^j of the ball spray: P I + y (dP/dy)^T."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx2, d, a = _ball_pieces(x, y)
    s = 1.0 - nx2
    dp = ((s * y + d * x) / math.sqrt(a) + x) / s
    return (math.sqrt(a) + d) / s * np.eye(len(x)) + np.outer(y, dp)


def ball_inverse_metric(x, y) -> np.ndarray:
    """g^{ij}, the inverse of the y-Hessian of F^2/2, by central differences."""
    x = np.asarray(x, dtype=float)

    def energy_gradient(v):
        return central_gradient(lambda w: 0.5 * ball_norm(x, w) ** 2, v)

    hessian = central_gradient(energy_gradient, y)
    return np.linalg.inv(0.5 * (hessian + hessian.T))


def ball_bracket_terms(x, y, grad_a, grad_b) -> tuple[float, float]:
    """The two terms g^{ij} du/dy^j delta v/dx^i of the Poisson bracket {u, v}
    on the ball, from the (x, y) gradients of both fields; delta v/dx^i is
    dv/dx^i - N^k_i dv/dy^k."""
    n = len(x)
    grad_a = np.asarray(grad_a, dtype=float)
    grad_b = np.asarray(grad_b, dtype=float)
    conn = ball_connection(x, y)
    g_inv = ball_inverse_metric(x, y)
    delta_a = grad_a[:n] - conn.T @ grad_a[n:]
    delta_b = grad_b[:n] - conn.T @ grad_b[n:]
    return float(grad_a[n:] @ g_inv @ delta_b), float(grad_b[n:] @ g_inv @ delta_a)


def flat_skew_matrix(n: int) -> np.ndarray:
    """The constant matrix of the catalog's riemannian_flat_skew metric."""
    mat = np.diag([1.0 + 0.5 * i for i in range(1, n + 1)])
    for i in range(n - 1):
        mat[i, i + 1] = mat[i + 1, i] = 0.3
    return mat


def inspect_reference(kind: str, x, y) -> dict:
    """Closed-form values of one inspected point for the named metric kind."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    zero_vec = np.zeros(n)
    zero_mat = np.zeros((n, n))
    if kind == "ball":
        return {"F": ball_norm(x, y), "G": ball_spray(x, y), "kappa": 0.0}
    if kind == "sphere":
        conf = 4.0 / (1.0 + x @ x) ** 2
        return {"F": math.sqrt(conf * (y @ y)), "g": conf * np.eye(n), "kappa": 1.0, "E": zero_mat}
    if kind == "flat_skew":
        mat = flat_skew_matrix(n)
        return {
            "F": math.sqrt(y @ mat @ y), "g": mat, "G": zero_vec, "kappa": 0.0, "E": zero_mat,
        }
    if kind == "euclidean":
        return {"F": math.sqrt(y @ y), "g": np.eye(n), "G": zero_vec}
    if kind == "randers":
        b = np.asarray(RANDERS_B)
        return {"F": math.sqrt(y @ y) + b @ y, "G": zero_vec, "E": zero_mat}
    raise ValueError(f"no closed form for metric kind {kind!r}")


def check_inspect_point(kind: str, doc: dict, x, y) -> None:
    """One point of an ``inspect`` report against the closed forms at (x, y)."""
    _close(f"{kind} point x", doc["point"]["x"], x, 0.0)
    _close(f"{kind} point y", doc["point"]["y"], y, 0.0)
    got = {"F": doc["F"], "g": doc["g"], "G": doc["G"], "kappa": doc["flag"]["kappa"], "E": doc["E"]}
    for key, want in inspect_reference(kind, x, y).items():
        _close(f"{kind} {key}", got[key], want, INSPECT_TOL[key])


def check_inspect_report(kind: str, report: dict, points) -> None:
    docs = report.get("points", [])
    if len(docs) != len(points):
        raise CheckFailure(f"inspect reported {len(docs)} points, asked for {len(points)}")
    for doc, (x, y) in zip(docs, points):
        check_inspect_point(kind, doc, x, y)


# -- verify and bracket reports ----------------------------------------------

def check_verify_report(report: dict, n_points: int) -> None:
    """Every asserted suite passes, judged from its own worst value and tolerance."""
    suites = report.get("suites") or []
    if report.get("n_points") != n_points or not suites:
        raise CheckFailure(f"verify report covers {report.get('n_points')} points and {len(suites)} suites")
    bad = [s["name"] for s in suites if s["asserted"] and not (s["passed"] and s["worst"] <= s["tol"])]
    if bad or report.get("passed") is not True:
        raise CheckFailure(f"verify suites failed: {', '.join(bad) or 'overall verdict'}")


def check_bracket_report(report: dict, points, scales, tol: float = BRACKET_TOL) -> None:
    """Each row is at its sampled point, its scale 1 + (|term1| + |term2|)/2
    matches the reference ``scales`` (so zeroed terms cannot pass), and every
    scaled bracket |value| / scale is within ``tol``."""
    rows = report.get("values") or []
    if len(rows) != len(points):
        raise CheckFailure(f"bracket report has {len(rows)} rows, asked for {len(points)}")
    for k, (row, (x, y), scale) in enumerate(zip(rows, points, scales)):
        _close(f"bracket row {k} point x", row["point"]["x"], x, 0.0)
        _close(f"bracket row {k} point y", row["point"]["y"], y, 0.0)
        _close(f"bracket row {k} scale", row["scale"], scale, BRACKET_SCALE_TOL)
        scaled = abs(row["value"]) / row["scale"]
        if not scaled <= tol:
            raise CheckFailure(f"bracket row {k}: scaled bracket {scaled:.3e} > {tol:.0e}")
    if report.get("passed") is not True:
        raise CheckFailure("bracket report does not pass")


def check_spray_derivative(value: float, field_value: float, tol: float = SPRAY_DERIVATIVE_TOL) -> None:
    """G(u) / max(1, |u|) vanishes for a first integral u."""
    scaled = abs(value) / max(1.0, abs(field_value))
    if not scaled <= tol:
        raise CheckFailure(f"spray derivative {scaled:.3e} (scaled) > {tol:.0e}")


def central_gradient(fn, z, rel_step: float = 1e-3) -> np.ndarray:
    """Fourth-order central differences of ``fn`` at ``z`` along each axis.

    For a vector-valued ``fn`` row k holds the derivatives along axis k.
    """
    z = np.asarray(z, dtype=float)
    rows = []
    for k in range(len(z)):
        h = rel_step * max(1.0, abs(z[k]))
        e = np.zeros(len(z))
        e[k] = h
        rows.append((-fn(z + 2 * e) + 8 * fn(z + e) - 8 * fn(z - e) + fn(z - 2 * e)) / (12 * h))
    return np.array(rows, dtype=float)


def check_gradient(got, reference, tol: float = GRADIENT_TOL) -> None:
    _close("field gradient vs finite differences", got, reference, tol)


# -- flow ------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    if len(lines) < 2:
        raise CheckFailure("trajectory CSV has no samples")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.shape[1] != len(header):
        raise CheckFailure("trajectory CSV rows do not match its header")
    return header, rows


def split_samples(header, rows, n: int):
    """(ts, xs, ys) from a trajectory CSV, located by column name."""
    col = {name: k for k, name in enumerate(header)}
    xs = rows[:, [col[f"x{i + 1}"] for i in range(n)]]
    ys = rows[:, [col[f"y{i + 1}"] for i in range(n)]]
    return rows[:, col["t"]], xs, ys


def check_line_samples(xs, ys, x0, y0, tol: float = LINE_TOL) -> None:
    """Samples stay on the line x0 + s y0 and keep y parallel to y0.

    Ball geodesics are straight lines because the metric is projectively
    flat; only the parametrisation along the line is non-trivial.
    """
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(y0, dtype=float) / np.linalg.norm(y0)
    for k, (x, y) in enumerate(zip(xs, ys)):
        dx = x - x0
        off_line = np.linalg.norm(dx - (dx @ u) * u)
        if not off_line <= tol * max(1.0, np.linalg.norm(dx)):
            raise CheckFailure(f"sample {k} is {off_line:.3e} off the line x0 + s y0")
        off_dir = np.linalg.norm(y - (y @ u) * u)
        if not (off_dir <= tol * np.linalg.norm(y) and y @ u > 0.0):
            raise CheckFailure(f"sample {k}: y is not a positive multiple of y0 ({off_dir:.3e} off)")


def check_great_circle(ts, xs, ys, x0, y0, tol: float = CIRCLE_TOL) -> None:
    """x(t) = cos(|y0| t) x0 + sin(|y0| t) y0/|y0| for |x0| = 1, y0 orthogonal to x0.

    |x| = 1 is a totally geodesic equator of the round-sphere chart on which
    the conformal factor is 1, so the geodesic is a unit circle at speed |y0|.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    speed = np.linalg.norm(y0)
    phase = speed * np.asarray(ts)[:, None]
    x_ref = np.cos(phase) * x0 + np.sin(phase) * (y0 / speed)
    y_ref = -np.sin(phase) * (speed * x0) + np.cos(phase) * y0
    _close("great-circle positions", xs, x_ref, tol)
    _close("great-circle velocities", ys, y_ref, tol)


def check_flow_report(report: dict, watch, t_max: float, n_samples: int) -> None:
    """Integration reached t_max, every watched field held, and the report
    agrees with the CSV it came with.  The benchmark's geodesics stay inside
    the domain, so a ``domain_exit`` is a failure too: a run cut short would
    integrate less and read as a speed-up."""
    if report.get("status") != "completed":
        raise CheckFailure(f"flow status {report.get('status')!r}, expected 'completed'")
    if not abs(report["t_final"] - t_max) <= 1e-9 * t_max:
        raise CheckFailure(f"flow completed at t = {report['t_final']!r}, asked for {t_max!r}")
    drift = report.get("drift") or {}
    if drift.get("passed") is not True or sorted(drift.get("fields", {})) != sorted(watch):
        raise CheckFailure(f"drift check failed for {sorted(drift.get('fields', {}))}")
    if report.get("samples") != n_samples:
        raise CheckFailure(f"flow reports {report.get('samples')} samples, CSV has {n_samples}")


def check_field_columns(header, rows, report: dict, watch, norm0: float) -> None:
    """The CSV has a column for every watched field; each starts at the
    drift report's initial value and stays within the report's drift
    tolerance of it, as a first integral must; F starts at ``norm0``, the
    closed-form norm at (x0, y0)."""
    col = {name: k for k, name in enumerate(header)}
    missing = [name for name in watch if name not in col]
    if missing:
        raise CheckFailure(f"trajectory CSV has no column for {', '.join(missing)}")
    tol = report["tol"]
    for name in watch:
        values = rows[:, col[name]]
        initial = report["drift"]["fields"][name]["initial"]
        _close(f"{name} at t = 0 vs drift report", values[0], initial, 1e-12)
        drift = float(np.abs(values - initial).max()) / max(abs(initial), 1e-8)
        if not drift <= tol:
            raise CheckFailure(f"{name} column drifts by {drift:.3e} (relative) > {tol:.0e}")
    if "F" in col:
        _close("F at t = 0 vs closed form", rows[0, col["F"]], norm0, INSPECT_TOL["F"])
