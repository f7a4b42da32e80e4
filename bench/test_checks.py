"""Each reference check accepts a correct output and rejects a slightly
perturbed one, so that no check in the benchmark is vacuous.

    python3 -m pytest bench/test_checks.py
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailure

RNG = np.random.default_rng(5)
X = np.array([0.2, -0.3, 0.1])
Y = np.array([0.9, 0.4, -1.1])


def _inspect_doc(kind, x, y):
    """A report point carrying exactly the closed-form values."""
    n = len(x)
    ref = checks.inspect_reference(kind, x, y)
    return {
        "point": {"x": list(x), "y": list(y)},
        "F": ref["F"],
        "g": np.asarray(ref.get("g", np.eye(n))).tolist(),
        "G": np.asarray(ref.get("G", np.zeros(n))).tolist(),
        "E": np.asarray(ref.get("E", np.zeros((n, n)))).tolist(),
        "flag": {"kappa": ref.get("kappa", 0.0)},
    }


KINDS = ("ball", "sphere", "flat_skew", "euclidean", "randers")


@pytest.mark.parametrize("kind", KINDS)
def test_inspect_reference_accepts_itself(kind):
    checks.check_inspect_point(kind, _inspect_doc(kind, X, Y), X, Y)


@pytest.mark.parametrize("kind", KINDS)
def test_inspect_rejects_each_perturbed_quantity(kind):
    for key in checks.inspect_reference(kind, X, Y):
        doc = _inspect_doc(kind, X, Y)
        if key == "kappa":
            doc["flag"]["kappa"] += 1e-6
        elif key == "F":
            doc["F"] *= 1 + 1e-6
        else:
            arr = np.array(doc[key])
            arr.flat[1] += 1e-6 * max(1.0, np.abs(arr).max())
            doc[key] = arr.tolist()
        with pytest.raises(CheckFailure):
            checks.check_inspect_point(kind, doc, X, Y)


def test_ball_spray_scaled_by_one_part_in_a_million_is_rejected():
    doc = _inspect_doc("ball", X, Y)
    doc["G"] = (np.array(doc["G"]) * (1 + 1e-6)).tolist()
    with pytest.raises(CheckFailure, match="ball G"):
        checks.check_inspect_point("ball", doc, X, Y)


def test_inspect_rejects_a_report_for_another_point():
    doc = _inspect_doc("euclidean", X, Y)
    with pytest.raises(CheckFailure, match="point x"):
        checks.check_inspect_point("euclidean", doc, X + 1e-9, Y)


def test_ball_closed_forms_match_the_projective_spray_identity():
    # G = P y with P = F_x . y / (2F) for a projectively flat metric (Hamel)
    def norm(x):
        return checks.ball_norm(x, Y)

    h = 1e-5
    grad = np.array([(norm(X + h * e) - norm(X - h * e)) / (2 * h) for e in np.eye(3)])
    P = grad @ Y / (2 * norm(X))
    assert np.allclose(checks.ball_spray(X, Y), P * Y, rtol=1e-8)


def _verify_report(worst=1e-12, asserted=True, passed=True):
    suites = [
        {"name": "g_symmetric", "worst": 0.0, "tol": 1e-12, "asserted": True, "passed": True},
        {"name": "chi_vanishes", "worst": worst, "tol": 1e-7, "asserted": asserted, "passed": passed},
    ]
    return {"n_points": 4, "passed": passed or not asserted, "suites": suites}


def test_verify_report_checks():
    checks.check_verify_report(_verify_report(), 4)
    checks.check_verify_report(_verify_report(worst=1.0, asserted=False, passed=True), 4)
    with pytest.raises(CheckFailure):
        checks.check_verify_report(_verify_report(worst=1e-6), 4)  # claims a pass above its tolerance
    with pytest.raises(CheckFailure):
        checks.check_verify_report(_verify_report(passed=False), 4)
    with pytest.raises(CheckFailure):
        checks.check_verify_report(_verify_report(), 5)


def test_ball_connection_and_inverse_metric():
    # N is the y-Jacobian of the spray, and g(y, y) = F^2 (Euler)
    jac = checks.central_gradient(lambda v: checks.ball_spray(X, v), Y).T
    assert np.allclose(checks.ball_connection(X, Y), jac, rtol=1e-9, atol=1e-9)
    g = np.linalg.inv(checks.ball_inverse_metric(X, Y))
    assert math.isclose(Y @ g @ Y, checks.ball_norm(X, Y) ** 2, rel_tol=1e-9)


def test_bracket_terms_of_linear_fields():
    # u = a.y and v = b.x: delta v = b, so term1 = a g^-1 b, and v has no
    # y-gradient, so term2 = 0
    a, b = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.7])
    grad_u = np.concatenate([np.zeros(3), a])
    grad_v = np.concatenate([b, np.zeros(3)])
    term1, term2 = checks.ball_bracket_terms(X, Y, grad_u, grad_v)
    assert math.isclose(term1, a @ checks.ball_inverse_metric(X, Y) @ b, rel_tol=1e-12)
    assert term2 == 0.0


POINTS = [(X, Y), (0.5 * X, -Y)]


def _bracket_report(values, scale=2.0, points=POINTS):
    rows = [
        {"point": {"x": list(x), "y": list(y)}, "value": v, "scale": scale, "scaled": abs(v) / scale}
        for v, (x, y) in zip(values, points)
    ]
    return {"values": rows, "passed": True}


def test_bracket_report_checks():
    checks.check_bracket_report(_bracket_report([1e-12, -3e-9]), POINTS, [2.0, 2.0])
    bad = [
        (_bracket_report([1e-12, 4e-6]), POINTS),  # bracket not zero
        (_bracket_report([1e-12]), POINTS),  # a row missing
        (_bracket_report([1e-12, 0.0], points=[(X, Y), (X, Y)]), POINTS),  # another point
        (_bracket_report([1e-12, 0.0], scale=2.0 * (1 + 1e-3)), POINTS),  # scale off
    ]
    for report, points in bad:
        with pytest.raises(CheckFailure):
            checks.check_bracket_report(report, points, [2.0, 2.0])


def test_a_bracket_of_zeros_is_rejected():
    # terms zeroed out give value 0 and scale 1, which is within tolerance
    # on its own; the reference scale of the same rows rejects it
    scales = [1.0 + 0.5 * (4.33 + 4.33), 1.0 + 0.5 * (2.33 + 2.33)]
    with pytest.raises(CheckFailure, match="scale"):
        checks.check_bracket_report(_bracket_report([0.0, 0.0], scale=1.0), POINTS, scales)


def test_spray_derivative_check():
    checks.check_spray_derivative(1e-9, 8.0)
    with pytest.raises(CheckFailure):
        checks.check_spray_derivative(8e-6, 8.0)
    with pytest.raises(CheckFailure):
        checks.check_spray_derivative(math.nan, 8.0)


def _field(z):
    return math.sin(z[0]) * z[3] ** 2 + math.exp(0.5 * z[1]) / (1.0 + z[4] ** 2) + z[2] * z[5]


def _field_gradient(z):
    return np.array(
        [
            math.cos(z[0]) * z[3] ** 2,
            0.5 * math.exp(0.5 * z[1]) / (1.0 + z[4] ** 2),
            z[5],
            2 * math.sin(z[0]) * z[3],
            -2 * z[4] * math.exp(0.5 * z[1]) / (1.0 + z[4] ** 2) ** 2,
            z[2],
        ]
    )


def test_gradient_check_rejects_zeros_and_scaled_gradients():
    z = np.concatenate([X, Y])
    reference = checks.central_gradient(_field, z)
    exact = _field_gradient(z)
    checks.check_gradient(exact, reference)
    with pytest.raises(CheckFailure):
        checks.check_gradient(np.zeros(6), reference)
    with pytest.raises(CheckFailure):
        checks.check_gradient(exact * (1 + 1e-5), reference)


def _line_samples():
    x0, y0 = X, Y
    s = np.linspace(0.0, 0.4, 9)
    xs = x0 + s[:, None] * y0
    ys = np.exp(-s)[:, None] * y0
    return xs, ys, x0, y0


def test_line_check_rejects_a_sample_off_its_line():
    xs, ys, x0, y0 = _line_samples()
    checks.check_line_samples(xs, ys, x0, y0)
    moved = xs.copy()
    moved[4] += 1e-6 * np.array([1.0, 0.0, 0.0])
    with pytest.raises(CheckFailure, match="sample 4"):
        checks.check_line_samples(moved, ys, x0, y0)
    turned = ys.copy()
    turned[2] += 1e-6 * np.array([0.0, 0.0, 1.0])
    with pytest.raises(CheckFailure, match="sample 2"):
        checks.check_line_samples(xs, turned, x0, y0)
    with pytest.raises(CheckFailure):
        checks.check_line_samples(xs, -ys, x0, y0)


def test_great_circle_check_rejects_a_moved_sample():
    x0 = np.array([0.0, 0.6, 0.8])
    y0 = 1.5 * np.array([1.0, 0.0, 0.0])
    ts = np.linspace(0.0, 2.0, 11)
    xs = np.cos(1.5 * ts)[:, None] * x0 + np.sin(1.5 * ts)[:, None] * y0 / 1.5
    ys = -np.sin(1.5 * ts)[:, None] * 1.5 * x0 + np.cos(1.5 * ts)[:, None] * y0
    checks.check_great_circle(ts, xs, ys, x0, y0)
    moved = xs.copy()
    moved[7, 1] += 1e-6
    with pytest.raises(CheckFailure, match="positions"):
        checks.check_great_circle(ts, moved, ys, x0, y0)
    with pytest.raises(CheckFailure, match="velocities"):
        checks.check_great_circle(ts, xs, ys * (1 + 1e-6), x0, y0)


def _flow_report(**changes):
    report = {
        "status": "completed", "t_final": 0.5, "samples": 3, "tol": 1e-6,
        "drift": {"passed": True, "fields": {"F": {"initial": 2.0}, "f1": {"initial": -0.25}}},
    }
    report.update(changes)
    return report


def test_flow_report_checks():
    checks.check_flow_report(_flow_report(), ["F", "f1"], 0.5, 3)
    bad = [
        _flow_report(status="step_failure"),
        _flow_report(status="domain_exit", t_final=0.3),
        _flow_report(t_final=0.4),
        _flow_report(drift={"passed": False, "fields": {"F": {}, "f1": {}}}),
        _flow_report(drift={"passed": True, "fields": {"F": {}}}),
        _flow_report(samples=4),
    ]
    for report in bad:
        with pytest.raises(CheckFailure):
            checks.check_flow_report(report, ["F", "f1"], 0.5, 3)


def _field_rows():
    header = ["t", "x1", "y1", "F", "f1"]
    rows = np.array([[0.0, 0.1, 1.0, 2.0, -0.25], [0.25, 0.3, 1.0, 2.0, -0.25], [0.5, 0.5, 1.0, 2.0, -0.25]])
    return header, rows


def test_field_columns_checks():
    header, rows = _field_rows()
    checks.check_field_columns(header, rows, _flow_report(), ["F", "f1"], 2.0)
    with pytest.raises(CheckFailure, match="no column for f1"):
        checks.check_field_columns(header[:4], rows[:, :4], _flow_report(), ["F", "f1"], 2.0)
    drifting = rows.copy()
    drifting[2, 4] *= 1 + 1e-5
    with pytest.raises(CheckFailure, match="f1 column drifts"):
        checks.check_field_columns(header, drifting, _flow_report(), ["F", "f1"], 2.0)
    shifted = rows.copy()
    shifted[:, 4] += 1e-9
    with pytest.raises(CheckFailure, match="f1 at t = 0"):
        checks.check_field_columns(header, shifted, _flow_report(), ["F", "f1"], 2.0)
    with pytest.raises(CheckFailure, match="closed form"):
        checks.check_field_columns(header, rows, _flow_report(), ["F", "f1"], 2.0 * (1 + 1e-6))


def test_csv_columns_are_found_by_name():
    text = "t,x1,x2,y1,y2,F\n0,1,2,3,4,5\n0.5,6,7,8,9,10\n"
    header, rows = checks.parse_csv(text)
    ts, xs, ys = checks.split_samples(header, rows, 2)
    assert ts.tolist() == [0.0, 0.5]
    assert xs.tolist() == [[1, 2], [6, 7]]
    assert ys.tolist() == [[3, 4], [8, 9]]
    with pytest.raises(CheckFailure):
        checks.parse_csv("t,x1\n")
