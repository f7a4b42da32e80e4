"""CLI surface: subcommands, exit codes, report determinism."""

import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import cli, flow, jets, metrics
from finslerkit.errors import StepFailure

FUNK = "funk_ball_berwald"


def run(args):
    return cli.main(args)


def _load(path):
    return json.loads(path.read_text())


def _strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"generated_at"' not in line)


# -- inspect -------------------------------------------------------------------

def test_inspect_packet_at_center(tmp_path):
    out = tmp_path / "center.json"
    code = run(["inspect", "--metric", FUNK, "--point", "0,0,0;1,0,0", "--out", str(out)])
    assert code == 0
    doc = _load(out)
    assert doc["schema_version"] == 1
    assert doc["metric"] == FUNK
    (pt,) = doc["points"]
    for key in ("g", "g_inv", "G", "N", "jacobi", "E", "chi", "I", "J", "f", "c", "flag"):
        assert key in pt, key
    assert pt["F"] == pytest.approx(1.0)
    assert pt["f"] == pytest.approx([8.0, 32.0])
    assert pt["c"] == pytest.approx([8.0, 16.0])
    assert pt["N"][0][0] == pytest.approx(2.0)
    assert pt["flag"]["is_scalar"] is True


def test_inspect_samples_are_seeded(tmp_path):
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    assert run(["inspect", "--metric", FUNK, "--seed", "42", "--npoints", "2", "--out", str(a)]) == 0
    assert run(["inspect", "--metric", FUNK, "--seed", "42", "--npoints", "2", "--out", str(b)]) == 0
    assert run(["inspect", "--metric", FUNK, "--seed", "43", "--npoints", "2", "--out", str(c)]) == 0
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())
    assert _strip_timestamp(a.read_text()) != _strip_timestamp(c.read_text())


def test_inspect_accepts_config_files(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[metric]\nname = flat2\ndimension = 2\nfamily = euclidean\n")
    out = tmp_path / "flat.json"
    assert run(["inspect", "--metric", str(cfg), "--point", "0,0;1,1", "--out", str(out)]) == 0
    assert _load(out)["metric"] == "flat2"


# -- verify --------------------------------------------------------------------

def test_verify_passes_and_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--metric", "euclidean", "--npoints", "25", "--seed", "5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())
    doc = _load(a)
    assert doc["passed"] is True
    names = [s["name"] for s in doc["suites"]]
    assert "three_route_E_agreement" in names
    assert all(s["passed"] for s in doc["suites"] if s["asserted"])


# -- flow ----------------------------------------------------------------------

def test_flow_writes_csv_and_drift(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = run(
        [
            "flow",
            "--metric",
            FUNK,
            "--x0",
            "0,0,0",
            "--y0",
            "1,0,0",
            "--tmax",
            "5",
            "--watch",
            "F,f1,c1",
            "--out",
            str(csv_path),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "completed"
    assert report["drift"]["passed"] is True
    assert set(report["drift"]["fields"]) == {"F", "f1", "c1"}
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,y1,y2,y3,F,f1,c1"


def test_flow_evaluates_watched_fields_once_per_sample(tmp_path, capsys, monkeypatch):
    evaluated = []
    evaluate = flow.integrals.evaluate_fields

    def counted(spec, names, p, *args, **kwargs):
        evaluated.extend(p if isinstance(p, list) else [p])  # a batch evaluates each of its points
        return evaluate(spec, names, p, *args, **kwargs)

    monkeypatch.setattr(flow.integrals, "evaluate_fields", counted)
    argv = ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "2", "--watch", "F,f1"]
    assert run(argv + ["--out", str(tmp_path / "traj.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(evaluated) == report["samples"]


def test_flow_exit_one_when_watched_field_drifts(capsys):
    # the first printed closed form is not constant along this geodesic;
    # watching it trips the drift tolerance
    code = run(
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "5", "--watch", "g1_paper"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["drift"]["passed"] is False
    assert report["drift"]["fields"]["g1_paper"]["max_rel_drift"] > 1e-3


def test_flow_maps_step_failure_to_exit_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise StepFailure("step size underflow at t = 0.5")

    monkeypatch.setattr(cli.flow, "integrate", boom)
    code = run(["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1"])
    assert code == 3
    assert "underflow" in capsys.readouterr().err


def test_flow_reports_the_samples_before_a_step_failure(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    out = tmp_path / "traj.csv"
    argv = ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "10", "--watch", "F,f1"]
    assert run(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: exceeded 3 steps at t = ") and captured.err.count("\n") == 1
    report = json.loads(captured.out)
    assert report["status"] == "step_failure" and report["stats"]["steps"] >= 1
    assert 0.0 < report["t_final"] < 10.0 and report["samples"] > 1
    assert set(report["drift"]["fields"]) == {"F", "f1"} and report["drift"]["passed"]
    rows = out.read_text().splitlines()
    assert rows[0] == "t,x1,x2,x3,y1,y2,y3,F,f1" and len(rows) == report["samples"] + 1
    assert float(rows[-1].split(",")[0]) == report["t_final"]


@pytest.mark.parametrize(
    "metric, field, message",
    [
        (FUNK, "nosuch", "error: unknown scalar field 'nosuch'; registered: "),
        ("euclidean", "g1_paper", "error: field 'g1_paper' exists only for family funk_ball_berwald with n = 3"),
    ],
)
def test_flow_rejects_a_watched_field_before_integrating(monkeypatch, capsys, metric, field, message):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --watch")

    monkeypatch.setattr(cli.flow, "integrate", never)
    code = run(["flow", "--metric", metric, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--watch", field])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


# -- bracket ---------------------------------------------------------------------

def test_bracket_assert_zero_passes_for_involutive_pair(tmp_path):
    out = tmp_path / "b.json"
    code = run(
        ["bracket", "--metric", FUNK, "--fields", "f1,f2", "--npoints", "6", "--seed", "2",
         "--assert-zero", "--out", str(out)]
    )
    assert code == 0
    doc = _load(out)
    assert doc["passed"] is True
    assert doc["max_scaled"] < 1e-6
    assert len(doc["values"]) == 6


def test_bracket_assert_zero_fails_for_dependent_pair(tmp_path):
    out = tmp_path / "b.json"
    code = run(
        ["bracket", "--metric", FUNK, "--fields", "g1_paper,g2_paper", "--npoints", "6",
         "--seed", "2", "--assert-zero", "--out", str(out)]
    )
    assert code == 1
    assert _load(out)["passed"] is False


def test_bracket_without_assertion_reports_only(capsys):
    code = run(["bracket", "--metric", FUNK, "--fields", "g1_paper,g2_paper", "--npoints", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["assert_zero"] is False


def test_bracket_csv_format(capsys):
    code = run(["bracket", "--metric", FUNK, "--fields", "f1,c1", "--npoints", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,y1,y2,y3,value,scale,scaled"
    assert len(lines) == 3


# -- the theorem's negative control ---------------------------------------------------

# A Randers metric whose 1-form 0.2*(x2 dx1 - x1 dx2 + x3 dx3) is not closed,
# so chi does not vanish and the paper's first integrals need not be constant.
TWISTED_RANDERS = (
    "[metric]\nname = twisted_randers\ndimension = 3\nfamily = custom\n"
    "expression = (sqrt(normy2) + 0.2*(x2*y1 - x1*y2 + x3*y3))^2\n"
)


@pytest.fixture
def twisted(tmp_path):
    cfg = tmp_path / "twisted.cfg"
    cfg.write_text(TWISTED_RANDERS)
    return str(cfg)


def test_first_integrals_drift_where_chi_does_not_vanish(twisted, capsys):
    argv = ["flow", "--metric", twisted, "--x0", "0.1,0.2,-0.1", "--y0", "0.5,0.3,0.4", "--tmax", "1"]
    assert run(argv + ["--watch", "F,f1,f2,c1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "completed"
    drift = {name: field["max_rel_drift"] for name, field in report["drift"]["fields"].items()}
    # F is a first integral of every geodesic flow; f_a and c_a are not here
    assert drift["F"] < 1e-10
    assert drift["f1"] == pytest.approx(0.2222, rel=1e-3)
    assert drift["c1"] == drift["f1"]  # c1 = f1 = tr(EE)
    assert drift["f2"] == pytest.approx(0.2546, rel=1e-3)


def test_first_integrals_are_not_in_involution_where_chi_does_not_vanish(twisted, capsys):
    assert run(["bracket", "--metric", twisted, "--fields", "f1,f2", "--npoints", "5", "--assert-zero"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["max_scaled"] == pytest.approx(0.07167, rel=1e-3)


def test_verify_reports_chi_and_still_asserts_the_biconditional(twisted, capsys):
    assert run(["verify", "--metric", twisted, "--npoints", "20", "--seed", "1"]) == 0
    suites = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    for name, worst in (("chi_vanishes", 0.0691), ("hamel_residual", 0.1294), ("nabla_E_vanishes", 0.1202)):
        assert not suites[name]["asserted"], name
        assert suites[name]["worst"] == pytest.approx(worst, rel=1e-3), name
    bicond = suites["hamel_chi_biconditional"]
    assert bicond["asserted"] and bicond["passed"] and bicond["worst"] == 0.0


# -- error mapping ----------------------------------------------------------------

def test_setup_errors_exit_two(tmp_path, capsys):
    assert run(["inspect", "--metric", "/does/not/exist.cfg"]) == 2
    assert "neither a readable file" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("[metric]\ndimension = 3\n")  # no family
    assert run(["inspect", "--metric", str(bad)]) == 2

    assert run(["bracket", "--metric", "euclidean", "--fields", "f1,zzz"]) == 2
    assert "zzz" in capsys.readouterr().err

    assert run(["bracket", "--metric", "euclidean", "--fields", "f1"]) == 2
    assert run(["inspect", "--metric", "euclidean", "--point", "0,0;1,0"]) == 2
    assert run(["inspect", "--metric", "euclidean", "--point", "0,0,0"]) == 2
    assert run(["flow", "--metric", "euclidean", "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "-1"]) == 2
    assert run(["inspect", "--metric", FUNK, "--point", "2,0,0;1,0,0"]) == 2  # outside the ball


@pytest.mark.parametrize(
    "argv",
    [
        ["inspect", "--metric", FUNK, "--point", "nan,0,0;1,0,0"],
        ["inspect", "--metric", FUNK, "--point", "0,0,0;inf,0,0"],
        ["inspect", "--metric", FUNK, "--point", "0,0,0;1,zz,0"],
        ["flow", "--metric", FUNK, "--x0", "0,0,zz", "--y0", "1,0,0", "--tmax", "1"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,nan,0", "--tmax", "1"],
        ["verify", "--metric", FUNK, "--npoints", "0"],
        ["verify", "--metric", FUNK, "--npoints", "-3"],
        ["bracket", "--metric", FUNK, "--fields", "f1,f2", "--assert-zero", "--npoints", "0"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "nan"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "inf"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--atol", "0"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--rtol", "inf"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--tol", "nan"],
    ],
)
def test_malformed_numbers_exit_two(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["inspect", "--metric", FUNK, "--point", "nan,0,0;1,0,0"],
            "non-finite coordinate in x = [nan, 0.0, 0.0], y = [1.0, 0.0, 0.0]",
        ),
        (["inspect", "--metric", FUNK, "--point", "0,0;1,0"], "point has dimension 2, metric dimension is 3"),
        (
            ["flow", "--metric", FUNK, "--x0", "0,0", "--y0", "1,0,0", "--tmax", "1"],
            "x has length 2 but y has length 3",
        ),
    ],
    ids=["non-finite", "dimension", "lengths"],
)
def test_malformed_points_are_reported_by_the_phase_point_boundary(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "option, value, argv",
    [
        ("--point", "-0.3,0.1,0.2;0.2,-1,0.3", ["inspect"]),
        ("--x0", "-0.3,0.1,0.2", ["flow", "--y0", "0.2,1,0.3", "--tmax", "0.5"]),
        ("--y0", "-0.2,1,0.3", ["flow", "--x0", "0.3,0.1,0.2", "--tmax", "0.5"]),
    ],
    ids=["point", "x0", "y0"],
)
def test_a_vector_value_may_start_with_a_minus(option, value, argv, capsys):
    # argparse alone takes "-0.3,0.1,0.2" for an option and reads only the
    # "--x0=-0.3,.." form; both forms must give the same report
    outputs = []
    for pair in ([option, value], [f"{option}={value}"]):
        assert run([*argv, "--metric", FUNK, *pair]) == 0
        outputs.append(_strip_timestamp(capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_flow_tolerance_defaults_are_the_integrator_settings():
    args = cli._build_parser().parse_args(["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1"])
    assert (args.rtol, args.atol) == (flow.IntegrateSettings().rtol, flow.IntegrateSettings().atol)


@pytest.mark.parametrize(
    "argv",
    [
        ["inspect", "--metric", FUNK, "--point", "1e200,0,0;1,0,0"],
        ["flow", "--metric", FUNK, "--x0", "0,-1e200,0", "--y0", "1,0,0", "--tmax", "1"],
    ],
)
def test_a_position_past_the_float_range_is_outside_the_ball_guard(argv, capsys):
    assert run(argv) == 2
    assert "outside the ball guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["inspect", "--metric", "riemannian_round_sphere", "--point", "1e200,0,0;1,0,0"],
            "F2 leaves the float range at PhasePoint(x=(1e+200, 0.0, 0.0), y=(1.0, 0.0, 0.0))",
        ),
        (
            ["flow", "--metric", "euclidean", "--x0", "1e300,0,0", "--y0", "1e300,0,0", "--tmax", "1"],
            "spray leaves the float range at PhasePoint(x=(1e+300, 0.0, 0.0), y=(1e+300, 0.0, 0.0))",
        ),
        (
            ["flow", "--metric", "riemannian_round_sphere", "--x0", "1e200,0,0", "--y0", "1,0,0", "--tmax", "1"],
            "spray leaves the float range at PhasePoint(x=(1e+200, 0.0, 0.0), y=(1.0, 0.0, 0.0))",
        ),
    ],
    ids=["inspect-sphere", "flow-euclidean", "flow-sphere"],
)
def test_a_huge_position_exits_two_without_warnings(argv, message, capsys):
    # these metrics have no position guard: F^2 over jets overflows, which
    # is a DomainError naming the stage and the point, not a numpy warning
    # followed by an error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}: overflow encountered in multiply\n"


@pytest.mark.parametrize(
    "exc",
    [
        np.linalg.LinAlgError("Singular matrix"),
        ValueError("math domain error"),
        OverflowError("math range error"),
    ],
    ids=["LinAlgError", "ValueError", "OverflowError"],
)
def test_escaped_library_errors_exit_two(monkeypatch, capsys, exc):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_inspect", raising)
    assert run(["inspect", "--metric", FUNK]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"
    assert "Traceback" not in err


def test_one_parser_serves_every_call(monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_inspect", lambda args: seen.append(args.point) or 0)
    for argv in (["--point", "0,0,0;1,0,0", "--point", "0,0,0;0,1,0"], [], ["--point", "0,0,0;0,0,1"]):
        assert run(["inspect", "--metric", FUNK, *argv]) == 0
    # an appended option starts afresh on each call
    assert seen == [["0,0,0;1,0,0", "0,0,0;0,1,0"], None, ["0,0,0;0,0,1"]]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("expression = normy2*exp(1e6*x1)", "could not sample"),
        ("expression = normy2 + 1e400*y1^2", "literal '1e400' is not a finite float (line 4, column 23)"),
    ],
    ids=["overflow", "literal"],
)
def test_config_boundaries_exit_two(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[metric]\ndimension = 3\nfamily = custom\n{text}\n")
    assert run(["verify", "--metric", str(cfg), "--npoints", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_non_finite_energy_exits_two_without_warnings(tmp_path, capsys):
    # F^2 = 1e308 |y|^2 overflows to inf at 2y: the homogeneity check must
    # not compare inf with inf, and no numpy overflow may reach stderr
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = 1e308*normy2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["inspect", "--metric", str(cfg), "--npoints", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "F^2 is not finite and positive" in err


def test_an_overflowing_norm_in_verify_exits_two_without_warnings(tmp_path, capsys):
    # F^2 = 1e300 |y|^2 is finite, but the squares in the norm of g are not:
    # one error line naming the sample's first point, no numpy overflow
    # warning before it
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = normy2*1e300\n")
    p = metrics.sample_points(metrics.load_metric_file(cfg), 2, 0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", "--metric", str(cfg), "--npoints", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: verify leaves the float range at {p}: overflow encountered in dot\n"


def test_overflowing_components_exit_two_without_warnings(tmp_path, capsys):
    # g_1_1 = 1e308 is a float, but the load-time positivity check's
    # symmetric part 0.5 (g + g^T) overflows: a setup error, no numpy warning
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = riemannian\ng_1_1 = 1e308\ng_2_2 = 1\ng_3_3 = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["inspect", "--metric", str(cfg), "--npoints", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "component matrix overflows the float range" in err


def test_series_out_of_float_range_exits_two_naming_the_function(tmp_path, capsys):
    # F^2 = |y|^2 exp(800 x1) is a float at x1 = 0.88, but the degree-1
    # coefficient of its exp, 800 exp(704), is not
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = normy2*exp(800*x1)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["inspect", "--metric", str(cfg), "--point", "0.88,0,0;1,0,0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: exp of a jet with value part 704.0: a coefficient leaves the float range\n"


def test_a_homothety_of_the_euclidean_metric_verifies(tmp_path):
    # c F^2 has the spray of F^2: the suites see no difference at c = 1e30
    cfg = tmp_path / "scaled.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = 1e30*normy2\n")
    assert run(["verify", "--metric", str(cfg), "--npoints", "2", "--out", str(tmp_path / "verify.json")]) == 0


_FLOW_ARGV = ["flow", "--x0", "0.1,0,0", "--y0", "1,0,0", "--tmax", "1", "--watch", "f1"]


@pytest.mark.parametrize(
    "argv, expression",
    [
        (argv, expression)
        for expression in ("normy2 + 1e308*y1^2", "normy2*1e300")
        for argv in (
            ["inspect", "--npoints", "2"],
            ["verify", "--npoints", "2"],
            ["bracket", "--fields", "f1,f2", "--npoints", "3"],
            _FLOW_ARGV,
        )
        # flow's fields run in long double, where det g = 1e900 is a number
        # (test_flow_watches_a_homothety_past_the_float64_range)
        if (argv, expression) != (_FLOW_ARGV, "normy2*1e300")
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_an_overflow_past_f2_exits_two_with_one_line(tmp_path, capsys, argv, expression):
    # F^2 is a float at the sampled points, but a later stage overflows:
    # every command prints one error line and no numpy warning
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"[metric]\ndimension = 3\nfamily = custom\nexpression = {expression}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--metric", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_overflow_past_f2_names_the_stage_and_the_point(tmp_path, capsys):
    # F^2 and its first fiber derivative fit, but differentiating the
    # y1^2 coefficient 1e308 for g gives 2e308
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = normy2 + 1e308*y1^2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["inspect", "--metric", str(cfg), "--point", "0.1,0.2,0.3;0.5,1,0"]) == 2
    assert capsys.readouterr().err == (
        "error: g leaves the float range at PhasePoint(x=(0.1, 0.2, 0.3), y=(0.5, 1.0, 0.0)): "
        "overflow encountered in multiply\n"
    )


def test_an_overflow_in_the_spray_names_the_spray_and_the_point(tmp_path, capsys):
    # the same overflow as above, met first by flow's right-hand side
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = normy2 + 1e308*y1^2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["flow", "--metric", str(cfg), "--x0", "0.1,0.2,0.3", "--y0", "0.5,1,0", "--tmax", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: spray leaves the float range at PhasePoint(x=(0.1, 0.2, 0.3), y=(0.5, 1.0, 0.0)): "
        "overflow encountered in multiply\n"
    )


def test_flow_watches_a_homothety_past_the_float64_range(tmp_path, capsys):
    # c F^2 has the spray of F^2, which runs in float64; the watched field
    # runs in long double, where det g = c^3 = 1e900 fits, so f1 = tr EE is
    # the Euclidean value 0 throughout
    if np.finfo(np.longdouble).maxexp <= np.finfo(np.float64).maxexp:
        pytest.skip("np.longdouble has float64's range here")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[metric]\ndimension = 3\nfamily = custom\nexpression = normy2*1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*_FLOW_ARGV, "--metric", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "completed" and report["drift"]["passed"]
    f1 = report["drift"]["fields"]["f1"]
    assert f1 == {"initial": 0.0, "max_abs_dev": 0.0, "max_rel_drift": 0.0, "t_at_max": 0.0}


def test_large_dimension_exits_two_without_a_jet_table(tmp_path, capsys, monkeypatch):
    def no_tables(*args):
        raise AssertionError("a jet table was requested")

    monkeypatch.setattr(jets, "jet_space", no_tables)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("[metric]\ndimension = 100000\nfamily = euclidean\n")
    assert run(["inspect", "--metric", str(cfg), "--npoints", "1"]) == 2
    assert capsys.readouterr().err == f"error: line 2: dimension must be <= {metrics.MAX_DIMENSION}\n"


# each draw picks a valid value three times in four, so that most cases
# get past the parser and reach the jets
_DIMENSIONS = (("2", "3", "4"), ("0", "1", "5", "100000", "-3", "2.5", "nan"))
_LITERALS = (("0.5", "2", "0.1", "1e308", "1e-400"), ("1e400", "-1e400", "nan", "inf"))
_TERMS = ("normy2", "y1^2", "y1*y2", "dotxy", "x1*y1^2", "sqrt(normy2)*y1", "exp(x1)*normy2")


@st.composite
def _config_texts(draw):
    def pick(choices):
        return draw(st.sampled_from(choices[0] if draw(st.integers(0, 3)) else choices[1]))

    lines = ["[metric]", f"dimension = {pick(_DIMENSIONS)}"]
    family = draw(st.sampled_from(("custom", "riemannian", "euclidean", "funk_ball_berwald")))
    lines.append(f"family = {family}")
    if family == "custom":
        shape = draw(st.sampled_from(("{t} + {l}*{u}", "{t}*exp({l}*x1)", "({t} - {l}*{u})^2/{t}", "{l}*{t}")))
        t, u = draw(st.sampled_from(_TERMS)), draw(st.sampled_from(_TERMS))
        lines.append("expression = " + shape.format(t=t, u=u, l=pick(_LITERALS)))
    elif family == "riemannian":
        lines += [f"g_{i}_{i} = {pick(_LITERALS)} + normx2" for i in (1, 2, 3)]
    if draw(st.booleans()):
        lines.append(f"sigma = exp({pick(_LITERALS)}*x1)")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_config_texts())
def test_any_config_text_ends_in_an_exit_code_not_a_traceback(tmp_path_factory, text):
    cfg = tmp_path_factory.mktemp("config") / "metric.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    # a numpy warning would reach stderr before the error line: fail on it
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["inspect", "--metric", str(cfg), "--npoints", "1", "--out", str(cfg.with_suffix(".json"))])
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in err.getvalue(), text
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, text


# components valid seven times in eight, then an x and a y of three
# components three times in four
_COMPONENTS = (
    ("0", "0.1", "-0.25", "0.5", "1", "2e-3", "-1"),
    ("nan", "inf", "-inf", "1e400", "-1e-400", "x", "", "1.2.3", "0x10", " "),
)


@st.composite
def _point_texts(draw):
    if not draw(st.integers(0, 7)):
        return draw(st.text(max_size=20))

    def part():
        size = 3 if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        return ",".join(
            draw(st.sampled_from(_COMPONENTS[0] if draw(st.integers(0, 7)) else _COMPONENTS[1])) for _ in range(size)
        )

    return draw(st.sampled_from((";", ";", ";", "", ";;", ","))).join([part(), part()])


@settings(max_examples=80, deadline=None)
@given(text=_point_texts(), metric=st.sampled_from((FUNK, "riemannian_round_sphere")))
def test_any_point_text_ends_in_an_exit_code_not_a_traceback(tmp_path_factory, text, metric):
    out = tmp_path_factory.mktemp("point") / "inspect.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["inspect", "--metric", metric, f"--point={text}", "--out", str(out)])
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in err.getvalue(), text
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, text


@pytest.mark.parametrize(
    "argv",
    [
        ["inspect", "--metric", FUNK, "--format", "csv"],
        ["verify", "--metric", FUNK, "--tol", "1e-3"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--format", "csv"],
        ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--seed", "3"],
    ],
)
def test_options_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_POINT_SAMPLES_NOTHING = "inspect --point takes no --seed or --npoints: it samples no points"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["inspect", "--metric", FUNK, "--point", "0,0,0;1,0,0", "--seed", "0"], _POINT_SAMPLES_NOTHING),
        (["inspect", "--metric", FUNK, "--npoints", "3", "--point", "0,0,0;1,0,0"], _POINT_SAMPLES_NOTHING),
        (
            ["flow", "--metric", FUNK, "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "1", "--tol", "1e-6"],
            "flow --tol needs --watch: it bounds the watched fields' drift",
        ),
    ],
    ids=["point-seed", "point-npoints", "tol-unwatched"],
)
def test_options_ignored_in_combination_exit_two(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_flow_takes_tol_with_watch(capsys):
    argv = ["flow", "--metric", "euclidean", "--x0", "0,0,0", "--y0", "1,0,0", "--tmax", "0.1"]
    assert run(argv + ["--watch", "F", "--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-6


def test_console_script_entry():
    proc = subprocess.run(
        ["finslerkit", "inspect", "--metric", "euclidean", "--point", "0,0,0;1,2,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points"][0]["F"] == pytest.approx(5**0.5)


def test_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkit", "verify", "--metric", "euclidean", "--npoints", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
