"""Golden reports: `verify` and `inspect` on the six tower metrics at two
fixed seeds, and the `flow` and `bracket` runs of :data:`RUNS` with their
CSVs, must reproduce the committed reports, `generated_at` aside.

Strings, booleans and integers must be equal and floats must agree to
1e-12 relative.  After a change that moves an output on purpose, rewrite
the file with ``PYTHONPATH=src python tests/test_golden.py`` and explain
the difference where the change is recorded.  With ``--diff`` the script
writes nothing and prints every float that moved, with its old and new
value and relative change, and every other difference.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from finslerkit import cli

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
SEEDS = (11, 12)
CONFIGS = {
    "ball4.cfg": "[metric]\nname = ball4\ndimension = 4\nfamily = funk_ball_berwald\n",
    "randers3.cfg": (
        "[metric]\nname = randers3\ndimension = 3\nfamily = custom\n"
        "expression = (sqrt(normy2) + 0.3*y1 - 0.2*y3)^2\n"
    ),
}
METRICS = ("euclidean", "funk_ball_berwald", "riemannian_flat_skew", "riemannian_round_sphere") + tuple(CONFIGS)
REL_TOL = 1e-12
# key: the arguments after the subcommand's --metric and before --out; a
# flow report is its stdout beside the CSV it writes
RUNS = {
    "flow/funk_ball_berwald": (
        "flow", "funk_ball_berwald", "--x0", "0.1,-0.2,0.05", "--y0", "0.3,1,-0.4", "--tmax", "0.5",
        "--watch", "F,f1,f2,c1,c2",
    ),
    "flow/riemannian_round_sphere": (
        "flow", "riemannian_round_sphere", "--x0", "0.3,0,-0.2", "--y0", "0,1,0.5", "--tmax", "0.5", "--watch", "F",
    ),
    "bracket/funk_ball_berwald/11": (
        "bracket", "funk_ball_berwald", "--fields", "f1,f2", "--npoints", "3", "--seed", "11",
    ),
    "flow/ball4": (
        "flow", "ball4.cfg", "--x0", "0.1,-0.2,0.05,0.02", "--y0", "0.3,1,-0.4,0.2", "--tmax", "0.5",
        "--watch", "f1,f2,f3,c3,s_cl",
    ),
    "bracket/funk_ball_berwald/c1,c2/12": (
        "bracket", "funk_ball_berwald", "--fields", "c1,c2", "--npoints", "3", "--seed", "12",
    ),
    "bracket-csv/randers3/12": (
        "bracket", "randers3.cfg", "--fields", "f1,F", "--npoints", "3", "--seed", "12", "--format", "csv",
    ),
}


def _run(argv) -> str:
    """``cli.main(argv)`` in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def _report(text: str) -> dict:
    doc = json.loads(text)
    del doc["generated_at"]
    return doc


def _csv(text: str) -> dict:
    header, *rows = text.splitlines()
    return {"header": header.split(","), "rows": [[float(v) for v in row.split(",")] for row in rows]}


def reports(workdir: Path) -> dict[str, dict]:
    """Every golden report by ``command/metric[/seed]``, without ``generated_at``."""
    for name, text in CONFIGS.items():
        (workdir / name).write_text(text)

    def metric_arg(metric):
        return str(workdir / metric) if metric in CONFIGS else metric

    path = workdir / "report.out"
    out = {}
    for seed in SEEDS:
        for metric in METRICS:
            for command, npoints in (("verify", "4"), ("inspect", "3")):
                argv = [command, "--metric", metric_arg(metric), "--npoints", npoints, "--seed", str(seed)]
                _run(argv + ["--out", str(path)])
                out[f"{command}/{metric.removesuffix('.cfg')}/{seed}"] = _report(path.read_text())
    for key, (command, metric, *rest) in RUNS.items():
        stdout = _run([command, "--metric", metric_arg(metric), *rest, "--out", str(path)])
        if command == "flow":
            out[key] = {"report": _report(stdout), "csv": _csv(path.read_text())}
        else:
            out[key] = _csv(path.read_text()) if "csv" in rest else _report(path.read_text())
    return out


def _mismatch(got, want, where: str) -> str | None:
    """Where ``got`` first leaves ``want``, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys differ"
        return next((m for k in want if (m := _mismatch(got[k], want[k], f"{where}.{k}"))), None)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: lengths differ"
        return next((m for i, (g, w) in enumerate(zip(got, want)) if (m := _mismatch(g, w, f"{where}[{i}]"))), None)
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return None
        return None if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0) else f"{where}: {got!r} != {want!r}"
    if type(got) is not type(want) or got != want:
        return f"{where}: {got!r} != {want!r}"
    return None


def differences(got, want, where: str = ""):
    """A line for each leaf where ``got`` is not ``want`` bit for bit: the old
    and new value, and for a float its relative change."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(want.keys() ^ got.keys()):
            yield f"{where}.{k}: only in the {'new' if k in got else 'old'} reports".lstrip(".")
        for k in want:
            if k in got:
                yield from differences(got[k], want[k], f"{where}.{k}".lstrip("."))
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and isinstance(got, float):
        if got != want and not (math.isnan(got) and math.isnan(want)):
            rel = abs(got - want) / abs(want) if want else math.inf
            yield f"{where}: {want!r} -> {got!r} (relative {rel:.2e})"
    elif type(got) is not type(want) or got != want:
        yield f"{where}: {want!r} -> {got!r}"


def test_reports_match_the_golden_files(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = reports(tmp_path)
    assert sorted(got) == sorted(want)
    for key in want:
        assert _mismatch(got[key], want[key], key) is None, _mismatch(got[key], want[key], key)


def test_mismatch_reads_relative_differences():
    assert _mismatch({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-13, "x", True]}, "r") is None
    assert _mismatch({"a": [1.0]}, {"a": [1.0 + 1e-11]}, "r") == "r.a[0]: 1.0 != 1.00000000001"
    assert _mismatch({"a": 0.0}, {"a": 1e-300}, "r") is not None
    assert _mismatch({"a": True}, {"a": 1}, "r") is not None
    assert _mismatch({"a": "x"}, {"b": "x"}, "r") == "r: keys differ"


def test_differences_list_every_moved_leaf():
    old = {"a": [1.0, "x", 2.0], "b": 0.0, "c": 3}
    new = {"a": [1.0 + 2**-52, "y", 2.0], "b": 1e-300, "d": 3}
    assert list(differences(new, old, "r")) == [
        "r.c: only in the old reports",
        "r.d: only in the new reports",
        "r.a[0]: 1.0 -> 1.0000000000000002 (relative 2.22e-16)",
        "r.a[1]: 'x' -> 'y'",
        "r.b: 0.0 -> 1e-300 (relative inf)",
    ]
    assert list(differences({"a": [float("nan"), True]}, {"a": [float("nan"), True]})) == []
    assert list(differences({"a": 1, "b": True}, {"a": 1.0, "c": 1})) == [
        "b: only in the new reports", "c: only in the old reports", "a: 1.0 -> 1",
    ]
    assert list(differences({"a": [1.0]}, {"a": [1.0, 2.0]})) == ["a: [1.0, 2.0] -> [1.0]"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden reports, or list how they moved.")
    parser.add_argument("--diff", action="store_true", help="print every difference from the file; write nothing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        docs = reports(Path(tmp))
    if args.diff:
        lines = list(differences(docs, json.loads(GOLDEN.read_text())))
        for line in lines:
            print(line)
        print(f"{len(lines)} differences from {GOLDEN}", file=sys.stderr)
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(docs, sort_keys=True, indent=1) + "\n")
        print(f"wrote {len(docs)} reports to {GOLDEN}", file=sys.stderr)
