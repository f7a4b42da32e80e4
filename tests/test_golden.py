"""Golden reports: `verify` and `inspect` on the six tower metrics at two
fixed seeds must reproduce the committed reports, `generated_at` aside.

Strings, booleans and integers must be equal and floats must agree to
1e-12 relative.  After a change that moves an output on purpose, rewrite
the file with ``PYTHONPATH=src python tests/test_golden.py`` and explain
the difference where the change is recorded.
"""

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


def reports(workdir: Path) -> dict[str, dict]:
    """Every golden report by ``command/metric/seed``, without ``generated_at``."""
    for name, text in CONFIGS.items():
        (workdir / name).write_text(text)
    out = {}
    for seed in SEEDS:
        for metric in METRICS:
            arg = str(workdir / metric) if metric in CONFIGS else metric
            for command, npoints in (("verify", "4"), ("inspect", "3")):
                path = workdir / "report.json"
                argv = [command, "--metric", arg, "--npoints", npoints, "--seed", str(seed), "--out", str(path)]
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
                doc = json.loads(path.read_text())
                del doc["generated_at"]
                out[f"{command}/{metric.removesuffix('.cfg')}/{seed}"] = doc
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        docs = reports(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(docs)} reports to {GOLDEN}", file=sys.stderr)
