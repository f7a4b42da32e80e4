"""One workload process, started by run.py in a fresh interpreter.

It sets the workload up, prints ``ready`` (run.py times set-up up to that
line), and then, depending on ``--mode``:

``setup``  exits;
``run``    runs whole rounds until ``--seconds`` have passed and writes the
           round times, operation counts and peak RSS to ``--result``;
``trace``  does the same untraced, then one traced round, one more untraced
           round and the jet probe,
           and writes the per-layer metrics to ``--result`` and every span
           to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import finslerkit  # noqa: E402

if not Path(finslerkit.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"finslerkit was imported from {finslerkit.__file__}, not from this checkout's src/")

import checks  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_ERRORS = 5


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"{label}: {reason}")


def run_round(ops, tally: Tally) -> float:
    """Run every operation once; return the summed time of the calls alone."""
    wall = 0.0
    for op in ops:
        tally.attempted += 1
        t0 = perf_counter()
        try:
            out = op.run()
        except (Exception, SystemExit) as exc:  # an escaped exception fails the operation
            wall += perf_counter() - t0
            tally.fail(op.label, "".join(traceback.format_exception_only(exc)).strip())
            continue
        wall += perf_counter() - t0
        try:
            op.check(out)
        except checks.CheckFailure as exc:
            tally.fail(op.label, str(exc))
    return wall


def run_rounds(ops, seconds: float, tally: Tally) -> list[float]:
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        walls.append(run_round(ops, tally))
    return walls


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    workload.prepare()
    ops = workload.operations()
    tally = Tally()
    walls = run_rounds(ops, args.seconds, tally)
    result = {"ops_per_round": len(ops), "round_walls": walls}

    if args.mode == "trace":
        import probe
        from tracer import Tracer

        with Tracer() as tracer:
            origin = perf_counter()
            traced_wall = run_round(ops, tally)
        # the host's speed drifts over seconds: compare with the untraced
        # rounds right before and right after the traced one
        untraced_wall = (walls[-1] + run_round(ops, tally)) / 2
        layers = tracer.layer_metrics()
        layers.update(probe.run())
        layers["src.lines"] = src_lines()
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        result["layers"] = layers
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "columns": ["name", "start_s", "end_s", "parent", "tag"],
                    "spans": tracer.span_records(origin),
                    "layers": layers,
                }
            )
        )

    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
