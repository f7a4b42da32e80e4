"""finslerkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload tower|bracket|flow --seed N [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports finslerkit from ``src/``.
Workloads are listed in BENCHMARK.json and described in bench/README.md.

With ``--trace 0`` (the default) it prints the end-to-end metrics:
``setup_s``, the median over eleven fresh interpreters of the time from
start to the first timed operation; ``wall_s``, the median time of one
round of the workload's operations; and ``peak_rss_mb`` of the process that
ran the rounds.  With ``--trace 1`` it prints the per-layer metrics of one
traced round, the jet probe and the tracing overhead, and writes every span
to ``.bench_out/``.  Without ``--workload`` it runs all three workloads.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Each metric is printed on its own line, then the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any operation failed or any check disagreed, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tower", "bracket", "flow")
# setup-only interpreters timed before and again after the one that runs the
# rounds, so that setup_s is a median over 2 * SETUP_EACH_SIDE + 1 start-ups
# spread across the run
SETUP_EACH_SIDE = 5
# the whole command must finish inside this many seconds
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run."""


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared_metrics(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _benchmark_spec()[key]}


def _worker(args, mode: str, workdir: Path, deadline: float, extra=()) -> float:
    """Start worker.py, return seconds from start to its ``ready`` line, and
    wait for it to exit.  A worker that overruns the deadline is killed."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--mode", mode, *extra,
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{mode} worker did not get ready (output {line!r})")
        code = proc.wait(timeout=max(0.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker overran the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{mode} worker exited with code {code}")
    return setup_s


def measure(args) -> dict:
    """Run one workload; return the result object."""
    deadline = monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        result_path = workdir / "result.json"
        run_args = ["--seconds", repr(float(args.seconds)), "--result", str(result_path)]
        if args.trace:
            spans = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            _worker(args, "trace", workdir, deadline, run_args + ["--spans", str(spans)])
        else:
            setups = [_worker(args, "setup", workdir, deadline) for _ in range(SETUP_EACH_SIDE)]
            setups.append(_worker(args, "run", workdir, deadline, run_args))
            setups += [_worker(args, "setup", workdir, deadline) for _ in range(SETUP_EACH_SIDE)]
        result = json.loads(result_path.read_text())

    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    if args.trace:
        values = result["layers"]
        declared = _declared_metrics("per_layer")
        trace_note = f"traced {values['trace.wall_s']:.3f} s, overhead {values['trace.overhead_s']:+.3f} s"
        print(f"# {args.workload}: one traced round ({trace_note}); spans in {spans.relative_to(ROOT)}")
    else:
        rounds = result["round_walls"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rounds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = _declared_metrics("end_to_end")
        print(
            f"# {args.workload}: {len(rounds)} rounds of {result['ops_per_round']} operations "
            f"(fastest {min(rounds):.3f} s, slowest {max(rounds):.3f} s), setup over {len(setups)} interpreters"
        )
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, required=True, help="seed the workload's inputs are made from")
    parser.add_argument(
        "--seconds", type=float, default=_benchmark_spec()["run_seconds"],
        help="how long to run rounds (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finslerkit" / "__init__.py").is_file():
        print(f"error: no finslerkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            results.append(measure(argparse.Namespace(**{**vars(args), "workload": name})))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
