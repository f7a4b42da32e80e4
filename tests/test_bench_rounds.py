"""One round of each benchmark workload, in-process, with its checks.

``bench/workloads.py`` builds each workload's inputs from a seed and gives
every operation the check that judges its output.  A library change that
makes an operation raise, or its output disagree with the benchmark's
reference, fails the benchmark run; this test runs one round of each
workload at a few seeds (the tower and the flow at ten) so that such a
change fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The bench's ``workloads`` and ``checks`` modules."""
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(BENCH))


# the tower runs every verify and inspect path of six metrics, and the flow
# evaluates its watched fields in batches of samples: ten seeds each, since
# one failing operation at a seed of its own fails a whole benchmark run
@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("tower", "flow") for seed in range(10)] + [("bracket", seed) for seed in range(3)],
)
def test_one_round_passes_every_check(bench, name, seed, tmp_path):
    workloads, checks = bench
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    workload.setup()
    workload.prepare()
    failures = []
    for op in workload.operations():
        try:
            op.check(op.run())
        except checks.CheckFailure as exc:
            failures.append(f"{op.label}: {exc}")
    assert not failures
