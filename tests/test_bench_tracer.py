"""The benchmark's tracer against the library it patches.

``bench/tracer.py`` wraps library names from outside: ``DualLayer.__mul__``,
``Jet.truncated``, the ``PointEvaluation`` stage attributes, the jet
signatures and the layer entry points.  A library change that renames or
removes one of them breaks the traced benchmark run; these tests catch it
with one small traced call of each kind the benchmark makes.
"""

import importlib
import sys
from pathlib import Path

import pytest

from finslerkit import cli, expr, fdcheck, flow, integrals, jets, metrics, tensors, verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
# every namespace the tracer patches
OWNERS = (
    cli, expr, fdcheck, flow, integrals, metrics, tensors, verify,
    jets.Jet, jets.DualLayer, tensors.PointEvaluation,
)


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def traced(tracer, funk):
    """One traced verify, bracket and short flow on the n = 3 ball, with
    the namespaces before, during and after tracing."""
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracer.Tracer() as t:
        during = [dict(vars(owner)) for owner in OWNERS]
        verify.verify_metric(funk, n_points=1, seed=3)
        point = ((0.1, -0.2, 0.15), (0.7, 0.3, -0.5))
        integrals.poisson_bracket_scaled(funk, "f1", "f2", point)
        traj = flow.integrate(funk, point, 0.05)
        integrals.evaluate_fields(funk, ["f1", "f2"], (traj.xs[-1], traj.ys[-1]))
    after = [dict(vars(owner)) for owner in OWNERS]
    return t, before, during, after


def test_layer_metrics_are_exactly_the_declared_ones(tracer, traced):
    t = traced[0]
    values = t.layer_metrics()
    assert list(values) == [name for name, _ in tracer.LAYER_METRICS]
    # the calls went through the patched names
    assert values["verify.metric_s.funk_ball_berwald"] > 0.0
    assert values["integrals.bracket_count"] == 1
    assert values["flow.steps"] > 0
    assert values["integrals.evaluate_fields_count"] >= 1
    assert values["jets.mul_count"] > 0
    assert values["tensors.evaluations.jet"] > 0


def test_every_patched_attribute_is_restored(traced):
    _, before, during, after = traced
    for owner, old, mid, new in zip(OWNERS, before, during, after):
        assert any(mid[name] is not old[name] for name in old), f"nothing of {owner!r} was patched"
        assert new.keys() == old.keys(), owner
        for name in old:
            assert new[name] is old[name], f"{owner!r}.{name} is not the original after exit"
