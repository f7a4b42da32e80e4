"""Jet-primitive probe: per-call cost of products, sqrt and recip at the
signatures the workloads use, and the cost of cold JetSpace table builds.

The probe's jets come from a fixed seed, not the run's seed, so every run
times the same arithmetic.  Each figure is the median over several batches,
each batch long enough to dwarf the timer's resolution.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from finslerkit import jets

PROBE_SEED = 20221017
MUL_SIGNATURES = ((6, 2), (6, 5), (6, 6), (8, 5), (8, 6))
SQRT_SIGNATURES = ((6, 6), (8, 6))
RECIP_SIGNATURES = ((6, 6),)
BATCHES = 7
BATCH_SECONDS = 0.02
TABLE_BUILD_REPEATS = 3

METRICS = (
    [(f"jets.probe.mul_us.d{d}o{o}", "us") for d, o in MUL_SIGNATURES]
    + [(f"jets.probe.sqrt_us.d{d}o{o}", "us") for d, o in SQRT_SIGNATURES]
    + [(f"jets.probe.recip_us.d{d}o{o}", "us") for d, o in RECIP_SIGNATURES]
    + [("jets.probe.table_build_s", "s")]
)


def _per_call_us(fn) -> float:
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - t0 >= BATCH_SECONDS:
            break
        calls *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def _fixed_jet(space, rng) -> jets.Jet:
    coeffs = 0.1 * rng.standard_normal(space.size)
    coeffs[0] = 1.5  # positive value part: sqrt and recip are defined
    return jets.Jet(space, coeffs)


def _cold_table_build_s(rng) -> float:
    """Seconds to build fresh (uninterned) spaces and their product and
    derivative tables for every probed signature."""
    t0 = perf_counter()
    for dim, order in MUL_SIGNATURES:
        a = _fixed_jet(jets.JetSpace(dim, order), rng)
        a * a
        for var in range(dim):
            a.d(var)
    return perf_counter() - t0


def run() -> dict[str, float]:
    rng = np.random.default_rng(PROBE_SEED)
    out = {}
    for dim, order in MUL_SIGNATURES:
        space = jets.jet_space(dim, order)
        a, b = _fixed_jet(space, rng), _fixed_jet(space, rng)
        out[f"jets.probe.mul_us.d{dim}o{order}"] = _per_call_us(lambda: a * b)
    for dim, order in SQRT_SIGNATURES:
        a = _fixed_jet(jets.jet_space(dim, order), rng)
        out[f"jets.probe.sqrt_us.d{dim}o{order}"] = _per_call_us(a.sqrt)
    for dim, order in RECIP_SIGNATURES:
        a = _fixed_jet(jets.jet_space(dim, order), rng)
        out[f"jets.probe.recip_us.d{dim}o{order}"] = _per_call_us(a.recip)
    out["jets.probe.table_build_s"] = statistics.median(
        _cold_table_build_s(rng) for _ in range(TABLE_BUILD_REPEATS)
    )
    return out
