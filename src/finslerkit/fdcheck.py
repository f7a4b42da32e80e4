"""Independent derivative oracle: Richardson-extrapolated central differences.

Used to validate jet-propagated partials against a method that shares no
code with the jet arithmetic.  Mixed partials are tensor products of 1-d
central stencils (each of even-order accuracy, so the combined error is a
series in h^2), evaluated on a geometric ladder of step sizes and
Richardson-extrapolated.

Accuracy is limited by roundoff amplification ~eps/h^k for a k-th
derivative and by the h^6 extrapolation remainder.  No single step suits
every partial: a first derivative wants the smallest step, a fourth
derivative of a function with moderate higher derivatives loses ~1e-4
relative to roundoff at h = 0.01.  So :func:`fd_partial` extrapolates
every window of :data:`LEVELS` adjacent steps of a ladder from
:data:`BASE_H` = 0.16 down to 0.01 and keeps the window whose value moves
least against its neighbour (the plateau between the truncation and the
roundoff regimes).  Values
below :func:`noise_floor` are invisible to the oracle entirely, so
comparisons should gate on it rather than trust a raw relative error.
"""

from __future__ import annotations

import itertools

__all__ = ["fd_partial", "noise_floor", "LADDER_STEPS"]

BASE_H = 0.16
LEVELS = 3
LADDER_STEPS = 5

# (offset, weight) pairs; weight already includes the stencil's rational
# factor, so the k-th derivative is sum(w * f(x + off*h)) / h^k.
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def fd_partial(fn, coords, orders) -> float:
    """Mixed partial of ``fn`` at ``coords`` by finite differences.

    ``fn`` maps a list of floats to a float; ``orders`` gives the
    derivative order per variable (each <= 4, total unrestricted but
    accuracy beyond total order 4 is poor).  Steps scale with the
    magnitude of each coordinate.  The ladder is ``BASE_H / 2**j`` for
    ``j < LADDER_STEPS``; each window of ``LEVELS`` adjacent steps gives
    one Richardson value, and of the adjacent pair of windows whose values
    differ least the one with the smaller steps is returned.
    """
    coords = [float(v) for v in coords]
    active = [(i, k) for i, k in enumerate(orders) if k > 0]
    for _, k in active:
        if k not in _STENCILS:
            raise ValueError(f"no stencil for single-variable order {k}")
    if not active:
        return float(fn(coords))

    def resolved(h: float) -> float:
        acc = 0.0
        stencil_sets = [_STENCILS[k] for _, k in active]
        steps = [h * max(1.0, abs(coords[i])) for i, _ in active]
        for combo in itertools.product(*stencil_sets):
            point = list(coords)
            weight = 1.0
            for (i, k), (off, w), hi in zip(active, combo, steps):
                point[i] += off * hi
                weight *= w / hi**k
            acc += weight * fn(point)
        return acc

    def extrapolated(values):
        for stage in range(1, LEVELS):
            factor = 4.0**stage
            values = [(factor * values[j + 1] - values[j]) / (factor - 1.0) for j in range(len(values) - 1)]
        return values[0]

    ladder = [resolved(BASE_H / 2.0**j) for j in range(LADDER_STEPS)]
    windows = [extrapolated(ladder[w : w + LEVELS]) for w in range(LADDER_STEPS - LEVELS + 1)]
    best = 0
    if len(windows) > 1:
        best = 1 + min(range(len(windows) - 1), key=lambda w: abs(windows[w + 1] - windows[w]))
    return windows[best]


def noise_floor(f_scale: float, coords, orders) -> float:
    """Roundoff bound for the matching :func:`fd_partial` call.

    Each function evaluation carries absolute error ~eps * f_scale; the
    stencil sums amplify it by prod(sum|w| / h_i^k_i), worst at the
    smallest ladder step (so the bound holds whichever window
    :func:`fd_partial` keeps), and the extrapolation stages multiply it
    by at most prod (4^s + 1)/(4^s - 1).  A comparison whose true value
    sits below this bound measures nothing but floating-point noise.
    """
    coords = [float(v) for v in coords]
    active = [(i, k) for i, k in enumerate(orders) if k > 0]
    if not active:
        return 2.3e-16 * abs(f_scale)
    h_min = BASE_H / 2.0 ** (LADDER_STEPS - 1)
    amp = 1.0
    for i, k in active:
        hi = h_min * max(1.0, abs(coords[i]))
        amp *= sum(abs(w) for _, w in _STENCILS[k]) / hi**k
    for stage in range(1, LEVELS):
        factor = 4.0**stage
        amp *= (factor + 1.0) / (factor - 1.0)
    return 2.3e-16 * abs(f_scale) * amp
