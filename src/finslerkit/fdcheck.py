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

The stencil points of a whole ladder are independent, so
:func:`fd_partials` evaluates those of several partials at one point as
one float array, in one call of a batched function
(:func:`finslerkit.metrics.f2_values`, say), and :func:`fd_partial` is its
one-partial case over a function of one point.  The points, the weights
``w / h^k`` (``h^k`` by the float power), the left-to-right stencil sums and
the Richardson windows are each formed as a per-point loop would form
them, in the same order, so a partial has the same bits however it is
batched.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["fd_partial", "fd_partials", "noise_floor", "LADDER_STEPS"]

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


def _active(coords, orders) -> list[tuple[int, int]]:
    """The ``(variable, order)`` pairs of ``orders`` with a positive order.
    An ``orders`` of another length than ``coords``, or an order outside
    0..4, raises ``ValueError``."""
    if len(orders) != len(coords):
        raise ValueError(f"{len(orders)} derivative orders for {len(coords)} coordinates")
    for k in orders:
        if k != 0 and k not in _STENCILS:
            raise ValueError(f"no stencil for single-variable order {k}")
    return [(i, int(k)) for i, k in enumerate(orders) if k > 0]


def _ladder(coords: list[float], active, stencil):
    """``(points, weights)`` of one partial: its stencil points on every
    ladder step, ``(steps * combinations, d)`` in the order a per-point loop
    visits them (steps, then the stencils' product with the last variable
    fastest), and each point's weight, ``(steps, combinations)``, from the
    ``stencil(i, k)`` of each active ``(i, k)``.  Without a derivative, the
    point itself and no weights."""
    if not active:
        return np.array([coords]), None
    grid = (LADDER_STEPS,) + tuple(len(_STENCILS[k]) for _, k in active)
    points = np.empty(grid + (len(coords),))
    points[...] = coords
    weights = 1.0
    for axis, (i, k) in enumerate(active, start=1):
        shifts, factors = stencil(i, k)
        shape = [LADDER_STEPS] + [1] * len(active)
        shape[axis] = shifts.shape[1]
        points[..., i] = coords[i] + shifts.reshape(shape)
        weights = weights * factors.reshape(shape)
    return points.reshape(-1, len(coords)), weights.reshape(LADDER_STEPS, -1)


def _richardson(ladder: np.ndarray):
    """The value of the window of :data:`LEVELS` adjacent ladder steps that
    :func:`fd_partial` keeps."""
    windows = ladder
    for stage in range(1, LEVELS):  # every window at once: they share stages
        factor = 4.0**stage
        windows = (factor * windows[1:] - windows[:-1]) / (factor - 1.0)
    best = 0
    if len(windows) > 1:
        best = 1 + min(range(len(windows) - 1), key=lambda w: abs(windows[w + 1] - windows[w]))
    return windows[best]


def fd_partials(fn, coords, orders_list) -> list:
    """:func:`fd_partial` of each multi-index of ``orders_list`` at ``coords``,
    by one call of ``fn``, which maps an ``(m, d)`` float array of points to
    their m values.  Each partial has the bits of its own
    :func:`fd_partial`; ``fn``'s points are the per-point calls' in order,
    so a ``fn`` that raises for the first point that fails raises what
    those calls would."""
    coords = [float(v) for v in coords]
    h = np.array([BASE_H / 2.0**j for j in range(LADDER_STEPS)])

    @functools.cache
    def stencil(i: int, k: int):
        """Variable i's order-k stencil on every ladder step, as arrays
        ``(steps, offsets)``: the shifts off * h_i and the factors w / h_i^k."""
        offsets, w = np.array(_STENCILS[k]).T
        steps = h * max(1.0, abs(coords[i]))
        powers = np.array([step**k for step in steps.tolist()])  # the float power's bits
        return offsets * steps[:, None], w / powers[:, None]

    ladders = [_ladder(coords, _active(coords, orders), stencil) for orders in orders_list]
    values = np.asarray(fn(np.concatenate([points for points, _ in ladders])))
    partials = []
    start = 0
    for points, weights in ladders:
        f = values[start : start + len(points)]
        start += len(points)
        if weights is None:
            partials.append(float(f[0]))
            continue
        # each step's stencil sum, from 0.0 and left to right: a running sum
        terms = np.concatenate([np.zeros((LADDER_STEPS, 1), f.dtype), weights * f.reshape(weights.shape)], axis=1)
        partials.append(_richardson(terms.cumsum(axis=1)[:, -1]))
    return partials


def fd_partial(fn, coords, orders) -> float:
    """Mixed partial of ``fn`` at ``coords`` by finite differences.

    ``fn`` maps a list of floats to a float; ``orders`` gives the
    derivative order per variable (each <= 4, total unrestricted but
    accuracy beyond total order 4 is poor).  Steps scale with the
    magnitude of each coordinate.  The ladder is ``BASE_H / 2**j`` for
    ``j < LADDER_STEPS``; each window of ``LEVELS`` adjacent steps gives
    one Richardson value, and of the adjacent pair of windows whose values
    differ least the one with the smaller steps is returned.  An
    ``orders`` of another length than ``coords``, or an order outside
    0..4, raises ``ValueError``.
    """
    return fd_partials(lambda points: [fn(p) for p in points.tolist()], coords, [orders])[0]


def noise_floor(f_scale: float, coords, orders) -> float:
    """Roundoff bound for the matching :func:`fd_partial` call.

    Each function evaluation carries absolute error ~eps * f_scale; the
    stencil sums amplify it by prod(sum|w| / h_i^k_i), worst at the
    smallest ladder step (so the bound holds whichever window
    :func:`fd_partial` keeps), and the extrapolation stages multiply it
    by at most prod (4^s + 1)/(4^s - 1).  A comparison whose true value
    sits below this bound measures nothing but floating-point noise.
    ``orders`` is checked as :func:`fd_partial` checks it.
    """
    coords = [float(v) for v in coords]
    active = _active(coords, orders)
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
