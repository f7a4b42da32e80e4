"""The finite-difference oracle: the batched stencils against a per-point
loop, bit for bit, and the checks of its arguments."""

import itertools

import numpy as np
import pytest

from finslerkit import fdcheck, metrics, verify

# exp, ln and a rational power, each over a variable, beside |y|^2
CUSTOM = (
    "[metric]\nname = elementary\ndimension = 3\nfamily = custom\n"
    "expression = exp(0.3*x1)*normy2 + ln(2 + x2)*(y1^2 + y3^2) + (normy2^2 + y2^4)^(1/2)\n"
)


def _loop_fd_partial(fn, coords, orders):
    """The oracle as one loop over the stencil points, calling ``fn`` on each
    point in turn: the reference the batched stencils must reproduce."""
    coords = [float(v) for v in coords]
    active = [(i, k) for i, k in enumerate(orders) if k > 0]
    if not active:
        return float(fn(coords))

    def resolved(h):
        acc = 0.0
        steps = [h * max(1.0, abs(coords[i])) for i, _ in active]
        for combo in itertools.product(*(fdcheck._STENCILS[k] for _, k in active)):
            point = list(coords)
            weight = 1.0
            for (i, k), (off, w), hi in zip(active, combo, steps):
                point[i] += off * hi
                weight *= w / hi**k
            acc += weight * fn(point)
        return acc

    def extrapolated(values):
        for stage in range(1, fdcheck.LEVELS):
            factor = 4.0**stage
            values = [(factor * values[j + 1] - values[j]) / (factor - 1.0) for j in range(len(values) - 1)]
        return values[0]

    ladder = [resolved(fdcheck.BASE_H / 2.0**j) for j in range(fdcheck.LADDER_STEPS)]
    windows = [extrapolated(ladder[w : w + fdcheck.LEVELS]) for w in range(fdcheck.LADDER_STEPS - fdcheck.LEVELS + 1)]
    best = 1 + min(range(len(windows) - 1), key=lambda w: abs(windows[w + 1] - windows[w]))
    return windows[best]


@pytest.fixture(scope="module")
def tower_specs(catalog3, randers):
    """The six metrics of the benchmark's tower workload and a custom
    energy with exp, ln and a rational power."""
    specs = dict(catalog3)
    specs["ball4"] = metrics.catalog(4)["funk_ball_berwald"]
    specs["randers3"] = randers
    specs["elementary"] = metrics.parse_metric(CUSTOM)
    return specs


@pytest.mark.parametrize(
    "name",
    ["euclidean", "funk_ball_berwald", "riemannian_flat_skew", "riemannian_round_sphere", "ball4", "randers3", "elementary"],
)
def test_batched_oracle_has_the_bits_of_a_per_point_loop(tower_specs, name):
    spec = tower_specs[name]
    n = spec.dimension
    idxs = verify._fd_index_sample(n)

    def f2(c):
        return metrics.f2_value(spec, c[:n], c[n:])

    for p in metrics.sample_points(spec, 2, 3):
        coords = list(0.5 * np.asarray(p.x)) + list(p.y)  # as verify places the stencils
        batched = fdcheck.fd_partials(lambda points: metrics.f2_values(spec, points), coords, idxs)
        for m, got in zip(idxs, batched):
            want = _loop_fd_partial(f2, coords, m)
            assert float(got).hex() == want.hex(), m
            assert float(fdcheck.fd_partial(f2, coords, m)).hex() == want.hex(), m


def test_batched_points_are_the_loop_points_in_order(funk):
    seen = []

    def f2(c):
        seen.append(tuple(c))
        return metrics.f2_value(funk, c[:3], c[3:])

    coords = [0.1, -0.2, 0.15, 0.8, 0.3, -0.5]
    idxs = verify._fd_index_sample(3)
    for m in idxs:
        _loop_fd_partial(f2, coords, m)
    loop_points, seen[:] = list(seen), []
    fdcheck.fd_partials(lambda points: [f2(p) for p in points.tolist()], coords, idxs)
    assert seen == loop_points
    assert len(seen) == 290


def test_order_zero_is_the_value_itself(funk):
    coords = [0.1, -0.2, 0.15, 0.8, 0.3, -0.5]
    got = fdcheck.fd_partials(lambda points: metrics.f2_values(funk, points), coords, [(0,) * 6, (1, 0, 0, 0, 0, 0)])
    assert got[0] == metrics.f2_value(funk, coords[:3], coords[3:])
    assert fdcheck.fd_partial(lambda c: metrics.f2_value(funk, c[:3], c[3:]), coords, (0,) * 6) == got[0]


@pytest.mark.parametrize(
    "orders, message",
    [
        ((5, 0), "no stencil for single-variable order 5"),
        ((-1, 0), "no stencil for single-variable order -1"),
        ((1, 0, 0), "3 derivative orders for 2 coordinates"),
        ((1,), "1 derivative orders for 2 coordinates"),
    ],
)
def test_both_functions_reject_a_bad_multi_index_alike(orders, message):
    coords = [0.1, 0.2]
    with pytest.raises(ValueError) as from_partial:
        fdcheck.fd_partial(lambda c: c[0] * c[0], coords, orders)
    with pytest.raises(ValueError) as from_floor:
        fdcheck.noise_floor(1.0, coords, orders)
    assert str(from_partial.value) == str(from_floor.value) == message


def test_the_oracle_of_a_verify_point_is_one_array_call(funk, monkeypatch):
    """verify_metric evaluates the stencils of each oracle point as one float
    array: a return to one F^2 call per stencil point fails here."""
    array_calls = []
    eval_F2 = metrics.eval_F2

    def counted(spec, xs, ys):
        if isinstance(xs[0], np.ndarray):
            array_calls.append(len(xs[0]))
        return eval_F2(spec, xs, ys)

    monkeypatch.setattr(metrics, "eval_F2", counted)
    verify.verify_metric(funk, 2, 5)
    assert array_calls == [290, 290]
