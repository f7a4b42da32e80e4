import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from finslerkit import jets, metrics, tensors


@pytest.fixture(scope="session")
def catalog3():
    return metrics.catalog(3)


@pytest.fixture(scope="session")
def funk(catalog3):
    return catalog3["funk_ball_berwald"]


@pytest.fixture(scope="session")
def euclid(catalog3):
    return catalog3["euclidean"]


@pytest.fixture(scope="session")
def skew(catalog3):
    return catalog3["riemannian_flat_skew"]


@pytest.fixture(scope="session")
def sphere(catalog3):
    return catalog3["riemannian_round_sphere"]


@pytest.fixture(scope="session")
def randers():
    """Randers norm |y| + b.y with constant b, as a custom F^2."""
    return metrics.parse_metric(
        "[metric]\nname = randers3\ndimension = 3\nfamily = custom\n"
        "expression = (sqrt(normy2) + 0.3*y1 - 0.2*y3)^2\n"
    )


@pytest.fixture(scope="session")
def written():
    """Riemannian metric with a literal component, an explicit zero, and one
    off-diagonal entry written two ways that agree only in value."""
    return metrics.parse_metric(
        "[metric]\nname = written\ndimension = 3\nfamily = riemannian\n"
        "g_1_1 = 2\ng_2_2 = 1.5 + x1^2\ng_3_3 = exp(x2)\n"
        "g_1_2 = 0.3*x1\ng_2_1 = x1*0.3\ng_1_3 = 0\ng_2_3 = 0.1\n"
    )


@pytest.fixture
def origin_point():
    """Center of the ball, axis velocity: every tensor there has a short closed form."""
    return tensors.PhasePoint((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


@pytest.fixture
def jet_products(monkeypatch):
    """Counts jet-by-jet products while the test runs: in total in
    ``.count`` and per signature ``(dim, order, x_cap)`` in ``.by_space``.
    A product of two tensors counts one product per entry of the result,
    so batching entries changes no count.  Scaling a jet by a number is
    not a table product and is not counted."""
    counter = SimpleNamespace(count=0, by_space=Counter())
    products = jets._products

    def counted(space, a, b):
        entries = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        counter.count += entries
        counter.by_space[space.dim, space.order, space.x_cap] += entries
        return products(space, a, b)

    monkeypatch.setattr(jets, "_products", counted)
    return counter
