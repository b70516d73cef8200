import numpy as np
import pytest

from sumparts.decomposition import SplitCosts

# the oracles live in the package; re-exported for `from conftest import brute_force_*`
from sumparts.instances import brute_force_qubo, brute_force_tsp, load_bundled_tsp  # noqa: F401
from sumparts.instances import Tour, tour_cost
from sumparts.search import LK_BREADTH2, LK_DEPTH


@pytest.fixture(scope="session")
def eil51():
    return load_bundled_tsp("eil51")


def lk_chain_bound(k: int) -> int:
    """Most FEs one LK chain can charge: k first-level candidates, each followed
    by k second-level ones and the greedy extension of breadth2 of those
    through the remaining depth - 2 levels of k candidates."""
    return k * (1 + k + LK_BREADTH2 * (LK_DEPTH - 2) * k)


def make_tour(inst, order) -> Tour:
    """A Tour of order, a permutation of 0..n-1, with its cost computed in full."""
    order = np.asarray(order, dtype=np.intp)
    if sorted(order.tolist()) != list(range(inst.n)):
        raise ValueError("order is not a permutation of 0..n-1")
    return Tour(order, tour_cost(inst, order))


def half_split(inst) -> SplitCosts:
    """The degenerate c1 = c2 = c/2 decomposition (rho = 1 when costs vary):
    the limit of the bell as a grows, all its mass at c/2."""
    return SplitCosts(inst, inst.units[2] / 2.0, 1.0)
