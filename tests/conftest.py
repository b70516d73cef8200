import pytest

# the oracles live in the package; re-exported for `from conftest import brute_force_*`
from sumparts.instances import brute_force_qubo, brute_force_tsp, load_bundled_tsp  # noqa: F401
from sumparts.search import LK_BREADTH2, LK_DEPTH


@pytest.fixture(scope="session")
def eil51():
    return load_bundled_tsp("eil51")


def lk_chain_bound(k: int) -> int:
    """Most FEs one LK chain can charge: k first-level candidates, each followed
    by k second-level ones and the greedy extension of breadth2 of those
    through the remaining depth - 2 levels of k candidates."""
    return k * (1 + k + LK_BREADTH2 * (LK_DEPTH - 2) * k)
