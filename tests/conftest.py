import pytest

# the oracles live in the package; re-exported for `from conftest import brute_force_*`
from sumparts.instances import brute_force_qubo, brute_force_tsp, load_bundled_tsp  # noqa: F401


@pytest.fixture(scope="session")
def eil51():
    return load_bundled_tsp("eil51")
