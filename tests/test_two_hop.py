"""Block-vectorized two-hop scans against the per-neighbor loop they replace.

The reference loop below materializes every neighbor x', scores its whole
neighborhood with `first_improvement` and stops at the first x'' strictly
better than the start. The block scans must agree with it bit for bit: the
same rows, the same returned solution and the same FE charges, also under
`max_fe` caps that stop the scan before its first neighbor, mid-block and on
a block boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts import escape
from sumparts.decomposition import SplitParams, sample_split
from sumparts.escape import dominated_mask, ens, nds
from sumparts.instances import (
    MINIMIZE,
    QuboInstance,
    TspInstance,
    random_qubo_instance,
    random_tsp_instance,
)
from sumparts.landscape import promising_flags
from sumparts.search import Budget, FlipNeighborhood, TwoOptNeighborhood, descend, unlimited


def sequential_two_hop(view, sol, ks, d, budget):
    """The per-neighbor loop: materialize x', scan it, check the budget in between."""
    f_star = view.value(sol)
    for k in ks:
        if budget.exhausted():
            return sol
        cand = view.neighbor(sol, int(k), float(d[k]))
        j = view.first_improvement(cand, f_star - view.value(cand), budget)
        if j is not None:
            view.apply(cand, j)
            return cand
    return sol


def sequential_nds(sol, view, budget):
    d, d1, d2 = view.split_deltas(sol, budget)
    ks = np.flatnonzero(~dominated_mask(view.sense, d1, d2))
    return sequential_two_hop(view, sol, ks, d, budget)


def sequential_ens(sol, view, budget):
    d = view.deltas(sol, budget)
    return sequential_two_hop(view, sol, range(view.size), d, budget)


def sequential_promising_flags(x_star, view):
    f_star = view.value(x_star)
    d = view.deltas(x_star)
    flags = []
    for k in range(view.size):
        cand = view.neighbor(x_star, k, float(d[k]))
        inner = view.deltas(cand)
        threshold = f_star - view.value(cand)
        flags.append(np.any(inner < threshold) if view.sense == MINIMIZE
                     else np.any(inner > threshold))
    return np.asarray(flags, dtype=bool)


def solution_state(sol):
    if hasattr(sol, "order"):
        return sol.order.tobytes(), sol.cached_cost
    return (sol.bits.tobytes(), sol.cached_value, sol.gains.tobytes(),
            None if sol.gains1 is None else sol.gains1.tobytes(), sol.value1)


def assert_same_as_sequential(fast, slow, sol, view, max_fe):
    b_fast, b_slow = Budget(max_fe=max_fe), Budget(max_fe=max_fe)
    before = solution_state(sol)
    got = fast(sol, view, b_fast)
    want = slow(sol, view, b_slow)
    assert solution_state(sol) == before  # the start is never modified
    assert b_fast.consumed_fe == b_slow.consumed_fe
    assert (got is sol) == (want is sol)
    assert solution_state(got) == solution_state(want)


def boundary_caps(view, full_fe, rows):
    """FE caps around the scan: before the first neighbor, on and just past the
    first block boundaries, mid-block, and at and just under the whole scan."""
    size = view.size
    caps = {0, size, size + 1, size + size // 2, full_fe, full_fe - 1}
    for blocks in (1, 2):
        edge = size + blocks * rows * size  # first-hop deltas, then whole blocks
        caps |= {edge - 1, edge, edge + 1, edge - rows * size // 2}
    return sorted(c for c in caps if 0 <= c <= full_fe)


def tsp_view(n, seed, with_split, integral=True):
    """A 2-Opt view; non-integral costs make any reordering of a sum show."""
    inst = random_tsp_instance(n, seed=seed)
    if not integral:
        costs = inst.costs * np.random.default_rng(seed).uniform(0.5, 1.5, (n, n))
        costs = np.triu(costs, 1) + np.triu(costs, 1).T
        inst = TspInstance(name=inst.name, n=n, costs=costs, metric_tag="EXPLICIT")
    split = sample_split(inst, SplitParams(a=-2.0, seed=seed)) if with_split else None
    return TwoOptNeighborhood(inst, split)


def flip_view(n, seed):
    inst = random_qubo_instance(n, seed=seed, density=0.5)
    q = inst.q * np.random.default_rng(seed).uniform(0.5, 1.5, (n, n))
    inst = QuboInstance(name=inst.name, n=n, q=np.triu(q) + np.triu(q, 1).T)
    return FlipNeighborhood(inst, sample_split(inst, SplitParams(a=0.0, seed=seed)))


class TestTwoHopDeltas:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(5, 40), seed=st.integers(0, 10_000), with_split=st.booleans(),
           integral=st.booleans(), optimum=st.booleans())
    def test_two_opt_rows_bit_equal_to_materialized(self, n, seed, with_split, integral,
                                                    optimum):
        view = tsp_view(n, seed, with_split, integral)
        tour = view.random_solution(np.random.default_rng(seed))
        if optimum:
            descend(view, tour, unlimited())
        d = view.deltas(tour)
        ks = np.random.default_rng(seed + 1).permutation(view.size)[:max(1, view.size // 2)]
        rows, values = view.two_hop_deltas(tour, ks, d)
        assert rows.shape == (ks.shape[0], view.size)
        for row, value, k in zip(rows, values, ks):
            cand = view.neighbor(tour, int(k), float(d[k]))
            assert np.array_equal(row, view.deltas(cand))
            assert value == view.value(cand)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 40), seed=st.integers(0, 10_000))
    def test_split_aware_flip_rows_bit_equal_to_materialized(self, n, seed):
        view = flip_view(n, seed)
        bv = view.random_solution(np.random.default_rng(seed))
        d = view.deltas(bv)
        ks = np.random.default_rng(seed + 1).permutation(n)
        rows, values = view.two_hop_deltas(bv, ks, d)
        for row, value, k in zip(rows, values, ks):
            cand = view.neighbor(bv, int(k))
            assert np.array_equal(row, view.deltas(cand))
            assert value == view.value(cand)
        assert np.array_equal(bv.gains, d)  # the start is not flipped


class TestScansMatchSequentialLoop:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 24), seed=st.integers(0, 10_000),
           integral=st.booleans(), rows=st.sampled_from([1, 2, 3, 7, None]),
           cap_seed=st.integers(0, 2**32 - 1))
    def test_two_opt_nds_and_ens_under_caps(self, n, seed, integral, rows, cap_seed):
        view = tsp_view(n, seed, with_split=True, integral=integral)
        tour = view.random_solution(np.random.default_rng(seed))
        descend(view, tour, unlimited())
        self._check_caps(view, tour, rows, cap_seed)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 40), seed=st.integers(0, 10_000),
           rows=st.sampled_from([1, 2, 5, None]), cap_seed=st.integers(0, 2**32 - 1))
    def test_flip_nds_and_ens_under_caps(self, n, seed, rows, cap_seed):
        view = flip_view(n, seed)
        bv = view.random_solution(np.random.default_rng(seed))
        descend(view, bv, unlimited())
        self._check_caps(view, bv, rows, cap_seed)

    @staticmethod
    def _check_caps(view, sol, rows, cap_seed):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:  # small blocks, so caps can land on their boundaries
                mp.setattr(escape, "BLOCK_DELTAS", rows * view.size)
            block_rows = max(1, escape.BLOCK_DELTAS // view.size)
            for fast, slow in ((nds, sequential_nds), (ens, sequential_ens)):
                full = Budget()
                slow(sol, view, full)
                caps = boundary_caps(view, full.consumed_fe, block_rows)
                rng = np.random.default_rng(cap_seed)
                caps.append(int(rng.integers(0, full.consumed_fe + 1)))
                for cap in [None, *caps]:
                    assert_same_as_sequential(fast, slow, sol, view, cap)

    def test_eil51_default_blocks_under_caps(self, eil51):
        split = sample_split(eil51, SplitParams(a=-12.0, seed=0))
        view = TwoOptNeighborhood(eil51, split)
        rows = escape.BLOCK_DELTAS // view.size
        assert rows == 13
        for seed in range(3):
            tour = view.random_solution(np.random.default_rng(seed))
            descend(view, tour, unlimited())
            for fast, slow in ((nds, sequential_nds), (ens, sequential_ens)):
                full = Budget()
                slow(tour, view, full)
                for cap in [None, *boundary_caps(view, full.consumed_fe, rows)]:
                    assert_same_as_sequential(fast, slow, tour, view, cap)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(5, 30), seed=st.integers(0, 10_000),
           rows=st.sampled_from([1, 4, None]))
    def test_promising_flags(self, n, seed, rows):
        view = tsp_view(n, seed, with_split=False)
        tour = view.random_solution(np.random.default_rng(seed))
        descend(view, tour, unlimited())
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(escape, "BLOCK_DELTAS", rows * view.size)
            assert np.array_equal(promising_flags(tour, view),
                                  sequential_promising_flags(tour, view))

    def test_promising_flags_eil51(self, eil51):
        view = TwoOptNeighborhood(eil51)
        tour = view.random_solution(np.random.default_rng(4))
        descend(view, tour, unlimited())
        flags = promising_flags(tour, view)
        assert flags.any()
        assert np.array_equal(flags, sequential_promising_flags(tour, view))
