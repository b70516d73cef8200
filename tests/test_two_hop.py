"""Block-vectorized two-hop scans against the per-neighbor loop they replace.

The reference loop below materializes every neighbor x', scores its whole
neighborhood with `first_improvement` and stops at the first x'' strictly
better than the start. The block scans must agree with it bit for bit: the
same hit flag per neighbor, at any threshold, the same returned solution
and the same FE charges, also under `max_fe` caps that stop the scan before
its first neighbor, mid-block and on a block boundary. The O(n) stage of a
2-Opt scan scores only the neighbors its O(1) screen leaves, in chunks whose
sizes and budget checks `TestChunks` counts.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumparts import escape, search
from sumparts.decomposition import SplitParams, sample_split
from sumparts.escape import dominated_mask, ens, nds
from sumparts.instances import (
    MINIMIZE,
    QuboInstance,
    TspInstance,
    parse_orlib_bqp,
    random_qubo_instance,
    random_tsp_instance,
    synthetic_orlib_text,
)
from sumparts.landscape import promising_flags
from sumparts.search import (
    Budget,
    FlipNeighborhood,
    TwoOptNeighborhood,
    descend,
    tabu_search,
)


def sequential_two_hop(view, sol, ks, d, budget):
    """The per-neighbor loop: materialize x', scan it, check the budget in between."""
    f_star = view.value(sol)
    for k in ks:
        if budget.exhausted():
            return sol
        cand = view.neighbor(sol, int(k), float(d[k]))
        if view.first_improvement(cand, f_star - view.value(cand), budget):
            return cand
    return sol


def sequential_nds(sol, view, budget):
    d, d1, d2 = view.split_deltas(sol)
    budget.charge(view.size)
    ks = np.flatnonzero(~dominated_mask(view.sense, d1, d2))
    return sequential_two_hop(view, sol, ks, d, budget)


def sequential_ens(sol, view, budget):
    d = view.deltas(sol)
    budget.charge(view.size)
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
    return sol.bits.tobytes(), sol.cached_value, sol.gains.tobytes()


def assert_same_as_sequential(fast, slow, sol, view, max_fe):
    b_fast, b_slow = Budget(max_fe=max_fe), Budget(max_fe=max_fe)
    before = solution_state(sol)
    got = fast(sol, view, b_fast)
    want = slow(sol, view, b_slow)
    assert solution_state(sol) == before  # the start is never modified
    assert b_fast.consumed_fe == b_slow.consumed_fe
    assert (got is sol) == (want is sol)
    assert solution_state(got) == solution_state(want)
    return b_fast.consumed_fe


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
        inst = TspInstance(name=inst.name, n=n, costs=costs)
    split = sample_split(inst, SplitParams(a=-2.0, seed=seed)) if with_split else None
    return TwoOptNeighborhood(inst, split)


def flip_view(n, seed):
    inst = random_qubo_instance(n, seed=seed, density=0.5)
    q = inst.q * np.random.default_rng(seed).uniform(0.5, 1.5, (n, n))
    inst = QuboInstance(name=inst.name, n=n, q=np.triu(q) + np.triu(q, 1).T)
    return FlipNeighborhood(inst, sample_split(inst, SplitParams(a=0.0, seed=seed)))


class TestScansMatchSequentialLoop:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 24), seed=st.integers(0, 10_000),
           integral=st.booleans(), rows=st.sampled_from([1, 2, 3, 7, None]),
           cap_seed=st.integers(0, 2**32 - 1))
    def test_two_opt_nds_and_ens_under_caps(self, n, seed, integral, rows, cap_seed):
        view = tsp_view(n, seed, with_split=True, integral=integral)
        tour = view.random_solution(np.random.default_rng(seed))
        descend(view, tour, Budget())
        self._check_caps(view, tour, rows, cap_seed)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 40), seed=st.integers(0, 10_000),
           rows=st.sampled_from([1, 2, 5, None]), cap_seed=st.integers(0, 2**32 - 1))
    def test_flip_nds_and_ens_under_caps(self, n, seed, rows, cap_seed):
        view = flip_view(n, seed)
        bv = view.random_solution(np.random.default_rng(seed))
        descend(view, bv, Budget())
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
                    fe = assert_same_as_sequential(fast, slow, sol, view, cap)
                    assert cap is None or fe - cap <= view.size

    def test_eil51_default_blocks_under_caps(self, eil51):
        split = sample_split(eil51, SplitParams(a=-12.0, seed=0))
        view = TwoOptNeighborhood(eil51, split)
        rows = escape.BLOCK_DELTAS // view.size
        assert rows == 13
        for seed in range(3):
            tour = view.random_solution(np.random.default_rng(seed))
            descend(view, tour, Budget())
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
        descend(view, tour, Budget())
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(escape, "BLOCK_DELTAS", rows * view.size)
            assert np.array_equal(promising_flags(tour, view),
                                  sequential_promising_flags(tour, view))

    def test_promising_flags_eil51(self, eil51):
        view = TwoOptNeighborhood(eil51)
        tour = view.random_solution(np.random.default_rng(4))
        descend(view, tour, Budget())
        flags = promising_flags(tour, view)
        assert flags.any()
        assert np.array_equal(flags, sequential_promising_flags(tour, view))


def tsp_costs_view(n, seed, costs):
    """A 2-Opt view with integral, non-integral or tie-heavy (thirds) costs."""
    inst = random_tsp_instance(n, seed=seed)
    rng = np.random.default_rng(seed)
    if costs == "integral":
        return TwoOptNeighborhood(inst)
    if costs == "real":
        c = inst.costs * rng.uniform(0.5, 1.5, (n, n))
    else:
        c = np.round(rng.uniform(0.0, 2.0, (n, n)) * 3.0) / 3.0
    c = np.triu(c, 1) + np.triu(c, 1).T
    return TwoOptNeighborhood(TspInstance(name=inst.name, n=n, costs=c))


def flags_in_two_chunks(view, sol, d, ks, thr):
    """`two_hop_best(sol, d)` flags of ks at thresholds thr, in a chunk larger
    than any block before it on view and then a smaller one. In between, the
    view flags the first chunk for another solution, which rewrites its scratch."""
    hits_of = view.two_hop_best(sol, d)
    cut = len(ks) // 2 + 1
    first = hits_of(ks[:cut], thr[:cut])
    other = view.random_solution(np.random.default_rng(len(ks)))
    view.two_hop_best(other, view.deltas(other))(ks[:cut], thr[:cut])
    return np.concatenate([first, hits_of(ks[cut:], thr[cut:])])


def new_edge_moves(view, k):
    """Which moves of neighbor k = (P, Q) remove exactly one of its new edges,
    the ones at its positions P and Q."""
    new = [view.p[k], view.q[k]]
    return np.isin(view.p, new) ^ np.isin(view.q, new)


def descended_tour(view, seed, descended):
    tour = view.random_solution(np.random.default_rng(seed))
    if descended:  # capped: on thirds a move and its inverse can both read just below 0
        descend(view, tour, Budget(max_fe=100 * view.size))
    return tour


two_opt_cases = given(n=st.integers(4, 40), seed=st.integers(0, 10_000),
                      costs=st.sampled_from(["integral", "real", "thirds"]),
                      descended=st.booleans())


class TestTwoHopBest:
    @settings(max_examples=80, deadline=None)
    @two_opt_cases
    # these fail when the two subtractions of X or of Z are swapped
    @example(n=8, seed=25, costs="real", descended=False)
    @example(n=8, seed=2, costs="thirds", descended=False)
    @example(n=9, seed=0, costs="thirds", descended=False)
    def test_two_opt_best_equals_row_min(self, n, seed, costs, descended):
        """No neighbor beats its exact best delta, and every one beats the
        next float above it: this pins the implied best bit for bit, through
        the bound that rules neighbors out."""
        view = tsp_costs_view(n, seed, costs)
        tour = descended_tour(view, seed, descended)
        d = view.deltas(tour)
        # every neighbor, so also those with lo = 1 and with hi = n - 1
        ks = np.random.default_rng(seed + 1).permutation(view.size)
        best = np.array([view.deltas(view.neighbor(tour, int(k), float(d[k]))).min()
                         for k in ks])
        assert not flags_in_two_chunks(view, tour, d, ks, best).any()
        assert flags_in_two_chunks(view, tour, d, ks, np.nextafter(best, np.inf)).all()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 40), seed=st.integers(0, 10_000))
    def test_flip_best_equals_row_max(self, n, seed):
        view = flip_view(n, seed)
        bv = view.random_solution(np.random.default_rng(seed))
        d = view.deltas(bv)
        ks = np.random.default_rng(seed + 1).permutation(n)
        best = np.array([view.deltas(view.neighbor(bv, int(k), float(d[k]))).max() for k in ks])
        assert not flags_in_two_chunks(view, bv, d, ks, best).any()
        assert flags_in_two_chunks(view, bv, d, ks, np.nextafter(best, -np.inf)).all()
        assert np.array_equal(bv.gains, d)  # the start is not flipped

    @settings(max_examples=60, deadline=None)
    @two_opt_cases
    def test_bound_is_below_every_new_edge_move(self, n, seed, costs, descended):
        """The bound less tol is at most neighbor k's least delta over the moves
        through one of its new edges and one tour edge."""
        view = tsp_costs_view(n, seed, costs)
        tour = descended_tour(view, seed, descended)
        d = view.deltas(tour)
        real, seen = search._new_edge_bound, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_new_edge_bound", lambda *args: (seen.append(real(*args)),
                                                                 seen[-1].copy())[1])
            view.two_hop_best(tour, d)
        lb, = seen  # every neighbor, in move order
        for k in range(view.size):
            moves = new_edge_moves(view, k)
            if moves.any():
                cand = view.neighbor(tour, k, float(d[k]))
                assert lb[k] - view.inst.tol <= view.deltas(cand)[moves].min()

    def test_promising_flags_score_under_a_quarter_of_eil51_neighbors(self, eil51, monkeypatch):
        """The bound rules out most neighbors of an eil51 optimum: the O(n)
        column kernel scores fewer than a quarter of them (209 of 1224; 422
        without gain's u != y), and the flags stay exact."""
        view = TwoOptNeighborhood(eil51)
        tour = view.random_solution(np.random.default_rng(4))
        descend(view, tour, Budget())
        columns = []
        kernel = search._new_edge_best
        monkeypatch.setattr(search, "_new_edge_best",
                            lambda *args: (columns.append(len(args[2])), kernel(*args))[1])
        flags = promising_flags(tour, view)
        assert 0 < sum(columns) < view.size / 4
        monkeypatch.undo()
        assert np.array_equal(flags, sequential_promising_flags(tour, view))

    def test_eil51_caps_at_real_block_edges(self, eil51):
        """nds/ens against the per-neighbor loop with caps on and next to the
        edges of the blocks the 2-Opt scan really uses on eil51."""
        split = sample_split(eil51, SplitParams(a=-12.0, seed=0))
        view = TwoOptNeighborhood(eil51, split)
        rows = escape.BLOCK_DELTAS // eil51.n
        assert rows < view.size  # a full scan spans more than one block
        past_first_block = set()
        for seed in (3, 5):
            tour = view.random_solution(np.random.default_rng(seed))
            descend(view, tour, Budget())
            for fast, slow in ((nds, sequential_nds), (ens, sequential_ens)):
                full = Budget()
                slow(tour, view, full)
                if full.consumed_fe > view.size * (1 + rows):
                    past_first_block.add(fast)
                for cap in [None, *boundary_caps(view, full.consumed_fe, rows)]:
                    fe = assert_same_as_sequential(fast, slow, tour, view, cap)
                    assert cap is None or fe - cap <= view.size
        assert past_first_block == {nds, ens}


def record_kernel(monkeypatch, view) -> list:
    """Wrap search._new_edge_best; each call appends its neighbors as move indices."""
    n = view.inst.n
    move = np.full((n, n), -1)
    move[view.p, view.q] = np.arange(view.size)
    calls, kernel = [], search._new_edge_best

    def counted(flat, ix, pk, qk, scratch):
        calls.append(move[pk, qk])
        return kernel(flat, ix, pk, qk, scratch)

    monkeypatch.setattr(search, "_new_edge_best", counted)
    return calls


def escape_neighbors(view, sol, fast):
    """The neighbors nds or ens scans from sol, and sol's move deltas."""
    if fast is nds:
        d, d1, d2 = view.split_deltas(sol)
        return np.flatnonzero(~dominated_mask(view.sense, d1, d2)), d
    return np.arange(view.size), view.deltas(sol)


def screened(view, sol, ks, d):
    """The screen's exact flags of ks and the positions it leaves to the score."""
    f_star = view.value(sol)
    screen = view.two_hop_best(sol, d).screen
    if screen is None:  # every neighbor survives
        return np.zeros(len(ks), dtype=bool), np.arange(len(ks))
    return screen(ks, f_star - (f_star + d[ks]))


@dataclass
class ExhaustedAfter(Budget):
    """A budget that reads as exhausted from its checks-th check on."""

    checks: int = 1

    def exhausted(self) -> bool:
        self.checks -= 1
        return self.checks <= 0 or super().exhausted()


def eil51_descended(eil51, seed, with_split=True):
    view = TwoOptNeighborhood(eil51, sample_split(eil51, SplitParams(a=-12.0, seed=0))
                              if with_split else None)
    tour = view.random_solution(np.random.default_rng(seed))
    descend(view, tour, Budget())
    return view, tour


class TestChunks:
    """The O(n) score runs on the screen's survivors, in chunks of at most
    BLOCK_DELTAS // n columns (321 on eil51), and a first-hit scan scores none
    at or after the first neighbor the screen flags."""

    @pytest.mark.parametrize("columns", [None, 2, 3])
    def test_promising_flags_score_each_survivor_once(self, eil51, monkeypatch, columns):
        view, tour = eil51_descended(eil51, 4, with_split=False)
        if columns is not None:
            monkeypatch.setattr(escape, "BLOCK_DELTAS", columns * eil51.n)
        cap = escape.BLOCK_DELTAS // eil51.n
        calls = record_kernel(monkeypatch, view)
        flags = promising_flags(tour, view)
        _, rest = screened(view, tour, np.arange(view.size), view.deltas(tour))
        assert len(calls) == -(-len(rest) // cap)
        assert columns is not None or len(calls) == 1
        assert max(map(len, calls)) <= cap
        assert np.array_equal(np.concatenate(calls), rest)
        assert np.array_equal(flags, sequential_promising_flags(tour, view))

    @pytest.mark.parametrize("columns", [None, 2, 3])
    def test_first_hit_scans_stop_at_the_first_chunk_with_a_hit(self, eil51, monkeypatch,
                                                               columns):
        if columns is not None:
            monkeypatch.setattr(escape, "BLOCK_DELTAS", columns * eil51.n)
        cap = escape.BLOCK_DELTAS // eil51.n
        unscored = 0
        for seed in (0, 1, 2, 3):  # first flags early, late, at 34 and 99, and none
            view, tour = eil51_descended(eil51, seed)
            calls = record_kernel(monkeypatch, view)
            for fast, slow in ((nds, sequential_nds), (ens, sequential_ens)):
                ks, d = escape_neighbors(view, tour, fast)
                hit, rest = screened(view, tour, ks, d)
                first = int(hit.argmax()) if hit.any() else len(ks)
                before = rest[rest < first]
                escaped = fast(tour, view, Budget()) is not tour
                calls.clear()
                fe = assert_same_as_sequential(fast, slow, tour, view, None)
                scored = np.concatenate(calls) if calls else np.empty(0, np.intp)
                want = before
                if escaped:
                    at = (fe - view.size - 1) // view.size  # the neighbor that succeeds
                    if at != first:  # a survivor: its chunk is the last
                        want = before[:(np.searchsorted(before, at) // cap + 1) * cap]
                assert np.array_equal(scored, ks[want])
                assert all(len(c) == cap for c in calls[:-1])
                assert all(0 < len(c) <= cap for c in calls)
                unscored += len(rest) - len(scored)
        assert unscored > 0

    @pytest.mark.parametrize("qubo", [False, True])
    def test_budget_is_checked_before_every_chunk(self, eil51, monkeypatch, qubo):
        """A scan whose budget runs out stops at a chunk boundary and charges
        what the sequential scan charges up to the end of the block before it."""
        if qubo:  # a tabu optimum, so that nds and ens both fail
            inst = random_qubo_instance(40, seed=0, density=0.1)
            view = FlipNeighborhood(inst, sample_split(inst, SplitParams(a=0.0, seed=0)))
            sol = view.random_solution(np.random.default_rng(0))
            sol = tabu_search(inst, sol, np.random.default_rng(0), Budget(max_fe=200 * inst.n))
            descend(view, sol, Budget())
        else:
            view, sol = eil51_descended(eil51, 1)
        monkeypatch.setattr(escape, "BLOCK_DELTAS", 2 * view.inst.n)
        stopped = 0
        for fast, slow in ((nds, sequential_nds), (ens, sequential_ens)):
            ks, d = escape_neighbors(view, sol, fast)
            hit, rest = screened(view, sol, ks, d)
            before = rest[rest < (int(hit.argmax()) if hit.any() else len(ks))]
            for checks in range(1, min(8, (len(before) + 1) // 2 + 1)):
                budget = ExhaustedAfter(checks=checks)
                got = fast(sol, view, budget)
                end = int(before[2 * (checks - 1) - 1]) + 1 if checks > 1 else 0
                sequential = Budget(max_fe=view.size * (1 + end))
                want = slow(sol, view, sequential)
                assert budget.consumed_fe == sequential.consumed_fe
                assert solution_state(got) == solution_state(want)
                stopped += got is sol and budget.consumed_fe == view.size * (1 + end) and end > 0
        assert stopped > 0


def warm_peak_bytes(call) -> int:
    """Bytes a second call of call allocates at its peak beyond its starting level."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_warm_scans_allocate_less_than_one_block(eil51):
    """Once a view has scanned, its kernels write into its scratch: a second
    scan allocates less than one block-sized float array at any time (the
    block's (n+1) x 321 positions on eil51, its 16 x 1000 rows on bqp1000)."""
    view = TwoOptNeighborhood(eil51)
    tour = view.random_solution(np.random.default_rng(4))
    descend(view, tour, Budget())
    block = (escape.BLOCK_DELTAS // eil51.n) * (eil51.n + 1) * 8
    assert warm_peak_bytes(lambda: promising_flags(tour, view)) < block

    inst = parse_orlib_bqp(synthetic_orlib_text(1000, seed=1))
    view = FlipNeighborhood(inst, sample_split(inst, SplitParams(a=0.0, seed=0)))
    bv = view.random_solution(np.random.default_rng(1))
    descend(view, bv, Budget())
    rows = escape.BLOCK_DELTAS // inst.n
    assert warm_peak_bytes(lambda: nds(bv, view, Budget())) < rows * inst.n * 8
    budget = Budget()
    nds(bv, view, budget)
    assert budget.consumed_fe > (1 + rows) * view.size  # the scan went past its first block


@pytest.mark.parametrize("qubo", [False, True])
def test_missed_flagged_hit_raises(monkeypatch, qubo):
    """A neighbor the tables flag must hold a hit its own scan finds, or the escape fails."""
    view = flip_view(20, 4) if qubo else tsp_view(20, 4, with_split=False)
    sol = view.random_solution(np.random.default_rng(4))
    assert promising_flags(sol, view).any()
    monkeypatch.setattr(view, "first_improvement", lambda *args: False)
    with pytest.raises(RuntimeError, match="flagged neighbor"):
        ens(sol, view, Budget())
