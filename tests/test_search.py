import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_qubo, brute_force_tsp, lk_chain_bound, make_tour
from sumparts import metaheuristics
from sumparts.decomposition import SplitParams, sample_split
from sumparts.instances import (
    EVAL_REL_TOL,
    QuboInstance,
    TspInstance,
    build_neighbor_lists,
    make_bitvector,
    qubo_value,
    random_qubo_instance,
    random_tsp_instance,
    tour_cost,
    two_opt_delta,
)
from sumparts.search import (
    Budget,
    FlipNeighborhood,
    TwoOptNeighborhood,
    descend,
    double_bridge,
    is_local_optimum,
    lk_search,
    neighborhood_for,
    new_edge_endpoints,
    pair_swap_kick,
    penalized_rows,
    random_flip_perturbation,
    sample_tenure,
    tabu_search,
)


def tour_edges(order):
    n = len(order)
    return {frozenset((int(order[i]), int(order[(i + 1) % n]))) for i in range(n)}


class TestLocalSearch2Opt:
    def test_local_optimum_unchanged_one_scan(self, eil51):
        view = TwoOptNeighborhood(eil51)
        t = view.random_solution(np.random.default_rng(0))
        descend(view, t, Budget())
        budget = Budget()
        before = t.order.copy()
        assert descend(view, t, budget)
        assert np.array_equal(t.order, before)
        assert budget.consumed_fe == 1224  # exactly one full scan

    def test_descent_property_small(self):
        inst = random_tsp_instance(6, seed=1)
        view = TwoOptNeighborhood(inst)
        for s in range(10):
            t = view.random_solution(np.random.default_rng(s))
            start = t.cached_cost
            descend(view, t, Budget())
            assert t.cached_cost <= start

    def test_1000_random_starts_all_locally_optimal(self, eil51):
        view = TwoOptNeighborhood(eil51)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            t = view.random_solution(rng)
            assert descend(view, t, Budget())
            assert is_local_optimum(view, t)
        # cached cost still exact after the whole batch
        assert t.cached_cost == pytest.approx(tour_cost(eil51, t), rel=1e-9)

    def test_budget_exhaustion_flags_not_optimal(self, eil51):
        view = TwoOptNeighborhood(eil51)
        t = view.random_solution(np.random.default_rng(3))
        assert not descend(view, t, Budget(max_fe=10))

    def test_descend_ends_on_non_integral_costs(self):
        # a move and its inverse both read a few ulps better here, so a
        # descent that takes every negative delta cycles until the cap
        rng = np.random.default_rng(2)
        c = np.triu(np.round(rng.uniform(0.0, 2.0, (7, 7)) * 3.0) / 3.0, 1)
        inst = TspInstance(name="thirds7", n=7, costs=c + c.T)
        view = TwoOptNeighborhood(inst)
        t = view.random_solution(np.random.default_rng(2))
        assert descend(view, t, Budget(max_fe=2e5))
        assert is_local_optimum(view, t)
        assert t.cached_cost == pytest.approx(tour_cost(inst, t), rel=EVAL_REL_TOL)

    def test_fe_count_matches_sequential_oracle(self, eil51):
        # oracle: literal sequential first-improvement scan, counting evals
        view = TwoOptNeighborhood(eil51)
        t = view.random_solution(np.random.default_rng(5))
        ref = t.copy()
        fes = 0
        while True:
            found = None
            for k in range(view.size):
                fes += 1
                delta = two_opt_delta(eil51, ref, int(view.p[k]), int(view.q[k]))
                if delta < 0.0:
                    found = k
                    break
            if found is None:
                break
            view.apply(ref, found, delta)
        budget = Budget()
        descend(view, t, budget)
        assert budget.consumed_fe == fes
        assert np.array_equal(t.order, ref.order)


class TestLocalSearch1Flip:
    def test_nonpositive_gains_unchanged(self):
        inst = random_qubo_instance(12, seed=0, density=0.5)
        bv = make_bitvector(inst, np.zeros(12))
        bv2 = make_bitvector(inst, np.zeros(12))
        descend(FlipNeighborhood(inst), bv2, Budget())
        if np.all(bv.gains <= 0):
            assert np.array_equal(bv2.bits, bv.bits)

    def test_output_is_one_flip_optimal(self):
        inst = random_qubo_instance(20, seed=7, density=0.4)
        view = FlipNeighborhood(inst)
        for s in range(10):
            bv = view.random_solution(np.random.default_rng(s))
            assert descend(view, bv, Budget())
            fresh = make_bitvector(inst, bv.bits)
            assert np.all(fresh.gains <= 0)

    def test_ascent_property(self):
        inst = random_qubo_instance(18, seed=2, density=0.5)
        view = FlipNeighborhood(inst)
        bv = view.random_solution(np.random.default_rng(1))
        start = bv.cached_value
        descend(view, bv, Budget())
        assert bv.cached_value >= start


class TestDoubleBridge:
    def test_valid_and_different(self):
        inst = random_tsp_instance(12, seed=3)
        t = make_tour(inst, np.arange(12))
        for s in range(100):
            out = double_bridge(inst, t, np.random.default_rng(s))
            assert sorted(out.order.tolist()) == list(range(12))
            assert not np.array_equal(out.order, t.order)

    def test_exactly_four_edges_replaced(self):
        for n in (8, 9, 15, 40):
            inst = random_tsp_instance(n, seed=n)
            t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(n))
            for s in range(50):
                out = double_bridge(inst, t, np.random.default_rng(s))
                assert len(tour_edges(t.order) - tour_edges(out.order)) == 4

    def test_cost_cache_exact(self):
        inst = random_tsp_instance(20, seed=1)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(2))
        out = double_bridge(inst, t, np.random.default_rng(9))
        assert out.cached_cost == pytest.approx(tour_cost(inst, out), rel=1e-12)

    def test_small_tour_rejected(self):
        inst = random_tsp_instance(7, seed=0)
        t = make_tour(inst, np.arange(7))
        with pytest.raises(ValueError):
            double_bridge(inst, t, np.random.default_rng(0))
        out = pair_swap_kick(inst, t, np.random.default_rng(0))
        assert sorted(out.order.tolist()) == list(range(7))


class TestRandomFlip:
    def test_full_fraction_complements(self):
        inst = random_qubo_instance(16, seed=4, density=0.4)
        bv = make_bitvector(inst, np.zeros(16))
        out = random_flip_perturbation(inst, bv, 1.0, np.random.default_rng(0))
        assert np.all(out.bits == 1.0)

    def test_quarter_fraction_hamming_distance(self):
        inst = random_qubo_instance(1000, seed=1, density=0.02)
        bv = make_bitvector(inst, np.zeros(1000))
        out = random_flip_perturbation(inst, bv, 0.25, np.random.default_rng(5))
        assert int(np.sum(out.bits != bv.bits)) == 250

    def test_same_positions_twice_restore(self):
        inst = random_qubo_instance(30, seed=2, density=0.3)
        bv = make_bitvector(inst, np.random.default_rng(1).integers(0, 2, 30).astype(float))
        once = random_flip_perturbation(inst, bv, 0.3, np.random.default_rng(77))
        twice = random_flip_perturbation(inst, once, 0.3, np.random.default_rng(77))
        assert np.array_equal(twice.bits, bv.bits)
        assert twice.cached_value == pytest.approx(bv.cached_value, abs=1e-9)

    def test_caches_rebuilt(self):
        inst = random_qubo_instance(25, seed=3, density=0.5)
        bv = make_bitvector(inst, np.zeros(25))
        out = random_flip_perturbation(inst, bv, 0.5, np.random.default_rng(2))
        fresh = make_bitvector(inst, out.bits)
        np.testing.assert_allclose(out.gains, fresh.gains, atol=1e-9)

    def test_bad_fraction(self):
        inst = random_qubo_instance(10, seed=0, density=0.5)
        bv = make_bitvector(inst, np.zeros(10))
        with pytest.raises(ValueError):
            random_flip_perturbation(inst, bv, 0.0, np.random.default_rng(0))

    def test_fraction_that_flips_no_bit(self):
        # round(0.04 * 10) == 0: the kick would return the same bits
        inst = random_qubo_instance(10, seed=0, density=0.5)
        bv = make_bitvector(inst, np.zeros(10))
        with pytest.raises(ValueError, match="kicks no bit"):
            random_flip_perturbation(inst, bv, 0.04, np.random.default_rng(0))


class TestTabuSearch:
    def test_tenure_range_n1000(self):
        rng = np.random.default_rng(0)
        ks = {sample_tenure(1000, rng) for _ in range(1000)}
        assert ks == set(range(11, 21))

    def test_best_so_far_contract(self):
        inst = random_qubo_instance(50, seed=5, density=0.2)
        view = FlipNeighborhood(inst)
        bv = view.random_solution(np.random.default_rng(3))
        start = bv.cached_value
        out = tabu_search(inst, bv, np.random.default_rng(1), Budget(max_fe=5e4))
        assert out.cached_value >= start
        assert out.cached_value == pytest.approx(qubo_value(inst, out.bits), abs=1e-9)

    def test_matches_brute_force_18_of_20(self):
        inst = random_qubo_instance(20, seed=11, density=0.4)
        opt = brute_force_qubo(inst)
        view = FlipNeighborhood(inst)
        hits = 0
        for s in range(20):
            bv = view.random_solution(np.random.default_rng(s))
            out = tabu_search(inst, bv, np.random.default_rng(500 + s), Budget(max_fe=3e5))
            hits += (out.cached_value == opt)
        assert hits >= 18

    def test_budget_respected_up_to_one_move(self):
        inst = random_qubo_instance(40, seed=2, density=0.3)
        bv = FlipNeighborhood(inst).random_solution(np.random.default_rng(0))
        budget = Budget(max_fe=1000)
        tabu_search(inst, bv, np.random.default_rng(0), budget)
        assert budget.consumed_fe <= 1000 + 40


class TestLkSearch:
    def test_already_optimal_unchanged(self):
        # Pins one instance: on this 15-city case a second cold start leaves the
        # LK output unchanged. That is not the general contract (a converged
        # queue does not mean no cold start can improve the tour), which
        # test_repeated_cold_starts_never_worsen checks instead.
        inst = random_tsp_instance(15, seed=6)
        nl = build_neighbor_lists(inst, k=10)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(1))
        lk_search(inst, nl, t, Budget())
        before = t.order.copy()
        converged = lk_search(inst, nl, t, Budget())
        assert converged
        assert np.array_equal(t.order, before)

    def test_repeated_cold_starts_never_worsen(self):
        inst = random_tsp_instance(100, seed=900)
        nl = build_neighbor_lists(inst, k=20)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(0))
        lk_search(inst, nl, t, Budget())
        for _ in range(4):
            before = t.cached_cost
            converged = lk_search(inst, nl, t, Budget())
            assert converged
            assert sorted(t.order.tolist()) == list(range(inst.n))
            assert t.cached_cost <= before
            assert abs(t.cached_cost - tour_cost(inst, t)) <= EVAL_REL_TOL * abs(t.cached_cost)

    def test_reaches_brute_force_optimum(self):
        inst = random_tsp_instance(10, seed=3)
        opt = brute_force_tsp(inst)
        nl = build_neighbor_lists(inst, k=9)
        hits = 0
        for s in range(10):
            t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(s))
            converged = lk_search(inst, nl, t, Budget())
            assert converged
            assert t.cached_cost == pytest.approx(tour_cost(inst, t), rel=1e-9)
            hits += (t.cached_cost == opt)
        assert hits >= 8

    def test_descent_and_validity(self):
        inst = random_tsp_instance(60, seed=9)
        nl = build_neighbor_lists(inst, k=12)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(4))
        start = t.cached_cost
        lk_search(inst, nl, t, Budget())
        assert t.cached_cost <= start
        assert sorted(t.order.tolist()) == list(range(60))
        assert t.cached_cost == pytest.approx(tour_cost(inst, t), rel=1e-9)

    def test_two_opt_optimal_within_candidate_subgraph(self):
        # oracle mirrors the chain's level-1 move set exactly
        inst = random_tsp_instance(40, seed=12)
        nl = build_neighbor_lists(inst, k=10)
        out = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(8))
        converged = lk_search(inst, nl, out, Budget())
        assert converged
        order = out.order
        n = inst.n
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        C = inst.costs

        def succ(c):
            return int(order[(pos[c] + 1) % n])

        def pred(c):
            return int(order[pos[c] - 1])

        for base in range(n):
            for forward in (True, False):
                e = succ(base) if forward else pred(base)
                for t3 in nl[e]:
                    t3 = int(t3)
                    if C[e, t3] >= C[base, e]:
                        break
                    if t3 in (base, succ(e), pred(e)):
                        continue
                    t4 = pred(t3) if forward else succ(t3)
                    if t4 in (base, e):
                        continue
                    delta = C[e, t3] + C[t4, base] - C[base, e] - C[t4, t3]
                    assert delta >= 0.0

    def test_penalized_objective_run_keeps_raw_cache(self):
        inst = random_tsp_instance(30, seed=2)
        nl = build_neighbor_lists(inst, k=10)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(0))
        lk_search(inst, nl, t, Budget())
        pen = penalized_rows(inst, [(int(t.order[0]), int(t.order[1]))], 500.0)
        lk_search(inst, nl, t, Budget(), objective=pen)
        assert t.cached_cost == pytest.approx(tour_cost(inst, t), rel=1e-9)

    @pytest.mark.parametrize("penalized", [False, True], ids=["plain", "penalized"])
    def test_cached_cost_recomputed_over_stale_input(self, penalized):
        # the returned cache is the plain cost of the returned tour, whatever came in
        inst = random_tsp_instance(30, seed=2)
        nl = build_neighbor_lists(inst, k=10)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(0))
        t.cached_cost += 7.0
        rows = penalized_rows(inst, [(int(t.order[0]), int(t.order[1]))], 500.0)
        lk_search(inst, nl, t, Budget(), objective=rows if penalized else None)
        assert t.cached_cost == tour_cost(inst, t)

    def test_budget_exhaustion_returns_current(self):
        inst = random_tsp_instance(30, seed=5)
        nl = build_neighbor_lists(inst, k=10)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(3))
        converged = lk_search(inst, nl, t, Budget(max_fe=5))
        assert not converged
        assert sorted(t.order.tolist()) == list(range(30))

    def test_post_kick_lk_charges_less_than_one_sweep(self, monkeypatch):
        # the LK after a kick restarts from the kick's endpoints, so it must
        # charge less than one clean pass over every city of an LK optimum
        inst = random_tsp_instance(100, seed=900)
        nl = build_neighbor_lists(inst, k=20)
        sweeps = []
        for s in range(3):
            # cold starts until one changes nothing: that one is a clean sweep
            opt = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(s))
            while True:
                before = opt.order.copy()
                budget = Budget()
                lk_search(inst, nl, opt, budget)
                if np.array_equal(opt.order, before):
                    break
            sweeps.append(budget.consumed_fe)

        post_kick = []
        real_lk = metaheuristics.lk_search

        def recording_lk(*args, **kwargs):
            budget = args[3]
            fe0 = budget.consumed_fe
            out = real_lk(*args, **kwargs)
            if kwargs.get("active") is not None:
                post_kick.append(budget.consumed_fe - fe0)
            return out

        monkeypatch.setattr(metaheuristics, "lk_search", recording_lk)
        metaheuristics.run(metaheuristics.SolverConfig(algorithm="ilk", seed=0, max_fe=1e5),
                           inst)
        assert len(post_kick) >= 10
        assert np.median(post_kick) < np.median(sweeps)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=8, max_value=30), seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=2, max_value=12), penalized=st.booleans(), kicked=st.booleans(),
       max_fe=st.one_of(st.none(), st.integers(min_value=0, max_value=400)))
def test_lk_permutation_cache_and_overshoot(n, seed, k, penalized, kicked, max_fe):
    inst = random_tsp_instance(n, seed=seed)
    nl = build_neighbor_lists(inst, k=k)
    rng = np.random.default_rng(seed)
    tour = TwoOptNeighborhood(inst).random_solution(rng)
    active = None
    if kicked:
        lk_search(inst, nl, tour, Budget())
        kick = double_bridge(inst, tour, rng)
        active = new_edge_endpoints(tour.order, kick.order)
        tour = kick
    objective = None
    if penalized:
        order = tour.order
        edges = [(int(order[p]), int(order[(p + 1) % n]))
                 for p in rng.choice(n, size=5, replace=False)]
        objective = penalized_rows(inst, edges, inst.max_cost)
    budget = Budget(max_fe=max_fe)
    lk_search(inst, nl, tour, budget, objective=objective, active=active)
    assert sorted(tour.order.tolist()) == list(range(n))
    exact = tour_cost(inst, tour)
    assert abs(tour.cached_cost - exact) <= EVAL_REL_TOL * exact
    if max_fe is not None:
        assert budget.consumed_fe - max_fe <= lk_chain_bound(len(nl[0]))


@settings(max_examples=40, deadline=None)
@given(qubo=st.booleans(), n=st.integers(min_value=5, max_value=30),
       seed=st.integers(min_value=0, max_value=10_000),
       max_fe=st.integers(min_value=0, max_value=5000))
def test_descend_overshoots_by_at_most_one_scan(qubo, n, seed, max_fe):
    if qubo:
        inst = random_qubo_instance(n, seed=seed, density=0.5)
    else:
        inst = random_tsp_instance(n, seed=seed)
    view = neighborhood_for(inst)
    sol = view.random_solution(np.random.default_rng(seed))
    budget = Budget(max_fe=max_fe)
    descend(view, sol, budget)
    assert budget.consumed_fe - max_fe <= view.size


def tsp_of_kind(n: int, seed: int, kind: str) -> TspInstance:
    """A TSP with integral, uniform-float or thirds-rounded (tie-heavy) costs."""
    if kind == "integral":
        return random_tsp_instance(n, seed=seed)
    c = np.random.default_rng(seed).uniform(0.0, 2.0, (n, n))
    if kind == "thirds":
        c = np.round(c * 3.0) / 3.0
    c = np.triu(c, 1)
    return TspInstance(name=f"{kind}{n}-{seed}", n=n, costs=c + c.T)


def four_term(m, order, p, q):
    """m[a, c] + m[b, d] - m[a, b] - m[c, d] of the 2-Opt move (p, q), scalar by scalar."""
    a, b, c, d = order[p], order[p + 1], order[q], order[(q + 1) % len(order)]
    return m[a, c] + m[b, d] - m[a, b] - m[c, d]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=4, max_value=40), seed=st.integers(min_value=0, max_value=10_000),
       kind=st.sampled_from(["integral", "uniform", "thirds"]))
def test_two_opt_kernels_match_scalar_loop(n, seed, kind):
    inst = tsp_of_kind(n, seed, kind)
    split = sample_split(inst, SplitParams(a=-2.0, seed=seed))
    view = TwoOptNeighborhood(inst, split)
    tour = view.random_solution(np.random.default_rng(seed))
    moves = list(zip(view.p.tolist(), view.q.tolist()))
    assert (n - 3, n - 1) in moves  # a move whose second edge wraps to t[0]
    want = [two_opt_delta(inst, tour, p, q) for p, q in moves]
    assert np.array_equal(view.deltas(tour), want)
    mats = (inst.costs, split.mat1, inst.costs - split.mat1)
    for got, m in zip(view.split_deltas(tour), mats):
        assert np.array_equal(got, [four_term(m, tour.order, p, q) for p, q in moves])
    # thresholds equal to delta values make ties, which a strict scan must skip
    picks = np.random.default_rng(seed).choice(want, size=3)
    for threshold in (0.0, -view.inst.tol, min(want), max(want) + 1.0, *picks.tolist()):
        budget = Budget()
        moved = tour.copy()
        found = view.first_improvement(moved, threshold, budget)
        hits = [i for i, x in enumerate(want) if x < threshold]
        assert found == bool(hits)
        assert budget.consumed_fe == (hits[0] + 1 if hits else view.size)
        if hits:  # the first hit's segment is reversed
            p, q = moves[hits[0]]
            want_order = np.concatenate([tour.order[:p + 1], tour.order[q:p:-1],
                                         tour.order[q + 1:]])
            assert np.array_equal(moved.order, want_order)
        else:
            assert np.array_equal(moved.order, tour.order)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=5, max_value=40), seed=st.integers(min_value=0, max_value=10_000),
       kind=st.sampled_from(["integral", "uniform", "thirds"]))
def test_first_improvement_moves_cost_by_two_opt_delta(n, seed, kind):
    """Each scan of a descent moves the cached cost by exactly two_opt_delta of its move."""
    inst = tsp_of_kind(n, seed, kind)
    view = TwoOptNeighborhood(inst)
    tour = view.random_solution(np.random.default_rng(seed))
    for _ in range(20):
        before = tour.copy()
        if not view.first_improvement(tour, -view.inst.tol, Budget()):
            break
        # the move reversed tour positions p+1..q, whose end cities changed places
        changed = np.flatnonzero(tour.order != before.order)
        p, q = int(changed[0]) - 1, int(changed[-1])
        assert np.array_equal(tour.order[p + 1:q + 1], before.order[p + 1:q + 1][::-1])
        assert tour.cached_cost == before.cached_cost + two_opt_delta(inst, before, p, q)


@settings(max_examples=40, deadline=None)
@given(qubo=st.booleans(), n=st.integers(min_value=5, max_value=16),
       seed=st.integers(min_value=0, max_value=10_000))
def test_descend_converges_on_non_integral_costs(qubo, n, seed):
    """Under a cap far above any real descent, descend ends at a local optimum."""
    if qubo:
        q = random_qubo_instance(n, seed=seed, density=0.5).q
        q = q * np.random.default_rng(seed).uniform(0.5, 1.5, (n, n)) / 3.0
        inst = QuboInstance(name=f"real{n}-{seed}", n=n, q=np.triu(q) + np.triu(q, 1).T)
    else:
        inst = tsp_of_kind(n, seed, "thirds")
    view = neighborhood_for(inst)
    sol = view.random_solution(np.random.default_rng(seed))
    assert descend(view, sol, Budget(max_fe=1000 * view.size))
    assert is_local_optimum(view, sol)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(min_value=0, max_value=10_000),
       max_fe=st.integers(min_value=0, max_value=20_000))
def test_tabu_overshoots_by_at_most_one_move(n, seed, max_fe):
    inst = random_qubo_instance(n, seed=seed, density=0.5)
    rng = np.random.default_rng(seed)
    bv = FlipNeighborhood(inst).random_solution(rng)
    budget = Budget(max_fe=max_fe)
    tabu_search(inst, bv, rng, budget)
    assert budget.consumed_fe - max_fe <= n


class TestFeDeterminism:
    def test_identical_seeded_descents_identical_fe(self, eil51):
        counts = []
        for _ in range(2):
            view = TwoOptNeighborhood(eil51)
            t = view.random_solution(np.random.default_rng(123))
            budget = Budget()
            descend(view, t, budget)
            counts.append(budget.consumed_fe)
        assert counts[0] == counts[1]
