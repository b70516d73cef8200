import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_qubo, brute_force_tsp
from sumparts import metaheuristics
from sumparts.instances import (
    EVAL_REL_TOL,
    build_neighbor_lists,
    make_bitvector,
    make_tour,
    qubo_value,
    random_qubo_instance,
    random_tsp_instance,
    tour_cost,
)
from sumparts.search import (
    LK_BREADTH2,
    LK_DEPTH,
    Budget,
    FlipNeighborhood,
    PenalizedTspObjective,
    TwoOptNeighborhood,
    descend,
    double_bridge,
    is_local_optimum,
    lk_search,
    local_search_1flip,
    local_search_2opt,
    new_edge_endpoints,
    pair_swap_kick,
    random_flip_perturbation,
    sample_tenure,
    tabu_search,
    unlimited,
)


def tour_edges(order):
    n = len(order)
    return {frozenset((int(order[i]), int(order[(i + 1) % n]))) for i in range(n)}


class TestLocalSearch2Opt:
    def test_local_optimum_unchanged_one_scan(self, eil51):
        t = TwoOptNeighborhood(eil51).random_solution(np.random.default_rng(0))
        local_search_2opt(eil51, t)
        budget = Budget()
        before = t.order.copy()
        _, converged = local_search_2opt(eil51, t, budget)
        assert converged
        assert np.array_equal(t.order, before)
        assert budget.consumed_fe == 1224  # exactly one full scan

    def test_descent_property_small(self):
        inst = random_tsp_instance(6, seed=1)
        view = TwoOptNeighborhood(inst)
        for s in range(10):
            t = view.random_solution(np.random.default_rng(s))
            start = t.cached_cost
            local_search_2opt(inst, t)
            assert t.cached_cost <= start

    def test_1000_random_starts_all_locally_optimal(self, eil51):
        view = TwoOptNeighborhood(eil51)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            t = view.random_solution(rng)
            _, converged = local_search_2opt(eil51, t)
            assert converged
            assert is_local_optimum(view, t)
        # cached cost still exact after the whole batch
        assert t.cached_cost == pytest.approx(tour_cost(eil51, t), rel=1e-9)

    def test_budget_exhaustion_flags_not_optimal(self, eil51):
        t = TwoOptNeighborhood(eil51).random_solution(np.random.default_rng(3))
        _, converged = local_search_2opt(eil51, t, Budget(max_fe=10))
        assert not converged

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
                if view.move_delta(ref, k) < 0.0:
                    found = k
                    break
            if found is None:
                break
            view.apply(ref, found)
        budget = Budget()
        local_search_2opt(eil51, t, budget)
        assert budget.consumed_fe == fes
        assert np.array_equal(t.order, ref.order)


class TestLocalSearch1Flip:
    def test_nonpositive_gains_unchanged(self):
        inst = random_qubo_instance(12, seed=0, density=0.5)
        bv = make_bitvector(inst, np.zeros(12))
        bv2, _ = local_search_1flip(inst, make_bitvector(inst, np.zeros(12)))
        if np.all(bv.gains <= 0):
            assert np.array_equal(bv2.bits, bv.bits)

    def test_output_is_one_flip_optimal(self):
        inst = random_qubo_instance(20, seed=7, density=0.4)
        view = FlipNeighborhood(inst)
        for s in range(10):
            bv = view.random_solution(np.random.default_rng(s))
            _, converged = local_search_1flip(inst, bv)
            assert converged
            fresh = make_bitvector(inst, bv.bits)
            assert np.all(fresh.gains <= 0)

    def test_ascent_property(self):
        inst = random_qubo_instance(18, seed=2, density=0.5)
        view = FlipNeighborhood(inst)
        bv = view.random_solution(np.random.default_rng(1))
        start = bv.cached_value
        local_search_1flip(inst, bv)
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
        lk_search(inst, nl, t)
        before = t.order.copy()
        _, converged = lk_search(inst, nl, t)
        assert converged
        assert np.array_equal(t.order, before)

    def test_repeated_cold_starts_never_worsen(self):
        inst = random_tsp_instance(100, seed=900)
        nl = build_neighbor_lists(inst)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(0))
        lk_search(inst, nl, t)
        for _ in range(4):
            before = t.cached_cost
            _, converged = lk_search(inst, nl, t)
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
            out, converged = lk_search(inst, nl, t)
            assert converged
            assert out.cached_cost == pytest.approx(tour_cost(inst, out), rel=1e-9)
            hits += (out.cached_cost == opt)
        assert hits >= 8

    def test_descent_and_validity(self):
        inst = random_tsp_instance(60, seed=9)
        nl = build_neighbor_lists(inst, k=12)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(4))
        start = t.cached_cost
        out, _ = lk_search(inst, nl, t)
        assert out.cached_cost <= start
        assert sorted(out.order.tolist()) == list(range(60))
        assert out.cached_cost == pytest.approx(tour_cost(inst, out), rel=1e-9)

    def test_two_opt_optimal_within_candidate_subgraph(self):
        # oracle mirrors the chain's level-1 move set exactly
        inst = random_tsp_instance(40, seed=12)
        nl = build_neighbor_lists(inst, k=10)
        out, converged = lk_search(
            inst, nl, TwoOptNeighborhood(inst).random_solution(np.random.default_rng(8)))
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
                for t3 in nl.lists[e]:
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
        lk_search(inst, nl, t)
        pen = PenalizedTspObjective(inst, [(int(t.order[0]), int(t.order[1]))], 500.0)
        out, _ = lk_search(inst, nl, t, objective=pen)
        assert out.cached_cost == pytest.approx(tour_cost(inst, out), rel=1e-9)

    def test_budget_exhaustion_returns_current(self):
        inst = random_tsp_instance(30, seed=5)
        nl = build_neighbor_lists(inst, k=10)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(3))
        _, converged = lk_search(inst, nl, t, Budget(max_fe=5))
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


def _lk_chain_bound(k: int) -> int:
    """Most FEs one LK chain can charge: k first-level candidates, each followed
    by k second-level ones and the greedy extension of breadth2 of those
    through the remaining depth - 2 levels of k candidates."""
    return k * (1 + k + LK_BREADTH2 * (LK_DEPTH - 2) * k)


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
        lk_search(inst, nl, tour)
        kick = double_bridge(inst, tour, rng)
        active = new_edge_endpoints(tour.order, kick.order)
        tour = kick
    objective = None
    if penalized:
        order = tour.order
        edges = [(int(order[p]), int(order[(p + 1) % n]))
                 for p in rng.choice(n, size=5, replace=False)]
        objective = PenalizedTspObjective(inst, edges, inst.max_cost)
    budget = Budget(max_fe=max_fe)
    out, _ = lk_search(inst, nl, tour, budget, objective=objective, active=active)
    assert sorted(out.order.tolist()) == list(range(n))
    exact = tour_cost(inst, out)
    assert abs(out.cached_cost - exact) <= EVAL_REL_TOL * exact
    if max_fe is not None:
        assert budget.consumed_fe - max_fe <= _lk_chain_bound(nl.k)


class TestFeDeterminism:
    def test_identical_seeded_descents_identical_fe(self, eil51):
        counts = []
        for _ in range(2):
            t = TwoOptNeighborhood(eil51).random_solution(np.random.default_rng(123))
            budget = Budget()
            local_search_2opt(eil51, t, budget)
            counts.append(budget.consumed_fe)
        assert counts[0] == counts[1]
