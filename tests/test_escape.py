import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_tsp, lk_chain_bound
from sumparts.decomposition import SplitParams, sample_split
from sumparts.escape import (
    PenaltyConfig,
    add_random_penalty,
    dominated_mask,
    ens,
    further_exploit,
    nds,
)
from sumparts.instances import (
    EVAL_REL_TOL,
    MAXIMIZE,
    MINIMIZE,
    build_neighbor_lists,
    qubo_value,
    random_qubo_instance,
    random_tsp_instance,
    tour_cost,
)
from sumparts.search import (
    Budget,
    FlipNeighborhood,
    TwoOptNeighborhood,
    better,
    descend,
    lk_search,
    neighborhood_for,
)


def dominates(sense, u, v):
    """u dominates v: dominated_mask on v's deltas relative to u."""
    return bool(dominated_mask(sense, np.asarray([v[0] - u[0]]), np.asarray([v[1] - u[1]]))[0])


class TestDominates:
    def test_basic_minimization(self):
        assert dominates(MINIMIZE, (1, 2), (2, 3))
        assert not dominates(MINIMIZE, (1, 2), (1, 2))
        a, b = (1, 3), (2, 2)
        assert not dominates(MINIMIZE, a, b) and not dominates(MINIMIZE, b, a)

    def test_maximization_reversed(self):
        assert dominates(MAXIMIZE, (5, 5), (4, 5))
        assert not dominates(MAXIMIZE, (4, 5), (5, 5))
        rng = np.random.default_rng(1)
        d1, d2 = rng.integers(-3, 4, (2, 500)).astype(float)
        np.testing.assert_array_equal(dominated_mask(MAXIMIZE, d1, d2),
                                      dominated_mask(MINIMIZE, -d1, -d2))

    def test_irreflexive_asymmetric(self):
        rng = np.random.default_rng(0)
        d1, d2 = rng.integers(-3, 4, (2, 500)).astype(float)
        for sense in (MINIMIZE, MAXIMIZE):
            zero = np.zeros(3)
            assert not dominated_mask(sense, zero, zero).any()
            assert not (dominated_mask(sense, d1, d2) & dominated_mask(sense, -d1, -d2)).any()


def two_hop_oracle(view, x_star):
    """Exhaustive truth: (exists improving two-hop, exists behind an ND neighbor)."""
    f_star = view.value(x_star)
    d, d1, d2 = view.split_deltas(x_star)
    dom = dominated_mask(view.sense, d1, d2)
    any_improving = False
    behind_nd = False
    for k in range(view.size):
        cand = view.neighbor(x_star, k, float(d[k]))
        inner = view.deltas(cand)
        if view.sense == MINIMIZE:
            improving = bool(np.any(inner < f_star - view.value(cand)))
        else:
            improving = bool(np.any(inner > f_star - view.value(cand)))
        any_improving |= improving
        if improving and not dom[k]:
            behind_nd = True
    return any_improving, behind_nd


class TestNds:
    def test_global_optimum_returned_unchanged(self):
        inst = random_tsp_instance(6, seed=1)
        opt = brute_force_tsp(inst)
        split = sample_split(inst, SplitParams(a=0.0, seed=1))
        view = TwoOptNeighborhood(inst, split)
        t = view.random_solution(np.random.default_rng(0))
        descend(view, t, Budget())
        while t.cached_cost != opt:  # descend again from fresh starts until global
            t = view.random_solution(np.random.default_rng(int(t.cached_cost)))
            descend(view, t, Budget())
        out = nds(t, view, Budget())
        assert out is t

    def test_finds_two_hop_improvement_behind_nd_neighbor(self):
        # frozen case: non-global 2-Opt optimum whose improving x'' sits in the
        # neighborhood of a non-dominated neighbor (verified by the oracle)
        inst = random_tsp_instance(6, seed=8)
        split = sample_split(inst, SplitParams(a=0.0, seed=1))
        view = TwoOptNeighborhood(inst, split)
        t = view.random_solution(np.random.default_rng(0))
        descend(view, t, Budget())
        assert t.cached_cost == 2575.0
        assert brute_force_tsp(inst) == 2433.0
        any_improving, behind_nd = two_hop_oracle(view, t)
        assert any_improving and behind_nd
        out = nds(t, view, Budget())
        assert out is not t
        assert out.cached_cost < t.cached_cost

    @settings(max_examples=60, deadline=None)
    @given(qubo=st.booleans(), n=st.integers(5, 12), seed=st.integers(0, 10_000),
           a=st.sampled_from([-5.0, -2.0, 0.0, 2.0]),
           max_fe=st.one_of(st.none(), st.integers(0, 3000)))
    def test_return_contract_xor(self, qubo, n, seed, a, max_fe):
        """nds and ens return their input object, or a strictly better solution
        whose cached value matches a full evaluation within EVAL_REL_TOL."""
        if qubo:
            inst = random_qubo_instance(n + 4, seed=seed, density=0.5)
        else:
            inst = random_tsp_instance(n, seed=seed)
        split = sample_split(inst, SplitParams(a=a, seed=seed))
        view = neighborhood_for(inst, split)
        sol = view.random_solution(np.random.default_rng(seed))
        descend(view, sol, Budget())
        f = view.value(sol)
        for escape in (nds, ens):
            out = escape(sol, view, Budget(max_fe=max_fe))
            assert view.value(sol) == f
            if out is sol:
                continue
            assert better(view.sense, view.value(out), f)
            if qubo:
                exact = qubo_value(inst, out.bits)
            else:
                exact = tour_cost(inst, out)
            assert abs(view.value(out) - exact) <= EVAL_REL_TOL * max(1.0, abs(exact))

    @pytest.mark.parametrize("qubo", [False, True])
    def test_infinite_fe_cap_is_no_cap(self, qubo):
        """max_fe=inf means no cap, as Budget.charges_left documents: both escapes
        return the same solution at the same FE count as under Budget()."""
        if qubo:
            inst = random_qubo_instance(40, seed=3, density=0.5)
        else:
            inst = random_tsp_instance(30, seed=3)
        view = neighborhood_for(inst, sample_split(inst, SplitParams(a=-2.0, seed=3)))
        for seed in range(3):
            sol = view.random_solution(np.random.default_rng(seed))
            descend(view, sol, Budget())
            for escape in (nds, ens):
                capped, free = Budget(max_fe=math.inf), Budget()
                got, want = escape(sol, view, capped), escape(sol, view, free)
                assert capped.consumed_fe == free.consumed_fe
                assert (got is sol) == (want is sol) and view.value(got) == view.value(want)

    def test_requires_split(self):
        inst = random_tsp_instance(6, seed=0)
        view = TwoOptNeighborhood(inst)
        t = view.random_solution(np.random.default_rng(0))
        with pytest.raises(ValueError):
            nds(t, view, Budget())

    def test_qubo_sense_handling(self):
        inst = random_qubo_instance(15, seed=4, density=0.5)
        split = sample_split(inst, SplitParams(a=0.0, seed=2))
        view = FlipNeighborhood(inst, split)
        bv = view.random_solution(np.random.default_rng(1))
        descend(view, bv, Budget())
        out = nds(bv, view, Budget())
        assert (out is bv) != (out.cached_value > bv.cached_value)


class TestEns:
    def test_superset_of_nds_on_20_instances(self):
        for iseed in range(20):
            inst = random_tsp_instance(7, seed=100 + iseed)
            split = sample_split(inst, SplitParams(a=0.0, seed=1))
            view = TwoOptNeighborhood(inst, split)
            t = view.random_solution(np.random.default_rng(iseed))
            descend(view, t, Budget())
            got_nds = nds(t.copy(), view, Budget())
            got_ens = ens(t.copy(), view, Budget())
            if got_nds.cached_cost < t.cached_cost:
                assert got_ens.cached_cost < t.cached_cost

    def test_failed_scan_costs_n_plus_n_squared(self):
        inst = random_tsp_instance(7, seed=1)
        opt = brute_force_tsp(inst)
        view = TwoOptNeighborhood(inst)
        t = view.random_solution(np.random.default_rng(0))
        descend(view, t, Budget())
        while t.cached_cost != opt:
            t = view.random_solution(np.random.default_rng(int(t.cached_cost)))
            descend(view, t, Budget())
        budget = Budget()
        out = ens(t, view, budget)
        assert out is t
        n_moves = view.size
        assert budget.consumed_fe == n_moves + n_moves * n_moves

    def test_nds_fe_subset_of_ens_fe(self):
        inst = random_tsp_instance(9, seed=5)
        split = sample_split(inst, SplitParams(a=2.0, seed=1))
        view = TwoOptNeighborhood(inst, split)
        for s in range(10):
            t = view.random_solution(np.random.default_rng(s))
            descend(view, t, Budget())
            b1, b2 = Budget(), Budget()
            r1 = nds(t.copy(), view, b1)
            r2 = ens(t.copy(), view, b2)
            if (r1 is not t) or (r2 is not t):
                continue  # subset property is about failed attempts
            assert b1.consumed_fe <= b2.consumed_fe


def penalized_cost(rows, order):
    """Length of the tour `order` under penalized cost rows."""
    n = len(order)
    return float(sum(rows[order[i]][order[(i + 1) % n]] for i in range(n)))


class TestAddRandomPenalty:
    def test_penalized_tour_cost(self):
        inst = random_tsp_instance(12, seed=3)
        view = TwoOptNeighborhood(inst)
        t = view.random_solution(np.random.default_rng(2))
        cfg = PenaltyConfig(rounds=10, k_edges=5, c_tilde=77.0)
        pen = add_random_penalty(t, inst, cfg, np.random.default_rng(4))
        assert penalized_cost(pen, t.order) == pytest.approx(t.cached_cost + 5 * 77.0, rel=1e-12)

    def test_unaffected_tour_unchanged(self):
        inst = random_tsp_instance(10, seed=1)
        view = TwoOptNeighborhood(inst)
        t = view.random_solution(np.random.default_rng(0))
        cfg = PenaltyConfig(rounds=1, k_edges=2, c_tilde=50.0)
        pen = add_random_penalty(t, inst, cfg, np.random.default_rng(1))
        surcharged = {frozenset(map(int, e)) for e in np.argwhere(np.array(pen) != inst.costs)}
        assert len(surcharged) == 2
        other = view.random_solution(np.random.default_rng(5))
        other_edges = {frozenset((int(other.order[i]), int(other.order[(i + 1) % 10])))
                       for i in range(10)}
        if not surcharged & other_edges:
            assert penalized_cost(pen, other.order) == pytest.approx(other.cached_cost, rel=1e-12)

    def test_all_edges_penalized(self):
        inst = random_tsp_instance(9, seed=2)
        view = TwoOptNeighborhood(inst)
        t = view.random_solution(np.random.default_rng(3))
        cfg = PenaltyConfig(rounds=1, k_edges=9, c_tilde=10.0)
        pen = add_random_penalty(t, inst, cfg, np.random.default_rng(0))
        assert penalized_cost(pen, t.order) == pytest.approx(t.cached_cost + 9 * 10.0, rel=1e-12)

    def test_original_instance_untouched(self):
        inst = random_tsp_instance(8, seed=0)
        before = inst.costs.copy()
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(0))
        add_random_penalty(t, inst, PenaltyConfig(rounds=1, k_edges=3, c_tilde=9.0),
                           np.random.default_rng(0))
        np.testing.assert_array_equal(inst.costs, before)

    def test_changes_exactly_k_unit_costs(self):
        inst = random_tsp_instance(11, seed=4)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(1))
        cfg = PenaltyConfig(rounds=1, k_edges=4, c_tilde=13.0)
        pen = add_random_penalty(t, inst, cfg, np.random.default_rng(2))
        diff = np.array(pen) - inst.costs
        changed = np.argwhere(np.triu(diff) != 0)
        assert len(changed) == 4
        assert np.all(diff[diff != 0] == 13.0)
        # only the surcharged edges' endpoints get their own copy of a row
        endpoints = set(changed.ravel().tolist())
        for city, row in enumerate(pen):
            assert (row is inst.cost_rows[city]) == (city not in endpoints)


class TestFurtherExploit:
    def test_zero_budget_returns_input(self):
        inst = random_tsp_instance(10, seed=3)
        nl = build_neighbor_lists(inst, k=9)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(0))
        lk_search(inst, nl, t, Budget())
        budget = Budget(max_fe=0)
        out = further_exploit(t, inst, nl, PenaltyConfig(rounds=5, k_edges=3),
                              budget, np.random.default_rng(0))
        assert out is t

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 25), seed=st.integers(0, 10_000), k=st.integers(2, 10),
           max_fe=st.integers(0, 4000))
    def test_fe_cap_overshoot(self, n, seed, k, max_fe):
        """Under an FE cap the overshoot is at most one LK chain plus 1 FE.

        further_exploit checks the budget before each round and lk_search
        before each chain, so the last chain starts below the cap. A chain
        charges at most lk_chain_bound(k): k first-level candidates, each
        followed by k second-level ones and the greedy extension of breadth2
        of those through the remaining depth - 2 levels of k candidates. When
        that chain belongs to the penalized LK, the plain LK that follows
        still charges its 1-FE start.
        """
        inst = random_tsp_instance(n, seed=seed)
        nl = build_neighbor_lists(inst, k=k)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(seed))
        lk_search(inst, nl, t, Budget())
        budget = Budget(max_fe=max_fe)
        further_exploit(t, inst, nl, PenaltyConfig(k_edges=3), budget,
                        np.random.default_rng(seed))
        assert budget.consumed_fe - max_fe <= lk_chain_bound(len(nl[0])) + 1

    def test_output_contract_xor(self):
        inst = random_tsp_instance(10, seed=13)
        nl = build_neighbor_lists(inst, k=9)
        cfg = PenaltyConfig(rounds=3, k_edges=3)
        for s in range(10):
            t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(s))
            lk_search(inst, nl, t, Budget())
            out = further_exploit(t, inst, nl, cfg, Budget(), np.random.default_rng(s))
            assert (out is t) != (out.cached_cost < t.cached_cost)

    def test_rescues_stalled_lk_optimum(self):
        # frozen case: LK lands at 3410 on a 10-city instance with optimum 3297
        inst = random_tsp_instance(10, seed=13)
        opt = brute_force_tsp(inst)
        assert opt == 3297.0
        nl = build_neighbor_lists(inst, k=9)
        t = TwoOptNeighborhood(inst).random_solution(np.random.default_rng(5))
        converged = lk_search(inst, nl, t, Budget())
        assert converged and t.cached_cost == 3410.0
        successes = 0
        for ps in range(100):
            got = further_exploit(t.copy(), inst, nl, PenaltyConfig(rounds=3, k_edges=3),
                                  Budget(), np.random.default_rng(ps))
            if got.cached_cost < t.cached_cost:
                successes += 1
                assert got.cached_cost == pytest.approx(tour_cost(inst, got), rel=1e-9)
        assert successes > 0
