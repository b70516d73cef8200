"""Lin-Kernighan against the apply-and-undo chain it replaces.

The reference below is `lk_search` as it was before a failed chain was
rolled back from snapshots of the tour: it takes every tentative move back
by reversing the applied segments again, last first (`undo_to`), and a
commit undoes the moves past the winning prefix the same way. It still
applies every move through one `do_move`, the chain's last level included,
where `lk_search` applies its greedy levels inline and scores the last level
before applying it. `lk_search` must agree with it bit for bit: the same
order array, cached cost, FE charges and convergence flag, on plain and
penalized views, from cold and kicked starts, at every depth up to the
production one, with the budget cut anywhere.
"""

import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts.instances import Tour, build_neighbor_lists, random_tsp_instance
from sumparts.metaheuristics import SolverConfig
from sumparts.search import (
    LK_BREADTH2,
    LK_DEPTH,
    Budget,
    double_bridge,
    lk_search,
    new_edge_endpoints,
    penalized_rows,
)


def reference_lk_search(inst, neighbors, tour, budget, objective=None,
                        depth=LK_DEPTH, breadth2=LK_BREADTH2, active=None):
    raw = inst.cost_rows
    pen = raw if objective is None else objective
    plain = objective is None
    cand = neighbors
    order = tour.order.tolist()
    n = len(order)
    pos = [0] * n
    for i, c in enumerate(order):
        pos[c] = i
    raw_cost = tour.cached_cost
    budget.charge(1)

    # the running chain: reversals applied, their endpoints and prefix-sum gains
    moves: list[tuple[int, int]] = []
    ends: list[int] = []
    pen_sum = [0.0]
    raw_sum = pen_sum if plain else [0.0]
    fe = 0

    def succ(c: int) -> int:
        p = pos[c] + 1
        return order[p] if p < n else order[0]

    def pred(c: int) -> int:
        return order[pos[c] - 1]

    def reverse(lo: int, hi: int):
        order[lo:hi + 1] = order[hi:lo - 1 if lo else None:-1]
        for i in range(lo, hi + 1):
            pos[order[i]] = i

    def do_move(base: int, end: int, t3: int, forward: bool) -> bool:
        # chained 2-Opt: remove (base,end),(t4,t3); add (end,t3),(t4,base)
        t4 = pred(t3) if forward else succ(t3)
        if t4 == base or t4 == end:
            return False
        pen_sum.append(pen_sum[-1] + (pen[end][t3] + pen[t4][base]
                                      - pen[base][end] - pen[t4][t3]))
        if not plain:
            raw_sum.append(raw_sum[-1] + (raw[end][t3] + raw[t4][base]
                                          - raw[base][end] - raw[t4][t3]))
        pe, p4 = pos[end], pos[t4]
        if forward:
            lo, hi = (pe, p4) if pe <= p4 else (pos[t3], pos[base])
        else:
            lo, hi = (p4, pe) if p4 <= pe else (pos[base], pos[t3])
        reverse(lo, hi)
        moves.append((lo, hi))
        ends.extend((end, t3, t4))
        return True

    def undo_to(k: int):
        while len(moves) > k:
            lo, hi = moves.pop()
            del ends[-3:]
            pen_sum.pop()
            if not plain:
                raw_sum.pop()
            reverse(lo, hi)

    def extend_greedy(base: int, forward: bool, best_k: int, best_pen: float):
        # deeper levels: first acceptable candidate, no alternatives
        nonlocal fe
        for _ in range(3, depth + 1):
            end = succ(base) if forward else pred(base)
            bound = pen[base][end] - pen_sum[-1]
            row = pen[end]
            s_end, p_end = succ(end), pred(end)
            for t3 in cand[end]:
                fe += 1
                if row[t3] >= bound:
                    return best_k, best_pen  # cost-sorted: none later can fit
                if t3 == base or t3 == s_end or t3 == p_end:
                    continue
                if do_move(base, end, t3, forward):
                    break
            else:
                return best_k, best_pen
            if pen_sum[-1] < best_pen - 1e-12:
                best_k, best_pen = len(moves), pen_sum[-1]
        return best_k, best_pen

    def chain_from(base: int, forward: bool) -> int:
        """One anchored chain; commits the winning prefix or restores the tour.

        Returns the number of moves committed (0 when none improves).
        """
        nonlocal fe
        e0 = succ(base) if forward else pred(base)
        g0 = pen[base][e0]
        row0 = pen[e0]
        s0, p0 = succ(e0), pred(e0)
        for t3 in cand[e0]:
            fe += 1
            if row0[t3] >= g0:
                break
            if t3 == base or t3 == s0 or t3 == p0:
                continue
            if not do_move(base, e0, t3, forward):
                continue
            if pen_sum[1] < -1e-12:
                return 1  # improving 2-Opt move, commit immediately
            # second level: try a few alternatives, each extended greedily
            e1 = succ(base) if forward else pred(base)
            bound1 = pen[base][e1] - pen_sum[1]
            row1 = pen[e1]
            s1, p1 = succ(e1), pred(e1)
            tried = 0
            for t5 in cand[e1]:
                fe += 1
                if row1[t5] >= bound1:
                    break
                if t5 == base or t5 == s1 or t5 == p1:
                    continue
                if not do_move(base, e1, t5, forward):
                    continue
                tried += 1
                best_k, best_pen = (2, pen_sum[2]) if pen_sum[2] < -1e-12 else (-1, 0.0)
                best_k, best_pen = extend_greedy(base, forward, best_k, best_pen)
                if best_pen < -1e-12:
                    undo_to(best_k)
                    return best_k
                undo_to(1)
                if tried >= breadth2:
                    break
            undo_to(0)
        return 0

    queue = deque()
    queued = [False] * (2 * n)

    def push(city: int):
        for item in (2 * city, 2 * city + 1):
            if not queued[item]:
                queued[item] = True
                queue.append(item)

    for city in (range(n) if active is None else active):
        push(int(city))
    while queue and not budget.exhausted():
        item = queue.popleft()
        queued[item] = False
        base = item >> 1
        k = chain_from(base, not item & 1)
        budget.charge(fe)
        fe = 0
        if k:
            raw_cost += raw_sum[k]
            push(base)
            for city in ends:
                push(city)
            moves.clear()
            ends.clear()
            del pen_sum[1:]
            del raw_sum[1:]

    tour.order[:] = order
    tour.cached_cost = raw_cost
    return not queue


def start_tour(inst, neighbors, start, seed):
    """A random tour, or an LK optimum kicked by a double bridge with its active cities."""
    rng = np.random.default_rng(seed)
    order = np.asarray(rng.permutation(inst.n), dtype=np.intp)
    tour = Tour(order, float(inst.costs[order, np.roll(order, -1)].sum()))
    if start == "cold":
        return tour, None
    reference_lk_search(inst, neighbors, tour, Budget())
    kicked = double_bridge(inst, tour, rng)
    return kicked, new_edge_endpoints(tour.order, kicked.order)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(5, 60), seed=st.integers(0, 10_000), k=st.integers(2, 10),
       penalized=st.booleans(), start=st.sampled_from(["cold", "kicked"]),
       depth=st.integers(2, LK_DEPTH), breadth2=st.integers(1, 4),
       cap=st.sampled_from(["zero", "mid-chain", "none"]), data=st.data())
def test_lk_matches_reference_chain(n, seed, k, penalized, start, depth, breadth2, cap, data):
    if start == "kicked" and n < 8:
        start = "cold"  # a double bridge needs 8 cities
    inst = random_tsp_instance(n, seed)
    neighbors = build_neighbor_lists(inst, k)
    tour, active = start_tour(inst, neighbors, start, seed)
    objective = None
    if penalized:
        order = tour.order
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        c_tilde = data.draw(st.floats(0.5, 500.0))
        objective = penalized_rows(
            inst, [(order[p], order[(p + 1) % n]) for p in picks], c_tilde)
    kwargs = dict(objective=objective, depth=depth, breadth2=breadth2, active=active)
    full = Budget()
    reference_lk_search(inst, neighbors, tour.copy(), full, **kwargs)
    if cap == "mid-chain":
        max_fe = data.draw(st.integers(1, full.consumed_fe))
    else:
        max_fe = 0 if cap == "zero" else None
    # Uncapped, lk_search gets a cap far past the reference's FE count: when
    # the two agree it is never reached, and a wrong chain that keeps finding
    # false gains fails instead of running forever.
    runs = []
    for search, limit in ((reference_lk_search, max_fe),
                          (lk_search, 10 * full.consumed_fe if max_fe is None else max_fe)):
        out = tour.copy()
        budget = Budget(max_fe=limit)
        converged = search(inst, neighbors, out, budget, **kwargs)
        runs.append((out.order.tobytes(), out.cached_cost, budget.consumed_fe, converged))
    assert runs[0] == runs[1]


def test_lk_matches_reference_in_production_configuration():
    """rand100 with the solver's neighbor lists, default depth and breadth: a
    cold start, then five double-bridge kicks from the LK optimum."""
    inst = random_tsp_instance(100, seed=900)
    neighbors = build_neighbor_lists(inst, SolverConfig(algorithm="ilk").neighbor_k)
    rng = np.random.default_rng(900)
    tour, active = start_tour(inst, neighbors, "cold", 900)
    for kick in range(6):
        if kick:
            kicked = double_bridge(inst, tour, rng)
            tour, active = kicked, new_edge_endpoints(tour.order, kicked.order)
        runs = []
        for search in (reference_lk_search, lk_search):
            out = tour.copy()
            budget = Budget()
            converged = search(inst, neighbors, out, budget, active=active)
            runs.append((out.order.tobytes(), out.cached_cost, budget.consumed_fe, converged))
        assert runs[0] == runs[1]
        tour = out


@pytest.mark.parametrize("city", [3.7, np.float64(19.9)], ids=["float", "numpy-float"])
def test_non_integral_active_city_is_rejected(city):
    inst = random_tsp_instance(20, seed=3)
    neighbors = build_neighbor_lists(inst, 5)
    tour, _ = start_tour(inst, neighbors, "cold", 3)
    order = tour.order.copy()
    budget = Budget()
    with pytest.raises(ValueError, match=re.escape(f"active city {city!r} is not an integer")):
        lk_search(inst, neighbors, tour, budget, active=[3, city])
    assert budget.consumed_fe == 0
    assert np.array_equal(tour.order, order)


def test_numpy_integer_active_cities_are_accepted():
    inst = random_tsp_instance(20, seed=3)
    neighbors = build_neighbor_lists(inst, 5)
    runs = []
    for active in ([3, 19], [np.int64(3), np.int32(19)]):
        tour, _ = start_tour(inst, neighbors, "cold", 3)
        budget = Budget()
        converged = lk_search(inst, neighbors, tour, budget, active=active)
        runs.append((tour.order.tobytes(), tour.cached_cost, budget.consumed_fe, converged))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("city", [-1, 20])
def test_active_city_out_of_range_is_rejected(city):
    inst = random_tsp_instance(20, seed=3)
    neighbors = build_neighbor_lists(inst, 5)
    tour, _ = start_tour(inst, neighbors, "cold", 3)
    order = tour.order.copy()
    budget = Budget()
    with pytest.raises(ValueError, match=f"active city {city} "):
        lk_search(inst, neighbors, tour, budget, active=[3, city])
    assert budget.consumed_fe == 0
    assert np.array_equal(tour.order, order)
