"""Escape mechanisms for local optima, driven by the decomposed sub-objectives.

Two families: non-dominance search (and its unfiltered exhaustive variant)
scan the neighborhoods of a local optimum's neighbors for a strictly better
solution, where the filtered form only descends into neighbors not dominated
by the optimum under (f1, f2). Penalty exploitation re-searches around a
Lin-Kernighan optimum after surcharging a few of its edges.

Scan order is the same fixed lexicographic order local search uses, so the
filtered scan consumes a subset of the unfiltered scan's evaluations on the
same input.

Two-hop scans run in blocks: one numpy call scores the whole neighborhoods of
a block of neighbors (`two_hop_deltas`), and only the winning solution is
built. FE charges stay exactly those of a sequential neighbor-by-neighbor
scan, and a block never starts more neighbors than that scan would before
`max_fe` runs out, so an FE cap still overshoots by at most one scan. A
`max_wall` budget is checked between blocks, so it can overrun by one block
(under 1 ms on eil51).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import MAXIMIZE, MINIMIZE, Tour, TspInstance
from .search import Budget, NeighborList, PenalizedTspObjective, lk_search, unlimited


@dataclass(frozen=True)
class ObjectivePair:
    """A solution's (f1, f2) values under its instance's optimization sense."""

    v1: float
    v2: float
    sense: int = MINIMIZE


def dominates(u: ObjectivePair, v: ObjectivePair) -> bool:
    """Componentwise dominance; reversed for maximization. Irreflexive."""
    if u.sense != v.sense:
        raise ValueError("cannot compare objective pairs with different senses")
    if u.sense == MINIMIZE:
        return u.v1 <= v.v1 and u.v2 <= v.v2 and (u.v1 < v.v1 or u.v2 < v.v2)
    return u.v1 >= v.v1 and u.v2 >= v.v2 and (u.v1 > v.v1 or u.v2 > v.v2)


def non_dominated(u: ObjectivePair, v: ObjectivePair) -> bool:
    return not dominates(u, v) and not dominates(v, u)


def dominated_mask(sense: int, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Which neighbors a local optimum dominates, from sub-objective deltas.

    d1/d2 are f1/f2 changes of each neighbor relative to the optimum.
    """
    if sense == MINIMIZE:
        return (d1 >= 0.0) & (d2 >= 0.0) & ((d1 > 0.0) | (d2 > 0.0))
    return (d1 <= 0.0) & (d2 <= 0.0) & ((d1 < 0.0) | (d2 < 0.0))


# Deltas scored per block of a two-hop scan: 13 neighbors on eil51, 16 on a
# 1000-variable UBQP. Enough to amortize numpy's per-call cost, while each
# 8-byte temporary stays under 128 kB, glibc's default threshold for giving
# an allocation its own mapping. Twice the size scanned eil51 about 7% faster
# but added 1.3 MB to peak memory.
BLOCK_DELTAS = 1 << 14


def two_hop_blocks(view, sol, ks, d, budget: Budget | None = None):
    """Score the neighborhoods of sol's neighbors ks, in order, a block at a time.

    d holds sol's own move deltas. Yields (block, hits): hits[i, j] says
    whether move j of neighbor block[i] reaches a solution strictly better
    than sol. With a budget, it is checked before every block, and a block
    holds no more neighbors than a sequential scan would start before
    max_fe runs out; the caller charges what it uses.
    """
    size = view.size
    f_star = view.value(sol)
    cap = max(1, BLOCK_DELTAS // size)
    start = 0
    while start < len(ks):
        rows = cap
        if budget is not None:
            if budget.exhausted():
                return
            if budget.max_fe is not None:
                rows = min(rows, math.ceil((budget.max_fe - budget.consumed_fe) / size))
        block = ks[start:start + rows]
        deltas, values = view.two_hop_deltas(sol, block, d)
        threshold = (f_star - values)[:, None]
        yield block, (deltas < threshold if view.sense == MINIMIZE else deltas > threshold)
        start += len(block)


def _first_two_hop(view, sol, ks, d, budget: Budget):
    """The first solution two hops from sol strictly better than it, else sol.

    Charges what a sequential scan evaluates: a whole neighborhood per
    neighbor that fails, and up to the hit in the one that succeeds.
    """
    for block, hits in two_hop_blocks(view, sol, ks, d, budget):
        first = int(hits.argmax())
        if not hits.flat[first]:
            budget.charge(hits.size)
            continue
        budget.charge(first + 1)
        k = int(block[first // view.size])
        cand = view.neighbor(sol, k, float(d[k]))
        view.apply(cand, first % view.size)
        return cand
    return sol


def nds(sol, view, budget: Budget | None = None):
    """Two-hop escape filtered by non-dominance (first-improvement).

    Scans neighbors x' of the local optimum; whenever the optimum does not
    dominate x' under (f1, f2), scans x''s neighborhood and returns the first
    x'' strictly better than the optimum. Returns the input unchanged when no
    improvement is found or the budget runs out between inner scans.
    """
    if view.split is None:
        raise ValueError("nds requires a split-aware neighborhood view")
    budget = budget if budget is not None else unlimited()
    d, d1, d2 = view.split_deltas(sol, budget)
    dominated = dominated_mask(view.sense, d1, d2)
    return _first_two_hop(view, sol, np.flatnonzero(~dominated), d, budget)


def ens(sol, view, budget: Budget | None = None):
    """The same two-hop escape without the dominance filter (scans every x')."""
    budget = budget if budget is not None else unlimited()
    d = view.deltas(sol, budget)
    return _first_two_hop(view, sol, np.arange(view.size), d, budget)


# ---------------------------------------------------------------------------
# penalty exploitation around Lin-Kernighan optima


@dataclass(frozen=True)
class PenaltyConfig:
    """Exploitation controls: rounds T, penalized edge count k, surcharge."""

    rounds: int = 1000
    k_edges: int = 5
    c_tilde: float | None = None  # None: use the instance's largest edge cost

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.k_edges < 1:
            raise ValueError("k_edges must be >= 1")
        if self.c_tilde is not None and self.c_tilde <= 0:
            raise ValueError("c_tilde must be positive")

    def resolve_c_tilde(self, inst: TspInstance) -> float:
        return self.c_tilde if self.c_tilde is not None else inst.max_cost


def add_random_penalty(x_star: Tour, inst: TspInstance, cfg: PenaltyConfig,
                       rng: np.random.Generator) -> PenalizedTspObjective:
    """Surcharge k distinct random edges of the tour; returns the cost view."""
    n = x_star.n
    if cfg.k_edges > n:
        raise ValueError("cannot penalize more edges than the tour has")
    positions = rng.choice(n, size=cfg.k_edges, replace=False)
    order = x_star.order
    edges = [(int(order[p]), int(order[(p + 1) % n])) for p in positions]
    return PenalizedTspObjective(inst, edges, cfg.resolve_c_tilde(inst))


def further_exploit(x_star: Tour, inst: TspInstance, neighbors: NeighborList,
                    cfg: PenaltyConfig, budget: Budget | None = None,
                    rng: np.random.Generator | None = None) -> Tour:
    """Penalty-driven exploitation of an LK local optimum.

    Up to T rounds: penalize k random tour edges, LK-search the penalized
    objective from the optimum, then LK-search the plain objective from the
    result, both from a cold start that queues every city; return the first
    strict improvement immediately. After T failed rounds (or budget
    exhaustion) the original tour is returned.
    """
    budget = budget if budget is not None else unlimited()
    rng = rng if rng is not None else np.random.default_rng()
    for _ in range(cfg.rounds):
        if budget.exhausted():
            break
        penalized = add_random_penalty(x_star, inst, cfg, rng)
        x_p = lk_search(inst, neighbors, x_star.copy(), budget, objective=penalized)[0]
        x_pp = lk_search(inst, neighbors, x_p, budget)[0]
        if x_pp.cached_cost < x_star.cached_cost:
            return x_pp
    return x_star
