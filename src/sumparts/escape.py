"""Escape mechanisms for local optima, driven by the decomposed sub-objectives.

Two families: non-dominance search (and its unfiltered exhaustive variant)
scan the neighborhoods of a local optimum's neighbors for a strictly better
solution, where the filtered form only descends into neighbors not dominated
by the optimum under (f1, f2). Penalty exploitation re-searches around a
Lin-Kernighan optimum after surcharging a few of its edges.

Scan order is the same fixed lexicographic order local search uses, so the
filtered scan consumes a subset of the unfiltered scan's evaluations on the
same input.

Two-hop scans run in blocks, and `two_hop_best` flags exactly which of a
block's neighbors succeed: a flip view takes the best of each neighbor's n
gains, and a 2-Opt view reads O(n^2) tables built once per scan instead of
scoring the neighbor's n(n-3)/2 moves, so a neighbor costs O(1) work when a
lower bound rules it out and O(n) otherwise. Only the first neighbor that
succeeds is built, and the view's own `first_improvement` finds its hit.
FE charges stay exactly those of a sequential neighbor-by-neighbor scan, and
a block never starts more neighbors than that scan would before `max_fe`
runs out, so an FE cap still overshoots by at most one scan. A `max_wall`
budget is checked between blocks, so it can overrun by one block (under
2 ms on eil51).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import MINIMIZE, Tour, TspInstance, check_numbers
from .search import Budget, lk_search, penalized_rows


def dominated_mask(sense: int, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Which neighbors a local optimum dominates, from sub-objective deltas.

    d1/d2 are f1/f2 changes of each neighbor relative to the optimum.
    Dominance is componentwise and strict in at least one component, so it
    is irreflexive; the sense reverses it for maximization.
    """
    if sense == MINIMIZE:
        return (d1 >= 0.0) & (d2 >= 0.0) & ((d1 > 0.0) | (d2 > 0.0))
    return (d1 <= 0.0) & (d2 <= 0.0) & ((d1 < 0.0) | (d2 < 0.0))


# A block of a two-hop scan holds BLOCK_DELTAS // n neighbors: 321 on eil51,
# 16 on a 1000-variable UBQP, enough to amortize numpy's per-call cost (on
# eil51, blocks of 13 made ens twice as slow as blocks of 64-321). A block's
# temporaries, up to about 130 kB each on eil51 (52 x 321 x 8 = 133,536 B),
# live in the view's scratch: allocated by its first block, reused by later
# ones.
BLOCK_DELTAS = 1 << 14


def two_hop_blocks(view, sol, ks, d, budget: Budget):
    """Flag, in order and a block at a time, which of sol's neighbors ks succeed.

    d holds sol's own move deltas. Yields (block, hits): hits[i] says whether
    neighbor block[i] succeeds, that is, whether one of its moves reaches a
    solution strictly better than sol. The budget is checked before every
    block, and a block holds no more neighbors than a sequential scan would
    start before max_fe runs out; the caller charges what it uses.
    """
    f_star = view.value(sol)
    flag = view.two_hop_best(sol, d)
    cap = max(1, BLOCK_DELTAS // view.inst.n)
    start = 0
    while start < len(ks):
        if budget.exhausted():
            return
        block = ks[start:start + min(cap, budget.charges_left(view.size))]
        # a move of delta x from neighbor k succeeds when x beats
        # f_star - value(k), both differences as a sequential scan takes them
        yield block, flag(block, f_star - (f_star + d[block]))
        start += len(block)


def _first_two_hop(view, sol, ks, d, budget: Budget):
    """The first solution two hops from sol strictly better than it, else sol.

    Charges what a sequential scan evaluates: a whole neighborhood per
    neighbor that fails, and up to the hit in the one that succeeds. Only
    that one is built, and its own first-improvement scan applies the hit;
    RuntimeError when that scan misses the hit the tables flagged.
    """
    for block, hits in two_hop_blocks(view, sol, ks, d, budget):
        i = int(hits.argmax())
        if not hits[i]:
            budget.charge(len(block) * view.size)
            continue
        budget.charge(i * view.size)
        k = int(block[i])
        cand = view.neighbor(sol, k, d.item(k))
        if not view.first_improvement(cand, view.value(sol) - view.value(cand), budget):
            raise RuntimeError(f"two-hop tables flagged neighbor {k}, but its scan finds no hit")
        return cand
    return sol


def nds(sol, view, budget: Budget):
    """Two-hop escape filtered by non-dominance (first-improvement).

    Scans neighbors x' of the local optimum; whenever the optimum does not
    dominate x' under (f1, f2), scans x''s neighborhood and returns the first
    x'' strictly better than the optimum. Returns the input unchanged when no
    improvement is found or the budget runs out between inner scans. Charges
    budget view.size FEs for the optimum's own scan, then what `_first_two_hop` does.
    """
    if view.split is None:
        raise ValueError("nds requires a split-aware neighborhood view")
    d, d1, d2 = view.split_deltas(sol)
    budget.charge(view.size)
    dominated = dominated_mask(view.sense, d1, d2)
    return _first_two_hop(view, sol, np.flatnonzero(~dominated), d, budget)


def ens(sol, view, budget: Budget):
    """The same two-hop escape and charges without the dominance filter (scans every x')."""
    d = view.deltas(sol)
    budget.charge(view.size)
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
        check_numbers(self, integers=("rounds", "k_edges"), optional=("c_tilde",),
                      non_negative=("rounds",))
        if self.k_edges < 1:
            raise ValueError("k_edges must be >= 1")
        if self.c_tilde is not None and self.c_tilde <= 0:
            raise ValueError("c_tilde must be positive")


def add_random_penalty(x_star: Tour, inst: TspInstance, cfg: PenaltyConfig,
                       rng: np.random.Generator) -> list[list[float]]:
    """Surcharge k distinct random edges of the tour; returns their `penalized_rows`."""
    n = x_star.n
    positions = rng.choice(n, size=cfg.k_edges, replace=False)
    order = x_star.order
    edges = [(int(order[p]), int(order[(p + 1) % n])) for p in positions]
    return penalized_rows(inst, edges, inst.max_cost if cfg.c_tilde is None else cfg.c_tilde)


def further_exploit(x_star: Tour, inst: TspInstance, neighbors: list[list[int]],
                    cfg: PenaltyConfig, budget: Budget, rng: np.random.Generator) -> Tour:
    """Penalty-driven exploitation of an LK local optimum.

    Up to T rounds: surcharge k random tour edges drawn from rng, LK-search
    those cost rows on a copy of the optimum, then the plain costs on the
    same copy, both from a cold start that queues every city; return the
    first strict improvement (in plain cost) immediately. After T failed
    rounds (or budget exhaustion) the original tour is returned.
    """
    for _ in range(cfg.rounds):
        if budget.exhausted():
            break
        penalized = add_random_penalty(x_star, inst, cfg, rng)
        x = x_star.copy()
        lk_search(inst, neighbors, x, budget, objective=penalized)
        lk_search(inst, neighbors, x, budget)
        if x.cached_cost < x_star.cached_cost:
            return x
    return x_star
