"""Escape mechanisms for local optima, driven by the decomposed sub-objectives.

Two families: non-dominance search (and its unfiltered exhaustive variant)
scan the neighborhoods of a local optimum's neighbors for a strictly better
solution, where the filtered form only descends into neighbors not dominated
by the optimum under (f1, f2). Penalty exploitation re-searches around a
Lin-Kernighan optimum after surcharging a few of its edges.

Scan order is the same fixed lexicographic order local search uses, so the
filtered scan consumes a subset of the unfiltered scan's evaluations on the
same input.

A two-hop scan flags exactly which neighbors succeed, in two stages from
the view's `two_hop_best`. The screen costs O(1) per neighbor: a 2-Opt view
reads O(n^2) tables built once per scan instead of scoring the neighbor's
n(n-3)/2 moves, and flags a neighbor or rules it out with a lower bound. The
score costs O(n) per neighbor it is left: a 2-Opt view scores the moves
through the neighbor's new edges, and a flip view, which has no screen, every
neighbor's n gains. The scan screens every neighbor that a sequential
neighbor-by-neighbor scan would start before `max_fe` runs out at once, then
scores the survivors in chunks of at most BLOCK_DELTAS // n, each chunk
ending a block of neighbors (with no screen, a chunk is a slice). Only the first neighbor that
succeeds is built, and the view's own `first_improvement` finds its hit.
FE charges stay exactly those of the sequential scan, so an FE cap still
overshoots by at most one scan. A `max_wall` budget is checked before every
chunk, so it can overrun by one chunk (under 1 ms on eil51).
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


# A chunk of a two-hop scan's O(n) score holds up to BLOCK_DELTAS // n of the
# neighbors its screen leaves: 321 survivors on eil51 (one chunk for all of
# an optimum's, about 200 of 1224), 16 neighbors on a 1000-variable UBQP,
# enough to amortize numpy's per-call cost (on eil51, blocks of 13 made ens
# twice as slow as blocks of 64-321). A chunk's temporaries, up to about
# 130 kB each on eil51 (52 x 321 x 8 = 133,536 B), live in the view's
# scratch: allocated by its first chunk, reused by later ones.
BLOCK_DELTAS = 1 << 14


def two_hop_blocks(view, sol, ks, d, budget: Budget, *, first_hit: bool):
    """Flag, in order and a block at a time, which of sol's neighbors ks succeed.

    d holds sol's own move deltas. Yields (block, hits), consecutive slices
    of ks: hits[i] says whether neighbor block[i] succeeds, that is, whether
    one of its moves reaches a solution strictly better than sol. Every
    neighbor a sequential scan would start before max_fe runs out is
    screened at once; the survivors are then scored in chunks of at most
    BLOCK_DELTAS // n, and a block ends at its chunk's last survivor (the
    last block at the end of the screened neighbors); a view with no screen
    has every neighbor scored, a slice of ks at a time. With first_hit the
    scan ends at the first neighbor the screen flags, so no survivor after
    it is scored. The budget is checked before every chunk, so a max_wall
    budget overruns by at most one; the caller charges what it uses of each
    block.
    """
    f_star = view.value(sol)
    screen, score = view.two_hop_best(sol, d)
    left = budget.charges_left(view.size)
    if left < len(ks):
        ks = ks[:left]
    cap = max(1, BLOCK_DELTAS // view.inst.n)
    # a move of delta x from neighbor k succeeds when x beats
    # f_star - value(k), both differences as a sequential scan takes them
    if screen is None:  # every neighbor survives: a block is a chunk of ks
        for start in range(0, len(ks), cap):
            if budget.exhausted():
                return
            block = ks[start:start + cap]
            yield block, score(block, f_star - (f_star + d[block]))
        return
    thr = f_star - (f_star + d[ks])
    hits, rest = screen(ks, thr)
    if first_hit and hits.any():
        end = int(hits.argmax()) + 1
        ks, hits, rest = ks[:end], hits[:end], rest[:np.searchsorted(rest, end)]
    start = 0
    while start < len(ks):
        if budget.exhausted():
            return
        chunk, rest = rest[:cap], rest[cap:]
        if chunk.size:
            hits[chunk] = score(ks.take(chunk), thr.take(chunk))
        end = int(chunk[-1]) + 1 if rest.size else len(ks)
        yield ks[start:end], hits[start:end]
        start = end


def _first_two_hop(view, sol, ks, d, budget: Budget):
    """The first solution two hops from sol strictly better than it, else sol.

    Charges what a sequential scan evaluates: a whole neighborhood per
    neighbor that fails, and up to the hit in the one that succeeds. Only
    that one is built, and its own first-improvement scan applies the hit;
    RuntimeError when that scan misses the hit the tables flagged.
    """
    for block, hits in two_hop_blocks(view, sol, ks, d, budget, first_hit=True):
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
