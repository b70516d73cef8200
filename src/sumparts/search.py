"""Local search kernels, perturbations and their function-evaluation accounting.

All kernels count one FE per neighbor delta (or full) evaluation and stop
between neighborhood scans once the budget is exhausted, so a run can
overshoot its budget by at most one scan. First-improvement scans use a fixed
lexicographic move order and restart from the first move after each accepted
move, which makes every seeded run exactly reproducible.

The two-hop escape scans (escape.py) run in blocks: `two_hop_deltas` scores
the whole neighborhoods of several neighbors per numpy call. Their FE charges
stay exactly those of a sequential scan, and an FE cap still overshoots by at
most one scan; a `max_wall` budget is checked only between blocks, so it can
overrun by one block (under 1 ms on eil51).

Lin-Kernighan is the exception to full scans: its unit of work is one chain,
anchored at a (city, direction) pair taken from a FIFO queue of active
cities. It checks the budget between chains, so it overshoots by at most one
chain, and it converges when the queue empties, not after a clean pass over
every city.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .instances import (
    MAXIMIZE,
    MINIMIZE,
    BitVector,
    NeighborList,
    QuboInstance,
    Tour,
    TspInstance,
    apply_two_opt,
    flip_delta_and_update,
    make_bitvector,
    tour_cost,
)


@dataclass
class Budget:
    """Function-evaluation (and optional wall-clock) budget with a running count."""

    max_fe: float | None = None
    max_wall: float | None = None
    consumed_fe: int = 0
    _t0: float | None = field(default=None, repr=False)

    def start_clock(self):
        if self._t0 is None:
            self._t0 = time.monotonic()

    def charge(self, k: int):
        self.consumed_fe += int(k)

    def elapsed(self) -> float:
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    def exhausted(self) -> bool:
        if self.max_fe is not None and self.consumed_fe >= self.max_fe:
            return True
        if self.max_wall is not None:
            self.start_clock()
            if time.monotonic() - self._t0 >= self.max_wall:
                return True
        return False


def unlimited() -> Budget:
    return Budget()


def better(sense: int, a: float, b: float) -> bool:
    """True when value a improves on value b under the given sense."""
    return a < b if sense == MINIMIZE else a > b


# ---------------------------------------------------------------------------
# neighborhood views
#
# A view exposes one instance's standard move set (2-Opt or 1-bit-flip) in a
# fixed lexicographic order, with vectorized delta computation whose FE
# charges match a sequential scan exactly.


@lru_cache(maxsize=32)
def _two_opt_moves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Position pairs (p, q) of all n(n-3)/2 distinct 2-Opt moves, lexicographic."""
    ps, qs = [], []
    for p in range(n - 2):
        hi = n - 1 if p > 0 else n - 2  # (0, n-1) recreates the same tour
        for q in range(p + 2, hi + 1):
            ps.append(p)
            qs.append(q)
    return np.asarray(ps, dtype=np.intp), np.asarray(qs, dtype=np.intp)


class TwoOptNeighborhood:
    """2-Opt move space of a TSP instance (optionally split-aware)."""

    sense = MINIMIZE

    def __init__(self, inst: TspInstance, split=None):
        self.inst = inst
        self.split = split
        self.p, self.q = _two_opt_moves(inst.n)
        self.size = self.p.shape[0]
        self._p1 = self.p + 1
        self._succ = np.roll(np.arange(inst.n), -1)
        self._scratch = None  # two_hop_deltas' temporaries, reused across calls

    def deltas(self, tour: Tour, budget: Budget | None = None) -> np.ndarray:
        """f deltas of every move, charging one FE per move."""
        t = tour.order
        nxt = np.roll(t, -1)
        a, b = t[self.p], nxt[self.p]
        c, d = t[self.q], nxt[self.q]
        m = self.inst.costs
        out = m[a, c] + m[b, d] - m[a, b] - m[c, d]
        if budget is not None:
            budget.charge(self.size)
        return out

    def split_deltas(self, tour: Tour, budget: Budget | None = None):
        """(f, f1, f2) deltas of every move; each pair counts as one FE.

        The f delta comes from the original cost matrix, not from d1 + d2,
        so downstream cache arithmetic stays exact on integer instances.
        """
        t = tour.order
        nxt = np.roll(t, -1)
        a, b = t[self.p], nxt[self.p]
        c, d = t[self.q], nxt[self.q]
        m = self.inst.costs
        m1, m2 = self.split.mat1, self.split.mat2
        d0 = m[a, c] + m[b, d] - m[a, b] - m[c, d]
        d1 = m1[a, c] + m1[b, d] - m1[a, b] - m1[c, d]
        d2 = m2[a, c] + m2[b, d] - m2[a, b] - m2[c, d]
        if budget is not None:
            budget.charge(self.size)
        return d0, d1, d2

    def first_improvement(self, tour: Tour, threshold: float, budget: Budget):
        """Index of the first move improving past threshold, else None.

        Charges exactly what a sequential scan would evaluate.
        """
        d = self.deltas(tour, budget=None)
        hits = np.flatnonzero(d < threshold)
        if hits.shape[0] == 0:
            budget.charge(self.size)
            return None
        k = int(hits[0])
        budget.charge(k + 1)
        return k

    def two_hop_deltas(self, tour: Tour, ks: np.ndarray, d: np.ndarray):
        """Deltas of every move of the neighbors ks, one row each, and their values.

        Row i equals deltas() of neighbor(tour, ks[i]) bit for bit: each row
        gathers the same costs and adds them in the same order, through the
        position permutation that reverses the neighbor's segment, so no
        neighbor is materialized. d holds the tour's own move deltas.
        The index temporaries live in buffers kept between calls: allocated
        per call, they page-faulted about 7 times per eil51 row.
        """
        n, rows = self.inst.n, len(ks)
        if self._scratch is None or self._scratch[0].shape[0] < rows:
            self._scratch = (np.empty((rows, self.size), dtype=np.intp),
                             np.empty((rows, self.size), dtype=np.intp),
                             np.empty((rows, self.size)))
        idx, tmp, cost = (a[:rows] for a in self._scratch)
        lo = self._p1[ks, None]
        hi = self.q[ks, None]
        i = np.arange(n)
        t = tour.order[np.where((i >= lo) & (i <= hi), lo + hi - i, i)]
        nxt = t.take(self._succ, axis=1)
        tn = t * n
        costs = self.inst.costs.ravel()
        edge = costs.take(tn + nxt)
        # m[a, c] + m[b, d] - m[a, b] - m[c, d], as in deltas()
        tn.take(self.p, axis=1, out=idx, mode="clip")
        idx += t.take(self.q, axis=1, out=tmp, mode="clip")
        out = costs.take(idx)
        tn.take(self._p1, axis=1, out=idx, mode="clip")
        idx += nxt.take(self.q, axis=1, out=tmp, mode="clip")
        out += costs.take(idx, out=cost, mode="clip")
        out -= edge.take(self.p, axis=1, out=cost, mode="clip")
        out -= edge.take(self.q, axis=1, out=cost, mode="clip")
        return out, tour.cached_cost + d[ks]

    def move_delta(self, tour: Tour, k: int) -> float:
        t = tour.order
        n = t.shape[0]
        p, q = int(self.p[k]), int(self.q[k])
        a, b = t[p], t[p + 1]
        c, d = t[q], t[(q + 1) % n]
        m = self.inst.costs
        return float(m[a, c] + m[b, d] - m[a, b] - m[c, d])

    def apply(self, tour: Tour, k: int, delta: float | None = None):
        if delta is None:
            delta = self.move_delta(tour, k)
        apply_two_opt(tour, int(self.p[k]), int(self.q[k]), float(delta))

    def neighbor(self, tour: Tour, k: int, delta: float | None = None) -> Tour:
        out = tour.copy()
        self.apply(out, k, delta)
        return out

    def value(self, tour: Tour) -> float:
        return tour.cached_cost

    def random_solution(self, rng: np.random.Generator) -> Tour:
        order = np.asarray(rng.permutation(self.inst.n), dtype=np.intp)
        return Tour(order, tour_cost(self.inst, order))

    def perturb(self, tour: Tour, rng: np.random.Generator) -> Tour:
        if self.inst.n >= 8:
            return double_bridge(self.inst, tour, rng)
        return pair_swap_kick(self.inst, tour, rng)


class FlipNeighborhood:
    """1-bit-flip move space of a UBQP instance (optionally split-aware)."""

    sense = MAXIMIZE

    def __init__(self, inst: QuboInstance, split=None, flip_fraction: float = 0.25):
        self.inst = inst
        self.split = split
        self.size = inst.n
        self.flip_fraction = flip_fraction

    def deltas(self, bv: BitVector, budget: Budget | None = None) -> np.ndarray:
        if budget is not None:
            budget.charge(self.size)
        return bv.gains.copy()

    def split_deltas(self, bv: BitVector, budget: Budget | None = None):
        if bv.gains1 is None:
            raise ValueError("BitVector was built without a split")
        if budget is not None:
            budget.charge(self.size)
        d1 = bv.gains1.copy()
        return bv.gains.copy(), d1, bv.gains - d1

    def first_improvement(self, bv: BitVector, threshold: float, budget: Budget):
        hits = np.flatnonzero(bv.gains > threshold)  # maximization
        if hits.shape[0] == 0:
            budget.charge(self.size)
            return None
        k = int(hits[0])
        budget.charge(k + 1)
        return k

    def two_hop_deltas(self, bv: BitVector, ks: np.ndarray, d: np.ndarray):
        """Gains of every flip of the neighbors ks, one row each, and their values.

        Row i equals deltas() of neighbor(bv, ks[i]) bit for bit: it applies
        flip_delta_and_update's gain update with the same operands in the same
        order, without copying the solution. d holds bv's own gains.
        """
        s = 1.0 - 2.0 * bv.bits
        out = self.inst.q.take(ks, axis=0)  # += and *= commute bit for bit
        out *= (2.0 * s[ks])[:, None]
        out *= s
        out += bv.gains
        out[np.arange(len(ks)), ks] = -bv.gains[ks]
        return out, bv.cached_value + d[ks]

    def move_delta(self, bv: BitVector, k: int) -> float:
        return float(bv.gains[k])

    def apply(self, bv: BitVector, k: int, delta: float | None = None):
        flip_delta_and_update(self.inst, bv, k)

    def neighbor(self, bv: BitVector, k: int, delta: float | None = None) -> BitVector:
        out = bv.copy()
        self.apply(out, k)
        return out

    def value(self, bv: BitVector) -> float:
        return bv.cached_value

    def random_solution(self, rng: np.random.Generator) -> BitVector:
        bits = rng.integers(0, 2, size=self.inst.n).astype(np.float64)
        return make_bitvector(self.inst, bits, self.split)

    def perturb(self, bv: BitVector, rng: np.random.Generator) -> BitVector:
        return random_flip_perturbation(self.inst, bv, self.flip_fraction, rng)


def neighborhood_for(inst, split=None):
    if isinstance(inst, TspInstance):
        return TwoOptNeighborhood(inst, split)
    if isinstance(inst, QuboInstance):
        return FlipNeighborhood(inst, split)
    raise TypeError(f"unsupported instance type: {type(inst).__name__}")


# ---------------------------------------------------------------------------
# local search


def descend(view, sol, budget: Budget) -> bool:
    """First-improvement local search to a local optimum of the view's moves.

    Returns True when the final solution was verified locally optimal by a
    full scan, False when the budget ran out first.
    """
    while True:
        if budget.exhausted():
            return False
        k = view.first_improvement(sol, 0.0, budget)
        if k is None:
            return True
        view.apply(sol, k)


def local_search_2opt(inst: TspInstance, tour: Tour, budget: Budget | None = None):
    """2-Opt first-improvement descent; returns (tour, locally_optimal)."""
    budget = budget if budget is not None else unlimited()
    converged = descend(TwoOptNeighborhood(inst), tour, budget)
    return tour, converged


def local_search_1flip(inst: QuboInstance, bv: BitVector, budget: Budget | None = None):
    """1-bit-flip first-improvement ascent; returns (bv, locally_optimal)."""
    budget = budget if budget is not None else unlimited()
    converged = descend(FlipNeighborhood(inst), bv, budget)
    return bv, converged


def is_local_optimum(view, sol) -> bool:
    d = view.deltas(sol)
    return bool(np.all(d >= 0.0)) if view.sense == MINIMIZE else bool(np.all(d <= 0.0))


# ---------------------------------------------------------------------------
# perturbations


def double_bridge(inst: TspInstance, tour: Tour, rng: np.random.Generator) -> Tour:
    """4-edge double bridge kick: cut into A|B|C|D and reconnect as A-D-C-B.

    Cut points are uniform over triples leaving every segment at least two
    cities long, which guarantees exactly four tour edges are replaced.
    """
    n = tour.n
    if n < 8:
        raise ValueError("double bridge needs n >= 8")
    while True:
        cuts = np.sort(rng.choice(np.arange(2, n - 1), size=3, replace=False))
        p1, p2, p3 = (int(c) for c in cuts)
        if p2 - p1 >= 2 and p3 - p2 >= 2:
            break
    t = tour.order
    new_order = np.concatenate([t[:p1], t[p3:], t[p2:p3], t[p1:p2]])
    m = inst.costs
    removed = m[t[p1 - 1], t[p1]] + m[t[p2 - 1], t[p2]] + m[t[p3 - 1], t[p3]] + m[t[-1], t[0]]
    added = m[t[p1 - 1], t[p3]] + m[t[-1], t[p2]] + m[t[p3 - 1], t[p1]] + m[t[p2 - 1], t[0]]
    return Tour(new_order, tour.cached_cost - float(removed) + float(added))


def pair_swap_kick(inst: TspInstance, tour: Tour, rng: np.random.Generator,
                   swaps: int = 2) -> Tour:
    """Kick for tours too short for a double bridge: swap random city pairs."""
    order = tour.order.copy()
    for _ in range(swaps):
        i, j = rng.choice(inst.n, size=2, replace=False)
        order[i], order[j] = order[j], order[i]
    return Tour(order, tour_cost(inst, order))


def random_flip_perturbation(inst: QuboInstance, bv: BitVector, fraction: float,
                             rng: np.random.Generator) -> BitVector:
    """Flip round(fraction * n) distinct random bits; caches fully rebuilt."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n = bv.n
    count = int(round(fraction * n))
    positions = rng.choice(n, size=count, replace=False)
    bits = bv.bits.copy()
    bits[positions] = 1.0 - bits[positions]
    return make_bitvector(inst, bits, bv.split)


# ---------------------------------------------------------------------------
# tabu search (UBQP)


@dataclass
class TabuState:
    """Tabu bookkeeping: tenure K and the last flip iteration per variable."""

    tenure: int
    last_flip: np.ndarray
    nonimproving_limit: int


def sample_tenure(n: int, rng: np.random.Generator) -> int:
    """Tenure drawn uniformly from [n/100 + 1, n/100 + 10] (integer division)."""
    base = n // 100
    return int(rng.integers(base + 1, base + 11))


def tabu_search(inst: QuboInstance, bv: BitVector, rng: np.random.Generator,
                budget: Budget, use_aspiration: bool = True) -> BitVector:
    """Best-improvement tabu search over 1-bit flips; returns the best visited.

    A flipped variable is frozen for K moves (K resampled per call). With
    aspiration on, a frozen flip is allowed when it would beat the best
    solution of this call. Stops after 20n moves without improving that best,
    or on budget exhaustion. Every move charges n FEs.
    """
    n = inst.n
    state = TabuState(tenure=sample_tenure(n, rng),
                      last_flip=np.full(n, -(21 * n), dtype=np.int64),
                      nonimproving_limit=20 * n)
    best = bv.copy()
    since_improve = 0
    t = 0
    while since_improve < state.nonimproving_limit and not budget.exhausted():
        budget.charge(n)
        allowed = state.last_flip + state.tenure <= t
        if use_aspiration:
            allowed |= bv.cached_value + bv.gains > best.cached_value
        if not np.any(allowed):
            allowed = np.ones(n, dtype=bool)  # everything frozen: unfreeze all
        masked = np.where(allowed, bv.gains, -np.inf)
        k = int(np.argmax(masked))
        flip_delta_and_update(inst, bv, k)
        state.last_flip[k] = t
        t += 1
        if bv.cached_value > best.cached_value:
            best = bv.copy()
            since_improve = 0
        else:
            since_improve += 1
    return best


# ---------------------------------------------------------------------------
# bounded Lin-Kernighan


class PenalizedTspObjective:
    """A TSP cost view with a surcharge on chosen edges; the base is untouched.

    `rows` shares the instance's cost rows and copies only the rows of the
    surcharged edges' endpoints; `matrix` is the same view as an array.
    """

    def __init__(self, inst: TspInstance, edges, c_tilde: float):
        self.inst = inst
        self.edges = frozenset((min(int(u), int(v)), max(int(u), int(v)))
                               for u, v in edges)
        self.c_tilde = float(c_tilde)
        rows = list(inst.cost_rows)
        copied = set()
        for u, v in self.edges:
            for a, b in {(u, v), (v, u)}:
                if a not in copied:
                    rows[a] = rows[a].copy()
                    copied.add(a)
                rows[a][b] += self.c_tilde
        self.rows = rows

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.array(self.rows)
        matrix.setflags(write=False)
        return matrix

    def tour_cost(self, order) -> float:
        order = list(order)
        rows = self.rows
        return float(sum(rows[a][b] for a, b in zip(order, order[1:] + order[:1])))


LK_DEPTH = 10
LK_BREADTH2 = 5  # alternatives tried at the second chain level


def new_edge_endpoints(before: np.ndarray, after: np.ndarray) -> list[int]:
    """Cities, ascending, incident to an edge of tour `after` missing from `before`."""
    succ_old = np.empty_like(before)
    succ_old[before] = np.roll(before, -1)
    pred_old = np.empty_like(before)
    pred_old[before] = np.roll(before, 1)
    succ_new = np.empty_like(after)
    succ_new[after] = np.roll(after, -1)
    tails = np.flatnonzero((succ_new != succ_old) & (succ_new != pred_old))
    return sorted({*tails.tolist(), *succ_new[tails].tolist()})


def lk_search(inst: TspInstance, neighbors: NeighborList, tour: Tour,
              budget: Budget | None = None,
              objective: PenalizedTspObjective | None = None,
              depth: int = LK_DEPTH, breadth2: int = LK_BREADTH2,
              active: Iterable[int] | None = None):
    """Bounded-depth sequential edge exchange (Lin-Kernighan style) descent.

    A chain is anchored at a city and a direction: the incident tour edge is
    removed and candidate edges from the neighbor lists are chained while the
    cumulative gain stays positive; the tour closes at the best gain seen.
    The first level tries every gain-positive candidate, the second up to
    breadth2, deeper levels extend greedily.

    Chains are driven by a queue of active (city, direction) pairs, the
    don't-look bits of Bentley's 2-Opt. `active` lists the cities queued
    first, both directions each; None (a cold start) queues every city in
    index order. A chain that improves queues the endpoints of every edge it
    changed that are not queued yet. The search stops when the queue empties
    or the budget runs out; the budget is checked between chains, so a run
    overshoots `max_fe` by at most one chain.

    Returns (tour, converged), where converged means the queue emptied. A
    chain's gain also depends on edges away from its anchor, so a converged
    tour is not always unchanged by a further cold start. The tour's cached
    cost is always the plain objective, also when searching a penalized view.
    Charges one FE for the start and one per candidate move evaluated. The
    incoming cached cost must be the plain one.
    """
    budget = budget if budget is not None else unlimited()
    raw = inst.cost_rows
    pen = raw if objective is None else objective.rows
    plain = objective is None
    cand = neighbors.rows
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
    return tour, not queue
