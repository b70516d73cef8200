"""Local search kernels, perturbations and their function-evaluation accounting.

All kernels count one FE per neighbor delta (or full) evaluation and stop
between neighborhood scans once the budget is exhausted, so a run can
overshoot its budget by at most one scan. The views' `deltas` and
`split_deltas` only compute; the scan that reads them charges its FEs.
First-improvement scans use a fixed lexicographic move order and restart
from the first move after each accepted move, which makes every seeded run
exactly reproducible.

The two-hop escape scans (escape.py) keep these charges and this bound, but
check a `max_wall` budget only between chunks of the neighbors they score in
O(n) work.

Lin-Kernighan is the exception to full scans: its unit of work is one chain,
anchored at a (city, direction) pair taken from a FIFO queue of active
cities. It checks the budget between chains, so it overshoots by at most one
chain, and it converges when the queue empties, not after a clean pass over
every city.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .instances import (
    MAXIMIZE,
    MINIMIZE,
    BitVector,
    QuboInstance,
    Tour,
    TspInstance,
    _flip,
    flip_delta_and_update,
    flip_gains,
    make_bitvector,
    tour_cost,
)


@dataclass
class Budget:
    """Function-evaluation (and optional wall-clock) budget with a running count."""

    max_fe: float | None = None
    max_wall: float | None = None
    consumed_fe: int = field(init=False, default=0)
    _t0: float = field(init=False, repr=False, default_factory=time.monotonic)

    def charge(self, k: int):
        self.consumed_fe += int(k)

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def exhausted(self) -> bool:
        if self.max_fe is not None and self.consumed_fe >= self.max_fe:
            return True
        return self.max_wall is not None and self.elapsed() >= self.max_wall

    def charges_left(self, k: int) -> int | float:
        """How many more charges of k FEs the FE cap lets start (inf without a cap).

        A charge starts while consumed_fe < max_fe, and for the integer
        consumed_fe that holds exactly when consumed_fe < ceil(max_fe), so
        the count is computed in integers.
        """
        if self.max_fe is None or self.max_fe == math.inf:
            return math.inf
        return max(0, -((self.consumed_fe - math.ceil(self.max_fe)) // k))


def better(sense: int, a: float, b: float) -> bool:
    """True when value a improves on value b under the given sense."""
    return a < b if sense == MINIMIZE else a > b


# ---------------------------------------------------------------------------
# neighborhood views
#
# A view exposes one instance's standard move set (2-Opt or 1-bit-flip) in a
# fixed lexicographic order, with vectorized delta computation whose FE
# charges match a sequential scan exactly.
#
# Every 2-Opt kernel first gathers the wrapped position table
# b[x, y] = m[t[x % n], t[y % n]] for x, y <= n with two `take`s, the tour's
# rows of m and then their columns, so a move's four costs sit at fixed flat
# indices of b and successors are slices. Those flat indices are cached once
# per n (`_two_opt_index`) and shared by every view of that size; no kernel
# indexes in 2D or rolls an array per call. The two-hop rows read b at each
# neighbor's tour positions, its reversed segment included. Values and the
# order they are added in are those of `two_opt_delta`'s
# m[a, c] + m[b, d] - m[a, b] - m[c, d].
#
# The kernels write their temporaries into the view's scratch (`_Scratch`)
# with `out=`, and pass numpy's ufuncs no broadcast or strided operand larger
# than a row: numpy then allocates a buffer of up to 8192 elements for each
# such operand on every call. Such a term is first copied out to contiguous
# scratch with `np.copyto`, which needs no buffer.


class _Scratch:
    """Named arrays a view's kernels write into, each allocated on first use.

    A name's array is reused by every later call, whatever its shape, and is
    reallocated only when a call needs more elements than any before it.
    Steps that never overlap share names, so a view holds the largest of
    their arrays, not all of them. Nothing in it outlives the call that
    writes it: the kernels return, and the two-hop `best` functions keep,
    fresh arrays only. Gathers into it use `take(..., mode="clip")`, because
    numpy copies `out` in the default mode; every index is in range, so the
    values are those of a plain `take`. Each (name, shape) view is kept as
    well: building it anew on every call took over a microsecond, a few
    percent of a flip block.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def __call__(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._arrays.get(name)
            if flat is None or flat.size < size:
                flat = self._arrays[name] = np.empty(size, dtype)
                self._views.clear()  # no view may keep an old array alive
            elif len(self._views) >= 64:
                self._views.clear()  # the last block of a scan has a new shape each time
            view = self._views[name, shape] = flat[:size].reshape(shape)
        return view


@dataclass(frozen=True)
class _TwoOptIndex:
    """Read-only index arrays of the 2-Opt kernels for one n.

    Move k removes the tour edges at positions p[k] and q[k]. The wrapped
    position table b is (n+1)^2; the two-hop tables are (n+2)^2 with
    position x at index x + 1. The at_* arrays are flat indices into them.
    """

    p: np.ndarray
    q: np.ndarray
    col: np.ndarray  # 0..n, the positions of a wrapped order
    wrap: np.ndarray  # col % n
    at_ac: np.ndarray  # b[p, q], the new edge (t[p], t[q])
    at_bd: np.ndarray  # b[p+1, q+1]
    at_ab: np.ndarray  # b[p, p+1], the removed edge at p
    at_cd: np.ndarray  # b[q, q+1]
    near: np.ndarray  # two-hop table entries (x, y) with y < x + 2, which are no move
    at_d: np.ndarray  # [p+1, q+1] of a two-hop table
    at_lh: np.ndarray  # [p, q+2]
    at_rr: np.ndarray  # [p+2, q]
    at_lr: np.ndarray  # [p, q]
    at_rh: np.ndarray  # [p+2, q+2]
    below: np.ndarray  # below[x, y] = x < y, for x, y <= n


@lru_cache(maxsize=32)
def _two_opt_index(n: int) -> _TwoOptIndex:
    """Index arrays of the n(n-3)/2 distinct 2-Opt moves, in lexicographic order."""
    p, q = np.triu_indices(n, 2)
    keep = (p > 0) | (q < n - 1)  # (0, n-1) recreates the same tour
    p, q = p[keep], q[keep]
    v, w = n + 1, n + 2
    col = np.arange(v)
    i = np.arange(w)
    index = _TwoOptIndex(
        p=p, q=q, col=col, wrap=col % n,
        at_ac=p * v + q, at_bd=(p + 1) * v + q + 1, at_ab=p * v + p + 1, at_cd=q * v + q + 1,
        near=np.subtract.outer(i, i) > -2,
        at_d=(p + 1) * w + q + 1, at_lh=p * w + q + 2, at_rr=(p + 2) * w + q,
        at_lr=p * w + q, at_rh=(p + 2) * w + q + 2, below=np.less.outer(col, col))
    for a in vars(index).values():
        a.setflags(write=False)
    return index


def _apply_first(view, sol, hit: np.ndarray, d: np.ndarray, budget: Budget) -> bool:
    """Apply the first move hit flags, at its delta in d; False if none.

    Charges exactly what a sequential scan would evaluate.
    """
    k = int(hit.argmax())
    if not hit[k]:
        budget.charge(view.size)
        return False
    budget.charge(k + 1)
    view.apply(sol, k, d.item(k))
    return True


class TwoHopFlags(NamedTuple):
    """The two stages of a two-hop scan's hit flags, for one solution's neighbors.

    Both take neighbors ks and thresholds thr; neighbor ks[i] is flagged when
    one of its moves reaches a delta below thr[i] (above, for a maximizing
    view). `screen` costs O(1) per neighbor and returns (hit, rest): hit[i] is
    exact for every i outside rest, the increasing positions left for
    `score`, which costs O(n) per neighbor and is exact for any neighbor the
    screen does not flag. A view with no O(1) stage has no screen (None), and
    its score takes every neighbor. Calling the pair flags ks exactly, in one
    chunk.
    """

    screen: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    score: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, ks: np.ndarray, thr: np.ndarray) -> np.ndarray:
        if self.screen is None:
            return self.score(ks, thr)
        hit, rest = self.screen(ks, thr)
        if rest.size:
            hit[rest] = self.score(ks.take(rest), thr.take(rest))
        return hit


def _new_edge_bound(nearest: np.ndarray, gain: np.ndarray, pk: np.ndarray, qk: np.ndarray,
                    c: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """A lower bound on neighbor (pk[i], qk[i])'s deltas over its moves through
    one new edge and one tour edge, in O(1) work per neighbor.

    With b[x, y] = m[t[x], t[y]] and e[x] = b[x, x+1], a move through the
    new edge at P = pk[i], of cost c[i], and the tour edge e[x] adds
    b[P, u] + b[Q, u'] for {u, u'} = {x, x+1} with u != P and u' != Q. So
    its delta is at least nearest[P] + gain[Q] - c[i], where nearest[y] is
    t[y]'s least cost to another city and gain[y] the least b[y, u] - e[x]
    over u != y and the two tour edges x at u. The new edge at Q, of cost
    c2[i], gives the same with rows P+1 and Q+1.
    """
    bound = nearest.take(pk)
    bound += gain.take(qk)
    bound -= c
    at_q = nearest.take(pk + 1)
    at_q += gain.take(qk + 1, mode="wrap")
    at_q -= c2
    return np.minimum(bound, at_q, out=bound)


def _new_edge_best(flat: np.ndarray, ix: _TwoOptIndex, pk: np.ndarray, qk: np.ndarray,
                   scratch: _Scratch) -> np.ndarray:
    """Neighbor (pk[i], qk[i])'s least delta over the moves through one of its new edges.

    flat is the tour's raveled wrapped position table. A column costs O(n):
    it scores each new edge against every edge of the neighbor's tour, the
    other new edge included, as deltas() would on the built neighbor.
    """
    v, r = len(ix.col), len(pk)
    n = v - 1
    below = ix.below
    # column i: the tour positions of neighbor i's cities, wrapped, with its
    # segment [P+1, Q] reversed, so flat[at[j] * v + at[j + 1]] is its edge
    # at position j
    lo = pk + 1
    inside = below.take(qk + 1, axis=1, out=scratch("inside", v, r, dtype=bool), mode="clip")
    inside ^= below.take(lo, axis=1, out=scratch("mask", v, r, dtype=bool),
                         mode="clip")  # j <= Q, minus j < P+1
    at = scratch("at", v, r, dtype=np.intp)
    rev = scratch("gather", v, r, dtype=np.intp)  # dead before gather is written
    np.copyto(at, ix.col[:, None])
    np.copyto(rev, lo + qk)
    np.subtract(rev, at, out=at, where=inside)
    at[-1] = 0  # position n wraps to 0, and no segment reaches it
    gather = scratch("gather", n, r, dtype=np.intp)
    np.multiply(at[:-1], v, out=gather)
    gather += at[1:]
    edge = flat.take(gather, out=scratch("edge", n, r), mode="clip")
    delta, cost = scratch("delta", n, r), scratch("cost", n, r)
    before = scratch("mask", n, r, dtype=bool)
    out = np.full(r, np.inf)
    cols, step = np.arange(r), np.array([-1, 0, 1])[:, None]
    # the new edge at position P joins the cities at tour positions P and Q,
    # the one at Q those at P+1 and Q+1
    for new, pu, pv in ((pk, pk, qk), (qk, lo, qk + 1)):
        # moves (j, new) and (new, j): by symmetry the two costs deltas()
        # adds on the built neighbor, then the edge at the lower position
        # subtracted first, as there
        pu = pu * v
        np.copyto(gather, pu)
        gather += at[:-1]
        flat.take(gather, out=delta, mode="clip")
        np.copyto(gather, pv * v)
        gather += at[1:]
        delta += flat.take(gather, out=cost, mode="clip")
        below[:-1].take(new, axis=1, out=before, mode="clip")  # j < new
        np.subtract(delta, edge, out=delta, where=before)
        np.copyto(cost, flat.take(pu + pv))
        delta -= cost
        np.logical_not(before, out=before)
        np.subtract(delta, edge, out=delta, where=before)
        # adjacent edges: no move
        delta.ravel().put((new + step) % n * r + cols, np.inf)
        np.minimum(out, delta.min(axis=0), out=out)
    return out


class TwoOptNeighborhood:
    """2-Opt move space of a TSP instance (optionally split-aware)."""

    sense = MINIMIZE

    def __init__(self, inst: TspInstance, split=None):
        self.inst = inst
        self.split = split
        self.size = inst.n * (inst.n - 3) // 2

    @cached_property
    def _ix(self) -> _TwoOptIndex:
        """The kernels' index arrays, read on first use: LK runs never build them."""
        return _two_opt_index(self.inst.n)

    p = property(lambda self: self._ix.p)
    q = property(lambda self: self._ix.q)

    @cached_property
    def _scratch(self) -> _Scratch:
        """The kernels' scratch arrays, built on first use: LK and tabu runs never build them."""
        return _Scratch()

    def _table(self, mat: np.ndarray, tour: Tour, out: np.ndarray | None = None) -> np.ndarray:
        """The wrapped position table of mat, (n+1, n+1), written to out (default: fresh)."""
        tw = tour.order.take(self._ix.wrap)
        rows = mat.take(tw, axis=0, out=self._scratch("rows", tw.size, self.inst.n), mode="clip")
        return rows.take(tw, axis=1, out=out, mode="clip")

    def _moves(self, b: np.ndarray) -> np.ndarray:
        """Deltas of every move from a wrapped position table, as in two_opt_delta."""
        ix = self._ix
        b = b.ravel()
        cost = self._scratch("cost", self.size)
        x = b.take(ix.at_ac)
        x += b.take(ix.at_bd, out=cost, mode="clip")
        x -= b.take(ix.at_ab, out=cost, mode="clip")
        x -= b.take(ix.at_cd, out=cost, mode="clip")
        return x

    def deltas(self, tour: Tour) -> np.ndarray:
        """f deltas of every move; the scan that reads them charges the FEs."""
        v = self.inst.n + 1
        return self._moves(self._table(self.inst.costs, tour, self._scratch("table", v, v)))

    def split_deltas(self, tour: Tour):
        """(f, f1, f2) deltas of every move; the scan that reads them charges the FEs.

        The f delta comes from the original cost matrix, not from d1 + d2,
        so downstream cache arithmetic stays exact on integer instances.
        f2's costs are f's minus f1's, gathered at the same table. The two
        tables are fresh, not scratch: a view that classifies one optimum
        calls this once and would keep them for nothing.
        """
        b0, b1 = self._table(self.inst.costs, tour), self._table(self.split.mat1, tour)
        return self._moves(b0), self._moves(b1), self._moves(b0 - b1)

    def first_improvement(self, tour: Tour, threshold: float, budget: Budget) -> bool:
        """Apply the first move improving past threshold at its scanned delta; False if none."""
        d = self.deltas(tour)
        return _apply_first(self, tour, d < threshold, d, budget)

    def two_hop_best(self, tour: Tour, d: np.ndarray) -> TwoHopFlags:
        """The two stages flagging which of neighbors ks beat thresholds thr.

        d holds the tour's own move deltas. Flag i is exactly
        deltas(neighbor(tour, ks[i], d[ks[i]])).min() < thr[i], and the minimum
        is that of deltas() bit for bit, so no tie or rounding moves a flag.
        Neighbor k = (P, Q) keeps the tour's edges at positions
        L = [0, P-1] and H = [Q+1, n-1], reverses those at R = [P+1, Q-1] and
        adds new ones at P and Q. With b[x, y] = m[t[x], t[y]] and
        e[x] = b[x, x+1], a move of k that removes two of the tour's edges,
        at tour positions x < y (an edge in R counted at its place in the
        tour, not in k), reads:
        - the tour's own delta d when both lie in L or H;
        - X[x, y] = ((b[x, y+1] + b[x+1, y]) - e[x]) - e[y] when one lies in R;
        - Z[x, y] = ((b[x+1, y+1] + b[x, y]) - e[y]) - e[x] when both do.
        Each adds and subtracts the costs deltas() gathers on the built
        neighbor, in its order: the cost matrix is bitwise symmetric and
        float addition commutes. Their minima over each neighbor's rectangles
        and triangles come from O(n^2) cumulative-min tables built once here,
        of which one value per move is kept. The move through both new edges
        is one more O(1) value. That leaves the ~2n moves through one new
        edge and one tour edge, which `_new_edge_best` scores in O(n). The
        screen flags a neighbor from its kept value and leaves it to that
        score only when `_new_edge_bound` minus inst.tol is below thr. The
        margin is about 1e5 times the worst rounding of the bound's four-term
        sums, and a NaN bound keeps the neighbor. So a neighbor the bound
        rules out costs O(1) work and the rest O(n); the caller sizes the
        score's chunks, each of whose temporaries is (n+1) floats a column.

        The tables are four (n+2)^2 float arrays of the view's scratch, and
        the cumulative minima run in place in them; the score also works in
        scratch. Only the table b and the per-move minima and bounds are
        fresh, so both stages stay valid after later calls.
        """
        n, w, ix, scratch = self.inst.n, self.inst.n + 2, self._ix, self._scratch
        # the wrapped position table: b's successor rows and columns are
        # slices of it and e is a diagonal
        bw = self._table(self.inst.costs, tour)
        b, e = bw[:-1, :-1], bw[:-1, 1:].diagonal()
        # d, X and Z padded by a border of inf, so position x is index x + 1
        # and an empty range reads inf; entries with y < x + 2 are no move
        # and are left out of every minimum. The tables are dead before
        # any block starts, so they take the arrays the blocks write later.
        tables = scratch("edge", 4, w, w)
        tables.fill(np.inf)
        dm, x, z, corner = tables
        dm.ravel().put(ix.at_d, d)

        def fill(table, first, second, third, fourth):
            # the inside of table = ((first + second) - third) - fourth,
            # each term copied out to contiguous scratch first
            total, term = scratch("delta", n, n), scratch("cost", n, n)
            np.copyto(total, first)
            np.copyto(term, second)
            total += term
            np.copyto(term, third)
            total -= term
            np.copyto(term, fourth)
            total -= term
            np.copyto(table[1:-1, 1:-1], total)

        fill(x, bw[:-1, 1:], bw[1:, :-1], e[:, None], e)
        fill(z, bw[1:, 1:], b, e, e[:, None])
        near = ix.near
        np.copyto(z, np.inf, where=near)
        P, Q = ix.p, ix.q
        line = dm.min(axis=0, out=scratch("line", w))
        static = np.minimum.accumulate(line, out=line).take(P)  # L x L
        cost = scratch("cost", len(P))

        def keep(table, at):
            np.minimum(static, table.ravel().take(at, out=cost, mode="clip"), out=static)

        dm.min(axis=1, out=line)
        np.minimum.accumulate(line[::-1], out=line[::-1])
        keep(line[2:], Q)  # H x H
        # corners, each a running minimum in place: x <= a, y >= b
        np.minimum.accumulate(dm[:, ::-1], axis=1, out=dm[:, ::-1])
        np.minimum.accumulate(dm, axis=0, out=dm)
        keep(dm, ix.at_lh)  # L x H
        np.minimum.accumulate(z, axis=1, out=z)  # x >= a, y <= b
        np.minimum.accumulate(z[::-1], axis=0, out=z[::-1])
        keep(z, ix.at_rr)  # R x R
        np.minimum.accumulate(x, axis=0, out=corner)  # x' <= x
        np.copyto(corner, np.inf, where=near)
        np.minimum.accumulate(corner, axis=1, out=corner)
        keep(corner, ix.at_lr)  # L x R
        np.minimum.accumulate(x[:, ::-1], axis=1, out=x[:, ::-1])  # y' >= y
        np.copyto(x, np.inf, where=near)
        np.minimum.accumulate(x[::-1], axis=0, out=x[::-1])
        keep(x, ix.at_rh)  # R x H
        flat = bw.ravel()
        # the bound's vectors; gain's b - max(e[u-1], e[u]) is the least of
        # the two differences bit for bit, as rounding is monotonic
        nearest = self.inst.nearest.take(tour.order)
        ends = np.maximum(e, np.concatenate((e[-1:], e[:-1])))
        cut = scratch("delta", n, n)
        np.copyto(cut, b)
        cut -= ends
        np.fill_diagonal(cut, np.inf)  # u = y: no move
        gain = cut.min(axis=1)
        # the new edges' costs, at P and at Q, and the move through both, in
        # _new_edge_best's order, which joins the per-move minima
        c = flat.take(ix.at_ac, out=cost, mode="clip")
        c2 = flat.take(ix.at_bd, out=scratch("line", len(P)), mode="clip")
        both = flat.take(ix.at_ab, out=scratch("delta", len(P)), mode="clip")
        both += flat.take(ix.at_cd, out=scratch("edge", len(P)), mode="clip")
        both -= c
        both -= c2
        np.minimum(static, both, out=static)
        bound = _new_edge_bound(nearest, gain, P, Q, c, c2)
        bound -= self.inst.tol

        def screen(ks: np.ndarray, thr: np.ndarray):
            hit = static.take(ks) < thr
            ruled = bound.take(ks) >= thr  # a NaN bound rules nothing out
            ruled |= hit
            return hit, np.flatnonzero(~ruled)

        def score(ks: np.ndarray, thr: np.ndarray) -> np.ndarray:
            return _new_edge_best(flat, ix, P.take(ks), Q.take(ks), scratch) < thr

        return TwoHopFlags(screen, score)

    def apply(self, tour: Tour, k: int, delta: float):
        """Apply move k in place: reverse tour positions [p[k]+1..q[k]], add delta to the cost."""
        i, j = self._ix.p.item(k) + 1, self._ix.q.item(k) + 1
        tour.order[i:j] = tour.order[i:j][::-1]
        tour.cached_cost += delta

    def neighbor(self, sol, k: int, delta: float):
        """A copy of sol with move k (of delta) applied."""
        out = sol.copy()
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

    _scratch = TwoOptNeighborhood._scratch

    def deltas(self, bv: BitVector) -> np.ndarray:
        """f gains of every flip; the scan that reads them charges the FEs."""
        return bv.gains.copy()

    def split_deltas(self, bv: BitVector):
        """(f, f1, f2) gains of every flip; the scan that reads them charges the FEs.

        The BitVector keeps only f's gains; f1's come from the split's mat1
        and the bits in one O(n^2) product, and f2's as f's minus f1's.
        """
        d1 = flip_gains(self.split.mat1, bv.bits)
        return bv.gains.copy(), d1, bv.gains - d1

    def first_improvement(self, bv: BitVector, threshold: float, budget: Budget) -> bool:
        """Flip the first bit gaining more than threshold (maximization); False if none."""
        return _apply_first(self, bv, bv.gains > threshold, bv.gains, budget)

    def two_hop_best(self, bv: BitVector, d: np.ndarray) -> TwoHopFlags:
        """The two stages flagging which of neighbors ks beat thresholds thr.

        d, bv's own gains, is not read: bv keeps them. Flag i is exactly
        deltas(neighbor(bv, ks[i])).max() > thr[i], that maximum bit for bit:
        its row applies flip_delta_and_update's gain update, q_kj scaled by
        exactly +-2 and added to the same gains, without copying the
        solution. A flip's neighborhood shares no structure worth tabulating,
        so there is no screen: the score takes every neighbor, costs O(n) per
        neighbor and writes a chunk's n-float rows into the view's scratch.
        """
        twice, half = bv.twice, 0.5 * bv.twice

        def score(ks: np.ndarray, thr: np.ndarray) -> np.ndarray:
            r, n = len(ks), self.size
            rows, term = self._scratch("rows", r, n), self._scratch("term", r, n)
            self.inst.q.take(ks, axis=0, out=rows, mode="clip")
            np.copyto(term, twice[ks][:, None])
            rows *= term
            np.copyto(term, half)
            rows *= term
            np.copyto(term, bv.gains)
            rows += term
            rows[np.arange(r), ks] = -bv.gains[ks]
            return rows.max(axis=1) > thr

        return TwoHopFlags(None, score)

    def apply(self, bv: BitVector, k: int, delta: float):  # the kernel reads the gain itself
        flip_delta_and_update(self.inst, bv, k)

    neighbor = TwoOptNeighborhood.neighbor

    def value(self, bv: BitVector) -> float:
        return bv.cached_value

    def random_solution(self, rng: np.random.Generator) -> BitVector:
        bits = rng.integers(0, 2, size=self.inst.n).astype(np.float64)
        return make_bitvector(self.inst, bits)

    def perturb(self, bv: BitVector, rng: np.random.Generator) -> BitVector:
        return random_flip_perturbation(self.inst, bv, self.flip_fraction, rng)


def neighborhood_for(inst, split=None, flip_fraction: float = 0.25):
    """The 2-Opt view of a TSP or the 1-bit-flip view (kicking flip_fraction) of a UBQP."""
    if isinstance(inst, TspInstance):
        return TwoOptNeighborhood(inst, split)
    if isinstance(inst, QuboInstance):
        return FlipNeighborhood(inst, split, flip_fraction)
    raise TypeError(f"unsupported instance type: {type(inst).__name__}")


# ---------------------------------------------------------------------------
# local search


def descend(view, sol, budget: Budget) -> bool:
    """First-improvement local search to a local optimum of the view's moves.

    Each `first_improvement` scan applies the move it finds. Returns True when
    a full scan found none, False when the budget ran out first.

    A move counts as improving only when it improves by more than
    view.inst.tol. On non-integral costs a move and its inverse can both
    read a few ulps better, and without that margin the descent could cycle
    between them forever. On integral costs every real improvement is at
    least 1, above the margin while the instance's scale stays below 1e9.
    """
    threshold = -view.sense * view.inst.tol
    while True:
        if budget.exhausted():
            return False
        if not view.first_improvement(sol, threshold, budget):
            return True


def is_local_optimum(view, sol) -> bool:
    """True when no move improves by more than view.inst.tol, as descend counts it."""
    return bool(np.all(view.deltas(sol) * view.sense >= -view.inst.tol))


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


def pair_swap_kick(inst: TspInstance, tour: Tour, rng: np.random.Generator) -> Tour:
    """Kick for tours too short for a double bridge: swap two random city pairs."""
    order = tour.order.copy()
    for _ in range(2):
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
    if count == 0:
        raise ValueError(f"fraction {fraction} kicks no bit of {n}")
    positions = rng.choice(n, size=count, replace=False)
    bits = bv.bits.copy()
    bits[positions] = 1.0 - bits[positions]
    return make_bitvector(inst, bits)


# ---------------------------------------------------------------------------
# tabu search (UBQP)


@lru_cache(maxsize=32)
def _bit_keys(n: int) -> np.ndarray:
    """Fixed random 63-bit keys of n bits; their XOR over the set bits fingerprints a vector."""
    keys = np.random.default_rng(0x7AB0).integers(0, 2**63, n, dtype=np.int64)
    keys.setflags(write=False)
    return keys


def sample_tenure(n: int, rng: np.random.Generator) -> int:
    """Tenure drawn uniformly from [n/100 + 1, n/100 + 10] (integer division)."""
    base = n // 100
    return int(rng.integers(base + 1, base + 11))


def tabu_search(inst: QuboInstance, bv: BitVector, rng: np.random.Generator,
                budget: Budget) -> BitVector:
    """Best-improvement tabu search over 1-bit flips; returns the best visited.

    A flipped variable is frozen for K moves (K resampled per call). A
    frozen flip is allowed when it would beat the best solution of this call
    (aspiration); when every flip is frozen and none aspirates, all are
    allowed. Stops after 20n moves without improving that best, or on
    budget exhaustion. Every move charges n FEs.

    A solution counts as better than the best, for aspiration and for the
    stop rule, only when its value exceeds the best's by more than inst.tol,
    EVAL_REL_TOL times the weights' absolute sum. The cached value drifts by
    ulps on non-integral weights, and without that margin a revisited
    solution could read as a new best, so the stop rule would never fire.
    On integral weights every real improvement is at least 1, above the
    margin while the weights' absolute sum stays below 1e9.

    Each move flips one bit, so the frozen set is the bits flipped by the
    last K - 1 moves, held in a ring of that length with a count per bit: a
    bit that aspiration or the unfreeze-all fallback flips while frozen
    enters the ring twice and stays frozen until its last copy leaves. A
    standing mask holds -inf at the frozen bits and 0 elsewhere. A move
    takes the global argmax of the gains when it is not frozen (it is then
    also the first maximum of gains + mask) or when it aspirates. Otherwise
    no flip aspirates: float addition is monotone, so value + gain of every
    flip is at most that of the argmax. The move is then the argmax of
    gains + mask. The flip runs the kernel flip_delta_and_update uses, on
    bv's own caches and one product row allocated once per call.

    After the last improvement the walk is deterministic, and once it is back
    in a state it held before, it repeats the moves since then. That state is
    the bits, the gains, the value and the ring in age order: the sign row,
    the counts and the mask follow from them once the ring is full, and the
    best is fixed. One checkpoint of it moves whenever the idle count is a
    power of two and the ring is full (Brent's schedule), and is dropped on
    an improvement. An XOR of fixed per-bit keys over the set bits screens
    each idle move; on a match the full state is compared, the gains and the
    value bit for bit. If equal, the whole periods that the stop rule and the
    FE cap leave are skipped: charged n FEs a move and counted as idle, while
    the state stays as it is. So the best, the final state, the FE charges
    and the RNG draws are those of the full walk. Under a max_wall budget the
    skipped moves take no time; wall-budget runs are not reproducible anyway.
    """
    n = inst.n
    ring = [0] * (sample_tenure(n, rng) - 1)
    count = [0] * n
    q, gains, twice, bits = inst.q, bv.gains, bv.twice, bv.bits
    product, masked, mask = np.empty(n), np.empty(n), np.zeros(n)
    keys = _bit_keys(n)
    h = int(np.bitwise_xor.reduce(keys[bits != 0.0]))
    check_h, check_t, check_value_ring = -1, 0, None  # -1: no checkpoint, h is never negative
    check_bits, check_gains = np.empty(n), np.empty(n)

    def value_and_ring():  # the value bit for bit, and the ring from its oldest flip
        s = t % len(ring) if ring else 0
        return bv.cached_value.hex(), ring[s:] + ring[:s]

    best = bv.copy()
    bar = best.cached_value + inst.tol
    since_improve = 0
    t = 0
    while since_improve < 20 * n and not budget.exhausted():
        budget.charge(n)
        k = int(gains.argmax())
        if mask.item(k) and not (bv.cached_value + gains.item(k) > bar):
            np.add(gains, mask, out=masked)
            j = int(masked.argmax())
            if masked.item(j) > -np.inf:  # else everything is frozen: unfreeze all
                k = j
        bv.cached_value += _flip(q[k], gains, twice, bits, k, product)
        h ^= keys.item(k)
        if ring:
            slot = t % len(ring)
            if t >= len(ring):
                old = ring[slot]
                count[old] -= 1
                if not count[old]:
                    mask[old] = 0.0
            ring[slot] = k
            count[k] += 1
            mask[k] = -np.inf
        t += 1
        if bv.cached_value > bar:
            best = bv.copy()
            bar = best.cached_value + inst.tol
            since_improve = 0
            check_h = -1
            continue
        since_improve += 1
        if (h == check_h and value_and_ring() == check_value_ring
                and np.array_equal(bits, check_bits)
                and np.array_equal(gains.view(np.int64), check_gains.view(np.int64))):
            left = min(20 * n - since_improve, budget.charges_left(n))
            skip = left - left % (t - check_t)
            budget.charge(skip * n)
            since_improve += skip
        elif not since_improve & (since_improve - 1) and t >= len(ring):
            check_h, check_t, check_value_ring = h, t, value_and_ring()
            np.copyto(check_bits, bits)
            np.copyto(check_gains, gains)
    return best


# ---------------------------------------------------------------------------
# bounded Lin-Kernighan


def penalized_rows(inst: TspInstance, edges, c_tilde: float) -> list[list[float]]:
    """The instance's cost rows plus c_tilde on each edge, both directions.

    Rows the edges do not touch are the instance's own; the others are copies.
    """
    rows = list(inst.cost_rows)
    for a, b in {(int(a), int(b)) for u, v in edges for a, b in ((u, v), (v, u))}:
        if rows[a] is inst.cost_rows[a]:
            rows[a] = rows[a].copy()
        rows[a][b] += float(c_tilde)
    return rows


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


def lk_search(inst: TspInstance, neighbors: list[list[int]], tour: Tour, budget: Budget,
              objective: list[list[float]] | None = None,
              depth: int = LK_DEPTH, breadth2: int = LK_BREADTH2,
              active: Iterable[int] | None = None) -> bool:
    """Bounded-depth sequential edge exchange (Lin-Kernighan style) descent.

    A chain is anchored at a city and a direction: the incident tour edge is
    removed and candidate edges from the rows of `build_neighbor_lists` are
    chained while the cumulative gain stays positive; the tour closes at the
    best gain seen. The first level tries every gain-positive candidate, the
    second up to breadth2, deeper levels extend greedily; they inline
    `do_move`'s rule term by term, and score the last level's move first and
    apply it only if it sets a new best (same FEs).

    Each move is a 2-Opt reversal of the order array: it removes (base, end)
    and (t4, t3) and adds (end, t3) and (t4, base), with end = succ(base) and
    t4 = pred(t3) (swapped backwards). Each scan skips end's tour neighbours,
    base among them, and end is not its own candidate, so t4 is never base or
    end. It reverses [end .. t4] when that segment does not wrap the array's
    end, else the complementary [t3 .. base], which gives the same cycle in
    the other orientation. The next level continues from the current
    succ(base) (pred(base) backwards), read from the array. After the first
    branch that is t4, so the chain is a sequential exchange. After the second
    it is base's former neighbour, not t4, so the chain then departs from the
    sequential exchange described above, and which way it goes depends on
    where the array is cut.

    A failed chain is rolled back from snapshots, not by reversing its moves
    again: one of the tour at the chain's start, refreshed after each commit,
    and one after the current first-level move, taken before its second-level
    trials. A failed second-level trial restores the second, a failed
    first-level candidate the first. Committing a prefix of k >= 2 moves
    shorter than the chain restores the second and replays moves 2..k.

    Chains are driven by a queue of active (city, direction) pairs, the
    don't-look bits of Bentley's 2-Opt. `active` lists the cities queued
    first, both directions each; None (a cold start) queues every city in
    index order; a city that is not an integer (numpy's integers are) or
    lies outside 0..n-1 raises ValueError before any FE. A
    chain that improves queues the endpoints of every edge it changed that
    are not queued yet. The search stops when the queue empties or the
    budget runs out; the budget is checked between chains, so a run
    overshoots `max_fe` by at most one chain.

    Improves tour in place and returns whether it converged, that is,
    whether the queue emptied. A chain's gain also depends on edges away
    from its anchor, so a converged tour is not always unchanged by a further
    cold start. Gains are summed over `objective`, cost rows such as
    `penalized_rows` returns (None: the instance's own), and the tour then
    caches its plain cost, recomputed once. Charges budget one FE for the
    start and one per candidate move evaluated.
    """
    cost = inst.cost_rows if objective is None else objective
    order = tour.order.tolist()
    n = len(order)
    pos = [0] * n
    for i, c in enumerate(order):
        pos[c] = i
    # snapshots: the tour at the chain's start, and after its first move
    order0, pos0 = order[:], pos[:]
    order1, pos1 = order[:], pos[:]

    # the running chain: one (lo, hi, end, t3, t4) record per reversal applied
    chain: list[tuple[int, int, int, int, int]] = []
    fe = 0
    # order[i + 1 - n] and order[i - 1] are the cities after and before
    # position i: the negative indices wrap around the array's ends

    def reverse(lo: int, hi: int):
        seg = order[hi:lo - 1 if lo else None:-1]
        order[lo:hi + 1] = seg
        for c in seg:
            pos[c] = lo
            lo += 1

    def do_move(base: int, end: int, t3: int, forward: bool, total: float) -> float:
        # chained 2-Opt: remove (base,end),(t4,t3); add (end,t3),(t4,base)
        p3 = pos[t3]
        t4 = order[p3 - 1] if forward else order[p3 + 1 - n]
        pe, p4 = pos[end], pos[t4]
        if forward:
            lo, hi = (pe, p4) if pe <= p4 else (p3, pos[base])
        else:
            lo, hi = (p4, pe) if p4 <= pe else (pos[base], p3)
        reverse(lo, hi)
        chain.append((lo, hi, end, t3, t4))
        return total + (cost[end][t3] + cost[t4][base] - cost[base][end] - cost[t4][t3])

    def rollback(k: int):
        # the tour after the chain's first k moves, from the nearest snapshot
        if k:
            order[:], pos[:] = order1, pos1
            for move in chain[1:k]:
                reverse(move[0], move[1])
        else:
            order[:], pos[:] = order0, pos0
        del chain[k:]

    def extend_greedy(base: int, forward: bool, total: float) -> int:
        # deeper levels, do_move inlined: first acceptable candidate, no alternatives;
        # returns the level to commit, 0 for none
        nonlocal fe
        best_k, best_sum = (2, total) if total < -1e-12 else (0, 0.0)
        scanned = 0
        for level in range(3, depth + 1):
            i = pos[base]
            end = order[i + 1 - n] if forward else order[i - 1]
            g = cost[base][end]
            bound = g - total
            row = cost[end]
            i = pos[end]
            s_end, p_end = order[i + 1 - n], order[i - 1]
            for t3 in neighbors[end]:
                scanned += 1
                if row[t3] >= bound:
                    fe += scanned
                    return best_k  # cost-sorted: none later can fit
                if t3 != s_end and t3 != p_end:
                    break
            else:
                break
            p3 = pos[t3]
            t4 = order[p3 - 1] if forward else order[p3 + 1 - n]
            total = total + (row[t3] + cost[t4][base] - g - cost[t4][t3])
            if total < best_sum - 1e-12:
                best_k, best_sum = level, total
            elif level == depth:
                break  # the last move would be rolled back: leave it unapplied
            pe, p4 = pos[end], pos[t4]
            if forward:
                lo, hi = (pe, p4) if pe <= p4 else (p3, pos[base])
            else:
                lo, hi = (p4, pe) if p4 <= pe else (pos[base], p3)
            chain.append((lo, hi, end, t3, t4))
            seg = order[hi:lo - 1 if lo else None:-1]
            order[lo:hi + 1] = seg
            for c in seg:
                pos[c] = lo
                lo += 1
        fe += scanned
        return best_k

    def chain_from(base: int, forward: bool) -> int:
        """One anchored chain; commits the winning prefix or restores the tour.

        Returns the number of moves committed (0 when none improves).
        """
        nonlocal fe
        i = pos[base]
        e0 = order[i + 1 - n] if forward else order[i - 1]
        g0 = cost[base][e0]
        row0 = cost[e0]
        i = pos[e0]
        s0, p0 = order[i + 1 - n], order[i - 1]
        for t3 in neighbors[e0]:
            fe += 1
            if row0[t3] >= g0:
                break
            if t3 == s0 or t3 == p0:
                continue
            total1 = do_move(base, e0, t3, forward, 0.0)
            if total1 < -1e-12:
                return 1  # improving 2-Opt move, commit immediately
            order1[:], pos1[:] = order, pos
            # second level: try a few alternatives, each extended greedily
            i = pos[base]
            e1 = order[i + 1 - n] if forward else order[i - 1]
            bound1 = cost[base][e1] - total1
            row1 = cost[e1]
            i = pos[e1]
            s1, p1 = order[i + 1 - n], order[i - 1]
            tried = 0
            for t5 in neighbors[e1]:
                fe += 1
                if row1[t5] >= bound1:
                    break
                if t5 == s1 or t5 == p1:
                    continue
                tried += 1
                best_k = extend_greedy(base, forward, do_move(base, e1, t5, forward, total1))
                if best_k:
                    if best_k < len(chain):
                        rollback(best_k)
                    return best_k
                rollback(1)
                if tried >= breadth2:
                    break
            rollback(0)
        return 0

    queue = deque()
    queued = [False] * (2 * n)

    def push(city: int):
        for item in (2 * city, 2 * city + 1):
            if not queued[item]:
                queued[item] = True
                queue.append(item)

    for city in (range(n) if active is None else active):
        if not isinstance(city, numbers.Integral):
            raise ValueError(f"active city {city!r} is not an integer")
        city = int(city)
        if not 0 <= city < n:
            raise ValueError(f"active city {city} is not a city of {inst.name} (0..{n - 1})")
        push(city)
    budget.charge(1)
    while queue and not budget.exhausted():
        item = queue.popleft()
        queued[item] = False
        base = item >> 1
        k = chain_from(base, not item & 1)
        budget.charge(fe)
        fe = 0
        if k:
            push(base)
            for move in chain:
                for city in move[2:]:
                    push(city)
            chain.clear()
            order0[:], pos0[:] = order, pos

    tour.order[:] = order
    tour.cached_cost = tour_cost(inst, tour.order)
    return not queue
