"""Tabu search against the full-mask loop it replaces.

The reference below is the tabu loop as it was before the frozen set moved
into a ring of the last K - 1 flips: a per-variable last-flip clock, an
`allowed` mask built from it and the aspiration vector, an unfreeze-all
fallback and a masked argmax. Its flip kernel rebuilds the +-2 sign row from
the bits on every flip. Like `tabu_search`, it counts a value as better than
the best only past inst.tol, EVAL_REL_TOL times the weights' absolute sum.
`tabu_search` must agree with it bit for bit: the same best solution and
caches, the same final state of the searched solution, the same FE charges
and the same RNG draws.

The reference runs every move. `tabu_search` skips whole periods of an idle
walk that has come back to an earlier state and charges them instead, so
the hypothesis comparison goes through that skip whenever a drawn instance
cycles, as small ones often do. The skip tests pin it down: cycling tails
on integral and on non-integral weights, counted by their executed flips,
and every FE cap that ends inside a skipped span.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts import search
from sumparts.instances import QuboInstance, _flip, make_bitvector, qubo_value
from sumparts.search import Budget, sample_tenure, tabu_search


def reference_flip(inst, bv, i):
    """The flip kernel with the +-2 sign row rebuilt from the bits on every call."""
    z = bv.bits
    s = 1.0 - 2.0 * z
    delta = float(bv.gains[i])
    bv.gains += (2.0 * s[i]) * inst.q[i] * s
    bv.gains[i] = -delta
    z[i] = 1.0 - z[i]
    bv.twice = 2.0 - 4.0 * z
    bv.cached_value += delta


def unfreeze_all(n):
    return np.ones(n, dtype=bool)


def reference_tabu(inst, bv, rng, budget):
    n = inst.n
    tenure = sample_tenure(n, rng)
    last_flip = np.full(n, -(21 * n), dtype=np.int64)
    tol = inst.tol
    best = bv.copy()
    since_improve = 0
    t = 0
    while since_improve < 20 * n and not budget.exhausted():
        budget.charge(n)
        allowed = last_flip + tenure <= t
        allowed |= bv.cached_value + bv.gains > best.cached_value + tol
        if not np.any(allowed):
            allowed = unfreeze_all(n)  # everything frozen
        k = int(np.argmax(np.where(allowed, bv.gains, -np.inf)))
        reference_flip(inst, bv, k)
        last_flip[k] = t
        t += 1
        if bv.cached_value > best.cached_value + tol:
            best = bv.copy()
            since_improve = 0
        else:
            since_improve += 1
    return best


def qubo(n, seed, integral):
    """A dense UBQP; non-integral weights make any reordered sum show."""
    rng = np.random.default_rng(seed)
    q = rng.integers(1, 101, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    if not integral:
        q *= rng.uniform(0.5, 1.5, (n, n))
    return QuboInstance(name=f"dense{n}-{seed}", n=n, q=np.triu(q) + np.triu(q, 1).T)


def state(bv):
    return bv.bits.tobytes(), bv.cached_value, bv.gains.tobytes(), bv.twice.tobytes()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10_000), integral=st.booleans(),
       cap=st.sampled_from(["before-first-move", "mid-run", "unbounded"]),
       cap_seed=st.integers(0, 2**32 - 1))
def test_tabu_matches_reference_loop(n, seed, integral, cap, cap_seed):
    inst = qubo(n, seed, integral)
    bits = np.random.default_rng(seed + 1).integers(0, 2, n).astype(np.float64)
    max_fe = {"before-first-move": 0,
              "mid-run": int(np.random.default_rng(cap_seed).integers(1, 60 * n * n)),
              "unbounded": None}[cap]
    runs = []
    for search in (tabu_search, reference_tabu):
        bv = make_bitvector(inst, bits.copy())
        budget = Budget(max_fe=max_fe)
        rng = np.random.default_rng(cap_seed)
        best = search(inst, bv, rng, budget)
        runs.append((state(best), state(bv), budget.consumed_fe, rng.bit_generator.state))
    assert runs[0] == runs[1]


def test_unfreeze_all_when_every_flip_is_frozen(monkeypatch):
    # With n = 2 and a tenure of at least 3, both bits are frozen from the
    # third move on, so every later move that no flip aspirates unfreezes all.
    seed = next(s for s in range(100) if sample_tenure(2, np.random.default_rng(s)) >= 3)
    inst = qubo(2, seed=0, integral=False)
    fired = []
    monkeypatch.setitem(globals(), "unfreeze_all",
                        lambda n: (fired.append(n), np.ones(n, dtype=bool))[1])
    runs = []
    for search in (tabu_search, reference_tabu):
        bv = make_bitvector(inst, np.zeros(2))
        budget = Budget(max_fe=2 * 20)
        best = search(inst, bv, np.random.default_rng(seed), budget)
        runs.append((state(best), state(bv), budget.consumed_fe))
    assert fired
    assert runs[0] == runs[1]


def test_stop_rule_fires_on_non_integral_weights():
    # The cached value drifts by ulps as the search cycles. Read as gains,
    # the drift kept each of these calls "improving" on a revisited best, so
    # the 20n rule never fired and the call ran until its budget was spent.
    # The budget here only keeps such a call finite: 1000n moves, where the
    # stop rule ends each call within 40n.
    n = 27
    for seed in (3, 6, 12, 13, 17):
        inst = qubo(n, seed, integral=False)
        bits = np.random.default_rng(seed + 1).integers(0, 2, n).astype(np.float64)
        bv = make_bitvector(inst, bits)
        budget = Budget(max_fe=1000 * n * n)
        best = tabu_search(inst, bv, np.random.default_rng(seed), budget)
        assert budget.consumed_fe <= 40 * n * n
        assert abs(best.cached_value - qubo_value(inst, best.bits)) <= inst.tol


def test_frozen_bit_flipped_again_matches_reference(monkeypatch):
    # Replaying the reference on this instance shows aspiration flipping a bit
    # that is still frozen while other bits are not, so the ring holds two
    # copies of it. A ring that unfroze the bit when its first copy left
    # would diverge from the reference from there on.
    n, seed = 16, 3
    inst = qubo(n, seed, integral=True)
    bits = np.random.default_rng(seed + 1).integers(0, 2, n).astype(np.float64)
    flips = []
    real = reference_flip
    monkeypatch.setitem(globals(), "reference_flip",
                        lambda inst, bv, i: (flips.append(i), real(inst, bv, i)))
    runs = []
    for search in (tabu_search, reference_tabu):
        bv = make_bitvector(inst, bits.copy())
        budget = Budget()
        rng = np.random.default_rng(seed)
        best = search(inst, bv, rng, budget)
        runs.append((state(best), state(bv), budget.consumed_fe, rng.bit_generator.state))
    ring = sample_tenure(n, np.random.default_rng(seed)) - 1
    windows = [set(flips[max(0, t - ring):t]) for t in range(len(flips))]
    assert any(k in w and len(w) < n for k, w in zip(flips, windows))
    assert runs[0] == runs[1]


class RecordingBudget(Budget):
    """A Budget that keeps every charge: a skipped span is one charge of many moves."""

    def __init__(self, max_fe=None):
        super().__init__(max_fe=max_fe)
        self.charges = []

    def charge(self, k):
        self.charges.append(int(k))
        super().charge(k)


def skip_pair(inst, seed, max_fe, monkeypatch):
    """tabu_search and the reference from the same start, with tabu_search's flips counted.

    Returns both runs, the flips tabu_search executed and its charges.
    """
    flips = []
    monkeypatch.setattr(search, "_flip", lambda *args: (flips.append(args[4]), _flip(*args))[1])
    bits = np.random.default_rng(seed + 1).integers(0, 2, inst.n).astype(np.float64)
    runs, charges = [], []
    for tabu in (tabu_search, reference_tabu):
        bv = make_bitvector(inst, bits.copy())
        budget = RecordingBudget(max_fe)
        rng = np.random.default_rng(seed)
        best = tabu(inst, bv, rng, budget)
        runs.append((state(best), state(bv), budget.consumed_fe, rng.bit_generator.state))
        charges.append(budget.charges)
    return runs, len(flips), charges[0]


@pytest.mark.parametrize("seed, integral", [(1, True), (23, False)],
                         ids=["integral", "non-integral"])
def test_cycling_idle_tail_is_skipped(monkeypatch, seed, integral):
    # After its last improvement each walk comes back to an earlier state,
    # the value and the gains bit for bit (ulp drift and all on non-integral
    # weights), and the whole periods of the rest are only charged.
    n = 16
    runs, flips, charges = skip_pair(qubo(n, seed, integral), seed, None, monkeypatch)
    assert flips < runs[0][2] // n
    assert any(c > n for c in charges)
    assert runs[0] == runs[1]


def test_fe_cap_inside_a_skipped_span(monkeypatch):
    # Every cap inside the span the unbounded call skips, each half an FE
    # past a move boundary. A skip that covered more moves than the cap lets
    # start, ceil((max_fe - consumed) / n) of them, would overshoot the FEs
    # and end in another state than the reference.
    n = 16
    inst = qubo(n, 1, integral=True)
    _, _, charges = skip_pair(inst, 1, None, monkeypatch)
    at = next(i for i, c in enumerate(charges) if c > n)
    skipped = 0
    for moves in range(charges[at] // n):
        runs, flips, _ = skip_pair(inst, 1, sum(charges[:at]) + moves * n + 0.5, monkeypatch)
        assert runs[0] == runs[1]
        skipped += flips < runs[0][2] // n
    assert skipped
    assert runs[0][2] < sum(charges)

