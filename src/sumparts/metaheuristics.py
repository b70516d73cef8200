"""The solver driver: iterated local search, tabu search and Lin-Kernighan,
plain and with the non-dominance escape/exploitation variants.

All eight algorithms run through one loop in `run`: improve the current
solution (descent, tabu search or LK), try the algorithm's escape step
(NDS, ENS, penalty exploitation or nothing), and perturb when the escape
leaves the solution unchanged. The step functions are looked up as module
globals when they are called, so a tracer or a test can wrap them here.

Every run consumes named RNG streams derived from one master seed (init,
perturb, penalty, tabu), so variants sharing a seed also share their random
starts and kicks and can be compared pairwise. Runs emit a RunTrace: the
best-so-far value at every improvement plus geometric FE checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .decomposition import SplitCosts, SplitParams, sample_split
from .escape import PenaltyConfig, dominated_mask, ens, further_exploit, nds
from .instances import (
    MINIMIZE,
    QuboInstance,
    Tour,
    TspInstance,
    build_neighbor_lists,
    check_numbers,
    tour_cost,
)
from .search import (
    Budget,
    better,
    descend,
    lk_search,
    neighborhood_for,
    new_edge_endpoints,
    tabu_search,
)

ALGORITHMS = ("ils", "ils_nds", "ils_ens", "its", "its_nds", "ilk", "ilk_e", "ilk_nde")

_STREAM_TAGS = {"init": 1, "perturb": 2, "penalty": 4, "tabu": 5}

# Ratio between successive FE checkpoints of a trace.
CHECKPOINT_GROWTH = 1.3


def rng_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_TAGS[name]]))


@dataclass
class SolverConfig:
    """One solver run: algorithm, budget, seed and the escape settings it needs.

    split is the SplitParams sampled when the run starts, or a realized
    SplitCosts. Wrongly typed or out-of-range settings raise ValueError here;
    so does an infinite max_fe or target, which None (the default) spells.
    """

    algorithm: str
    seed: int = 0
    max_fe: float | None = None
    max_wall: float | None = None
    target: float | None = None
    split: SplitParams | SplitCosts | None = None
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    flip_fraction: float = 0.25
    neighbor_k: int = 20
    warmup_fraction: float = 0.0  # ILK+E/NDE: plain ILK for this budget share

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_numbers(self, integers=("seed", "neighbor_k"),
                      reals=("flip_fraction", "warmup_fraction"),
                      optional=("max_fe", "max_wall", "target"),
                      non_negative=("seed", "max_fe", "max_wall"))
        for name in ("max_fe", "target"):
            if getattr(self, name) in (np.inf, -np.inf):
                raise ValueError(f"{name} must be finite (leave it out for none), "
                                 f"got {getattr(self, name)!r}")
        if not 0 < self.flip_fraction <= 1:
            raise ValueError("flip_fraction must be in (0, 1]")
        if not 0 <= self.warmup_fraction <= 1:
            raise ValueError("warmup_fraction must be in [0, 1]")
        if self.neighbor_k < 2:
            raise ValueError("neighbor_k must be >= 2")
        if self.split is None and self.algorithm in ("ils_nds", "its_nds", "ilk_nde"):
            raise ValueError(f"{self.algorithm} requires a split")


@dataclass
class RunTrace:
    """Seeded record of one run: (consumed_fe, best value) events and the winner."""

    algorithm: str
    seed: int
    events: list[tuple[int, float]] = field(default_factory=list)
    final_best: np.ndarray | None = None
    final_value: float = float("nan")
    consumed_fe: int = 0
    wall_time: float = 0.0
    rho: float | None = None

    def to_csv(self, invocation: str = "") -> str:
        lines = [f"# invocation: {invocation}" if invocation else "# invocation: (direct)",
                 f"# algorithm: {self.algorithm}", f"# seed: {self.seed}"]
        if self.rho is not None:
            lines.append(f"# rho: {self.rho!r}")
        lines.append("fe,best_f")
        lines += [f"{fe},{val!r}" for fe, val in self.events]
        return "\n".join(lines) + "\n"

    def to_json(self, invocation: str = "") -> str:
        return json.dumps({
            "invocation": invocation,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "rho": self.rho,
            "final_value": self.final_value,
            "consumed_fe": self.consumed_fe,
            "wall_time": self.wall_time,
            "events": self.events,
            "final_best": None if self.final_best is None else self.final_best.tolist(),
        })


class _Recorder:
    """Collects best-so-far events: every improvement plus geometric checkpoints."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.events: list[tuple[int, float]] = []
        self.next_cp = 1.0
        self.last_best: float | None = None

    def record(self, best: float, force: bool = False):
        fe = self.budget.consumed_fe
        improved = self.last_best is None or best != self.last_best
        if not (improved or force or fe >= self.next_cp):
            return
        self.last_best = best
        while self.next_cp <= fe:
            self.next_cp = max(self.next_cp * CHECKPOINT_GROWTH, self.next_cp + 1.0)
        if self.events and self.events[-1][0] == fe:
            self.events[-1] = (fe, best)
        else:
            self.events.append((fe, best))


def _target_reached(sense: int, best: float, target: float | None) -> bool:
    if target is None:
        return False
    s = 1.0 if sense == MINIMIZE else -1.0
    return s * best <= s * target + 1e-9 * abs(target)


def _budget_fraction_done(budget: Budget) -> float:
    """Consumed share of whichever budget dimension is binding."""
    frac = 0.0
    if budget.max_fe:
        frac = max(frac, budget.consumed_fe / budget.max_fe)
    if budget.max_wall:
        frac = max(frac, budget.elapsed() / budget.max_wall)
    return frac


def _solution_state(sol):
    if isinstance(sol, Tour):
        return sol.order.copy()
    return sol.bits.copy().astype(np.int8)


def _same_instance(a, b) -> bool:
    """True when a and b are one object, or of one kind and size with equal units."""
    return a is b or (a.kind == b.kind and a.n == b.n
                      and all(np.array_equal(x, y) for x, y in zip(a.units, b.units)))


def check_fits(config: SolverConfig, inst):
    """Raise unless config applies to inst's kind and size; run and campaigns check first.

    A realized split fits only the instance it was drawn for, or an equal copy.
    """
    if isinstance(inst, TspInstance):
        kind, foreign = "TSP", "its"  # tabu search flips bits
    elif isinstance(inst, QuboInstance):
        kind, foreign = "UBQP", "ilk"  # Lin-Kernighan exchanges tour edges
    else:
        raise TypeError(f"unsupported instance type: {type(inst).__name__}")
    if config.algorithm[:3] == foreign:
        raise ValueError(f"{config.algorithm} does not apply to {kind} instances")
    if kind == "UBQP" and round(config.flip_fraction * inst.n) == 0:
        raise ValueError(f"flip_fraction {config.flip_fraction} kicks no bit of "
                         f"{inst.n} (round(flip_fraction * n) == 0)")
    if config.algorithm in ("ilk_e", "ilk_nde") and config.penalty.k_edges > inst.n:
        raise ValueError(f"penalty_edges {config.penalty.k_edges} exceeds a tour's {inst.n} edges")
    split = config.split
    if isinstance(split, SplitCosts) and not _same_instance(split.inst, inst):
        raise ValueError(f"the split was drawn for {split.inst.name} (n={split.inst.n}), "
                         f"not for {inst.name} (n={inst.n})")


def run(config: SolverConfig, inst) -> RunTrace:
    """Run one solver on a TSP or UBQP instance and return its seeded trace.

    One loop drives all eight algorithms. Each round takes the current
    solution through up to three steps:

    - improve: `descend` (ils*), `tabu_search` (its*) or `lk_search` (ilk*);
    - escape: `nds` (ils_nds, its_nds), `ens` (ils_ens), `further_exploit`
      (ilk_e, and ilk_nde when the incumbent best does not dominate the LK
      optimum under (f1, f2); neither during the warmup share of the
      budget), or nothing;
    - perturb: when the escape returns the solution unchanged, kick it
      (1 FE). ILK's LK after a kick restarts only from the kicked cities.

    Two ordering rules fix where the budget can stop a run:

    - ILK improves a start or a kicked tour at once, so its first event
      comes after the cold LK, and an LK started with the budget spent still
      charges its 1 FE. An exploit result counts toward the best at once.
    - ILS and ITS improve at the loop head, after the budget and target
      check, so an escaped or kicked solution is dropped when the budget
      runs out before its descent or tabu search.
    """
    check_fits(config, inst)
    alg, family = config.algorithm, config.algorithm[:3]
    split = config.split
    if isinstance(split, SplitParams):
        split = sample_split(inst, split)
    view = neighborhood_for(inst, split, config.flip_fraction)
    neighbors = build_neighbor_lists(inst, config.neighbor_k) if family == "ilk" else None
    init_rng = rng_stream(config.seed, "init")
    perturb_rng = rng_stream(config.seed, "perturb")
    tabu_rng = rng_stream(config.seed, "tabu")
    penalty_rng = rng_stream(config.seed, "penalty")
    budget = Budget(max_fe=config.max_fe, max_wall=config.max_wall)
    recorder = _Recorder(budget)

    def improve(x, kicked_from=None):
        if family == "ils":
            descend(view, x, budget)
            return x
        if family == "its":
            return tabu_search(inst, x, tabu_rng, budget)
        active = None if kicked_from is None else new_edge_endpoints(kicked_from.order, x.order)
        lk_search(inst, neighbors, x, budget, active=active)
        return x

    def escape(x):
        if alg in ("ils_nds", "its_nds"):
            return nds(x, view, budget)
        if alg == "ils_ens":
            return ens(x, view, budget)
        if alg in ("ils", "its", "ilk") or _budget_fraction_done(budget) < config.warmup_fraction:
            return x
        if alg == "ilk_nde":
            pair = tour_cost(inst, x, split)
            budget.charge(1)
            d1 = pair[0] - best_pair[0]
            d2 = pair[1] - best_pair[1]
            if dominated_mask(MINIMIZE, np.asarray([d1]), np.asarray([d2]))[0]:
                return x
        return further_exploit(x, inst, neighbors, config.penalty, budget, penalty_rng)

    best_val, best_state, best_pair = view.sense * np.inf, None, None

    def keep(x):
        nonlocal best_val, best_state, best_pair
        if better(view.sense, view.value(x), best_val):
            best_val, best_state = view.value(x), _solution_state(x)
            if alg == "ilk_nde":
                best_pair = tour_cost(inst, x, split)
                budget.charge(1)
        recorder.record(best_val)

    sol = view.random_solution(init_rng)
    budget.charge(1)
    if family == "ilk":
        sol = improve(sol)
    keep(sol)
    while not budget.exhausted() and not _target_reached(view.sense, best_val, config.target):
        if family != "ilk":
            sol = improve(sol)
            keep(sol)
            if budget.exhausted() or _target_reached(view.sense, best_val, config.target):
                break
        nxt = escape(sol)
        if nxt is sol:
            nxt = view.perturb(sol, perturb_rng)
            budget.charge(1)
            if family == "ilk":
                nxt = improve(nxt, kicked_from=sol)
        sol = nxt
        if family == "ilk":
            keep(sol)

    recorder.record(best_val, force=True)
    return RunTrace(algorithm=alg, seed=config.seed, events=recorder.events,
                    final_best=best_state, final_value=float(best_val),
                    consumed_fe=budget.consumed_fe, wall_time=budget.elapsed(),
                    rho=None if split is None else split.rho)
