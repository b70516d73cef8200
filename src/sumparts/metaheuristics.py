"""The solver drivers: iterated local search, tabu search and Lin-Kernighan,
plain and with the non-dominance escape/exploitation variants.

Every driver consumes named RNG streams derived from one master seed (init,
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
    MAXIMIZE,
    MINIMIZE,
    QuboInstance,
    Tour,
    TspInstance,
    build_neighbor_lists,
    tour_cost,
)
from .search import (
    Budget,
    FlipNeighborhood,
    TwoOptNeighborhood,
    better,
    descend,
    lk_search,
    new_edge_endpoints,
    tabu_search,
)

TSP_ALGORITHMS = ("ils", "ils_nds", "ils_ens", "ilk", "ilk_e", "ilk_nde")
QUBO_ALGORITHMS = ("ils", "ils_nds", "ils_ens", "its", "its_nds")
ALGORITHMS = ("ils", "ils_nds", "ils_ens", "its", "its_nds", "ilk", "ilk_e", "ilk_nde")

_STREAM_TAGS = {"init": 1, "perturb": 2, "split": 3, "penalty": 4, "tabu": 5}


def rng_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_TAGS[name]]))


@dataclass
class SolverConfig:
    """One solver run: algorithm, budget, seed and the escape settings it needs."""

    algorithm: str
    seed: int = 0
    max_fe: float | None = None
    max_wall: float | None = None
    target: float | None = None
    split_params: SplitParams | None = None
    split: SplitCosts | None = None  # overrides split_params when given
    penalty: PenaltyConfig | None = None
    flip_fraction: float = 0.25
    neighbor_k: int = 20
    warmup_fraction: float = 0.0  # ILK+E/NDE: plain ILK for this budget share
    checkpoint_growth: float = 1.3

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm in ("ils_nds", "its_nds", "ilk_nde"):
            if self.split is None and self.split_params is None:
                raise ValueError(f"{self.algorithm} requires split_params or a split")
        if self.algorithm in ("ilk_e", "ilk_nde") and self.penalty is None:
            self.penalty = PenaltyConfig()


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

    def __init__(self, budget: Budget, growth: float):
        self.budget = budget
        self.growth = growth
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
            self.next_cp = max(self.next_cp * self.growth, self.next_cp + 1.0)
        if self.events and self.events[-1][0] == fe:
            self.events[-1] = (fe, best)
        else:
            self.events.append((fe, best))


def _target_reached(sense: int, best: float, target: float | None) -> bool:
    if target is None:
        return False
    s = 1.0 if sense == MINIMIZE else -1.0
    return s * best <= s * target + 1e-9 * abs(target)


def _resolve_split(config: SolverConfig, inst) -> SplitCosts | None:
    if config.split is not None:
        return config.split
    if config.split_params is not None:
        return sample_split(inst, config.split_params)
    return None


def _budget_fraction_done(budget: Budget) -> float:
    """Consumed share of whichever budget dimension is binding."""
    frac = 0.0
    if budget.max_fe:
        frac = max(frac, budget.consumed_fe / budget.max_fe)
    if budget.max_wall:
        frac = max(frac, budget.elapsed() / budget.max_wall)
    return frac


def run(config: SolverConfig, inst) -> RunTrace:
    """Dispatch a solver run for a TSP or UBQP instance."""
    alg = config.algorithm
    if isinstance(inst, TspInstance):
        if alg not in TSP_ALGORITHMS:
            raise ValueError(f"{alg} does not apply to TSP instances")
        if alg.startswith("ilk"):
            return _run_ilk_family(config, inst)
        return _run_ils_family(config, inst)
    if isinstance(inst, QuboInstance):
        if alg not in QUBO_ALGORITHMS:
            raise ValueError(f"{alg} does not apply to UBQP instances")
        if alg.startswith("its"):
            return _run_its_family(config, inst)
        return _run_ils_family(config, inst)
    raise TypeError(f"unsupported instance type: {type(inst).__name__}")


def _solution_state(sol):
    if isinstance(sol, Tour):
        return sol.order.copy()
    return sol.bits.copy().astype(np.int8)


def _run_ils_family(config: SolverConfig, inst) -> RunTrace:
    """Iterated local search; optional two-hop escape before the perturbation.

    Mode "ils_nds"/"ils_ens": after each local optimum, attempt the escape;
    its result (when it improves) becomes the next starting point and is
    locally searched at the next loop head, otherwise perturb as plain ILS.
    """
    alg = config.algorithm
    needs_split = alg == "ils_nds"
    split = _resolve_split(config, inst) if (needs_split or config.split is not None
                                             or config.split_params is not None) else None
    if isinstance(inst, TspInstance):
        view = TwoOptNeighborhood(inst, split)
    else:
        view = FlipNeighborhood(inst, split, config.flip_fraction)
    init_rng = rng_stream(config.seed, "init")
    perturb_rng = rng_stream(config.seed, "perturb")
    budget = Budget(max_fe=config.max_fe, max_wall=config.max_wall)
    budget.start_clock()
    recorder = _Recorder(budget, config.checkpoint_growth)
    trace = RunTrace(algorithm=alg, seed=config.seed,
                     rho=None if split is None else split.rho)

    sol = view.random_solution(init_rng)
    budget.charge(1)
    best_val = view.value(sol)
    best_state = _solution_state(sol)
    recorder.record(best_val, force=True)

    while not budget.exhausted() and not _target_reached(view.sense, best_val, config.target):
        descend(view, sol, budget)
        if better(view.sense, view.value(sol), best_val):
            best_val = view.value(sol)
            best_state = _solution_state(sol)
        recorder.record(best_val)
        if budget.exhausted() or _target_reached(view.sense, best_val, config.target):
            break
        if alg == "ils_nds":
            escaped = nds(sol, view, budget)
        elif alg == "ils_ens":
            escaped = ens(sol, view, budget)
        else:
            escaped = sol
        if escaped is not sol:
            sol = escaped  # locally searched at the next loop head
            continue
        sol = view.perturb(sol, perturb_rng)
        budget.charge(1)

    trace.final_best = best_state
    recorder.record(best_val, force=True)
    trace.events = recorder.events
    trace.final_value = float(best_val)
    trace.consumed_fe = budget.consumed_fe
    trace.wall_time = budget.elapsed()
    return trace


def _run_its_family(config: SolverConfig, inst: QuboInstance) -> RunTrace:
    """Iterated tabu search; optional non-dominance escape between phases."""
    alg = config.algorithm
    split = _resolve_split(config, inst) if (alg == "its_nds" or config.split is not None
                                             or config.split_params is not None) else None
    view = FlipNeighborhood(inst, split, config.flip_fraction)
    init_rng = rng_stream(config.seed, "init")
    perturb_rng = rng_stream(config.seed, "perturb")
    tabu_rng = rng_stream(config.seed, "tabu")
    budget = Budget(max_fe=config.max_fe, max_wall=config.max_wall)
    budget.start_clock()
    recorder = _Recorder(budget, config.checkpoint_growth)
    trace = RunTrace(algorithm=alg, seed=config.seed,
                     rho=None if split is None else split.rho)

    sol = view.random_solution(init_rng)
    budget.charge(1)
    best_val = view.value(sol)
    best_state = _solution_state(sol)
    recorder.record(best_val, force=True)

    while not budget.exhausted() and not _target_reached(view.sense, best_val, config.target):
        sol = tabu_search(inst, sol, tabu_rng, budget)
        if better(view.sense, view.value(sol), best_val):
            best_val = view.value(sol)
            best_state = _solution_state(sol)
        recorder.record(best_val)
        if budget.exhausted() or _target_reached(view.sense, best_val, config.target):
            break
        if alg == "its_nds":
            escaped = nds(sol, view, budget)
        else:
            escaped = sol
        if escaped is not sol:
            sol = escaped
            continue
        sol = view.perturb(sol, perturb_rng)
        budget.charge(1)

    trace.final_best = best_state
    recorder.record(best_val, force=True)
    trace.events = recorder.events
    trace.final_value = float(best_val)
    trace.consumed_fe = budget.consumed_fe
    trace.wall_time = budget.elapsed()
    return trace


def _run_ilk_family(config: SolverConfig, inst: TspInstance) -> RunTrace:
    """Iterated Lin-Kernighan; optional penalty exploitation of LK optima.

    "ilk_e" exploits every LK optimum; "ilk_nde" only those the incumbent
    best does not dominate under (f1, f2). With warmup_fraction > 0 the first
    share of the budget runs as plain ILK.
    """
    alg = config.algorithm
    split = _resolve_split(config, inst) if (alg == "ilk_nde" or config.split is not None
                                             or config.split_params is not None) else None
    penalty = config.penalty if config.penalty is not None else PenaltyConfig()
    neighbors = build_neighbor_lists(inst, config.neighbor_k)
    init_rng = rng_stream(config.seed, "init")
    perturb_rng = rng_stream(config.seed, "perturb")
    penalty_rng = rng_stream(config.seed, "penalty")
    budget = Budget(max_fe=config.max_fe, max_wall=config.max_wall)
    budget.start_clock()
    recorder = _Recorder(budget, config.checkpoint_growth)
    trace = RunTrace(algorithm=alg, seed=config.seed,
                     rho=None if split is None else split.rho)
    view = TwoOptNeighborhood(inst)  # for random start and perturbation only

    sol = view.random_solution(init_rng)
    budget.charge(1)
    sol, _ = lk_search(inst, neighbors, sol, budget)
    best_val = sol.cached_cost
    best_state = _solution_state(sol)
    best_pair = None
    if split is not None:
        best_pair = tour_cost(inst, sol, split)
        budget.charge(1)
    recorder.record(best_val, force=True)

    def perturb_and_search(tour: Tour) -> Tour:
        # LK restarts only from the cities the kick touched
        kicked = view.perturb(tour, perturb_rng)
        budget.charge(1)
        return lk_search(inst, neighbors, kicked, budget,
                         active=new_edge_endpoints(tour.order, kicked.order))[0]

    while not budget.exhausted() and not _target_reached(MINIMIZE, best_val, config.target):
        in_warmup = _budget_fraction_done(budget) < config.warmup_fraction
        if alg == "ilk" or in_warmup:
            nxt = perturb_and_search(sol)
        elif alg == "ilk_e":
            nxt = further_exploit(sol, inst, neighbors, penalty, budget, penalty_rng)
            if nxt is sol:
                nxt = perturb_and_search(sol)
        else:  # ilk_nde
            pair = tour_cost(inst, sol, split)
            budget.charge(1)
            d1 = pair[0] - best_pair[0]
            d2 = pair[1] - best_pair[1]
            best_dominates = bool(dominated_mask(MINIMIZE, np.asarray([d1]),
                                                 np.asarray([d2]))[0])
            if not best_dominates:
                nxt = further_exploit(sol, inst, neighbors, penalty, budget, penalty_rng)
                if nxt is sol:
                    nxt = perturb_and_search(sol)
            else:
                nxt = perturb_and_search(sol)
        sol = nxt
        if sol.cached_cost < best_val:
            best_val = sol.cached_cost
            best_state = _solution_state(sol)
            if split is not None:
                best_pair = tour_cost(inst, sol, split)
                budget.charge(1)
        recorder.record(best_val)

    trace.final_best = best_state
    recorder.record(best_val, force=True)
    trace.events = recorder.events
    trace.final_value = float(best_val)
    trace.consumed_fe = budget.consumed_fe
    trace.wall_time = budget.elapsed()
    return trace
