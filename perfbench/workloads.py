"""The benchmark's workloads: generated inputs, timed set-up, one pass of seeded
runs through the public library API, and the checks every output must pass.

Each workload is a closed loop: one process runs its seeded runs back to
back, and each run starts when the previous one returns. Every solver run has
a target and an FE cap and no wall-clock budget, so what a run computes does
not depend on the machine. Program functions are always looked up on their
module at call time (``instances.load_bundled_tsp(...)``), so the timing
wrappers of a traced pass see every call.

The constants below were calibrated at the commit that introduced the
benchmark; perfbench/NOTES.md gives the measurement behind each one.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from sumparts import decomposition, instances, landscape, metaheuristics, search
from sumparts.decomposition import SplitParams
from sumparts.instances import EVAL_REL_TOL, MINIMIZE, TspInstance

# Every benchmark time is CPU time of the single-threaded worker process. It
# equals wall time on an idle machine, but leaves out the time a shared host
# takes the CPU away (steal), which made wall-clock rates of the same run vary
# by up to 2x from one second to the next on a 2-core VM.
clock = time.process_time

# Extra set-ups before the first pass, for a steadier setup_s median: at least
# this many, and at least this much CPU time in all.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# CPU seconds of one gather_rate() unit on the host the benchmark was
# calibrated on (2-core VM, Python 3.11, numpy 2.4), in its fast state. setup_s
# is set-up time counted in gather units and scaled back to seconds by this.
GATHER_UNIT_S = 2.6e-6
CALIBRATION_S = 0.02  # CPU seconds of the calibration kernel before each run
SPLIT_ALGORITHMS = frozenset({"ils_nds", "its_nds", "ilk_nde"})
EIL51_OPT = 426.0


def calibration_rate(seconds: float = CALIBRATION_S) -> float:
    """Units per CPU second of a fixed kernel owned by the benchmark.

    A unit is 30 steps of pure-Python integer arithmetic plus one gather-and-sum
    over a 64x64 numpy array, about equal halves, like the solvers' mix of
    interpreter and small-array work. The host this was built on switches
    between a fast and a slow state (1.7x apart, for seconds to minutes, CPU
    time included); the solver kernels' time over this kernel's moved by
    6-8% between the states. Program changes cannot move it.
    """
    rng = np.random.default_rng(0xCA1)
    m = rng.random((64, 64))
    a = rng.integers(0, 64, 128)
    b = a[::-1].copy()
    units = 0
    t0 = clock()
    while True:
        for _ in range(16):
            acc = 0
            for i in range(30):
                acc += i * i % 7
            acc += float(m[a, b].sum())
        units += 16
        elapsed = clock() - t0
        if elapsed >= seconds:
            return units / elapsed


def gather_rate(seconds: float) -> float:
    """Units per CPU second of the numpy half of the calibration kernel alone.

    Set-up times are read against this kernel, run for as long as the set-up
    just before it: of the kernels tried, its speed followed set-up speed
    closest when the host switched states (set-up over kernel moved about
    10%, raw set-up time 2x).
    """
    rng = np.random.default_rng(0xCA1)
    m = rng.random((64, 64))
    a = rng.integers(0, 64, 128)
    b = a[::-1].copy()
    units = 0
    t0 = clock()
    while True:
        for _ in range(16):
            float(m[a, b].sum())
        units += 16
        elapsed = clock() - t0
        if elapsed >= seconds:
            return units / elapsed


def run_seeds(seed: int, count: int) -> list[int]:
    """Solver seeds of one workload seed; every algorithm of a workload shares them."""
    return [seed * 1000 + i for i in range(count)]


@dataclass
class Outcome:
    """One seeded run (or one classified optimum): what it computed and its checks."""

    label: str
    seconds: float
    fe: int
    hit: bool
    signature: Any  # equal across passes and traced/untraced runs, JSON-serializable
    errors: list[str] = field(default_factory=list)
    calibration: float = float("nan")  # calibration_rate() around this run


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class SolverWorkload:
    """Seeded `metaheuristics.run` calls of several algorithms on one instance."""

    name: str
    make_input: Callable[[], Any]  # benchmark side: the generated input, not timed
    parse: Callable[[Any], Any]  # program side: generated input -> instance
    split: SplitParams
    algorithms: tuple[str, ...]
    target: float
    max_fe: float
    runs_per_algorithm: int
    fe_slack: int  # one scan of the workload's kernel: the most a run may overshoot
    warmup_fraction: float = 0.0  # for ilk_e/ilk_nde only

    def setup(self, source):
        inst = self.parse(source)
        return inst, decomposition.sample_split(inst, self.split)

    def specs(self, seed: int) -> list[tuple[str, int]]:
        return [(alg, s) for alg in self.algorithms
                for s in run_seeds(seed, self.runs_per_algorithm)]

    def execute(self, state, spec) -> tuple[Outcome, Any]:
        inst, split = state
        alg, seed = spec
        cfg = metaheuristics.SolverConfig(
            algorithm=alg, seed=seed, max_fe=self.max_fe, target=self.target,
            split=split if alg in SPLIT_ALGORITHMS else None,
            warmup_fraction=self.warmup_fraction if alg in ("ilk_e", "ilk_nde") else 0.0)
        t0 = clock()
        trace = metaheuristics.run(cfg, inst)
        seconds = clock() - t0
        s = 1.0 if inst.sense == MINIMIZE else -1.0
        hit = s * trace.final_value <= s * self.target
        outcome = Outcome(label=f"{alg}/{seed}", seconds=seconds, fe=int(trace.consumed_fe),
                          hit=bool(hit),
                          signature=[trace.final_value, int(trace.consumed_fe),
                                     [[int(fe), float(v)] for fe, v in trace.events]])
        return outcome, trace

    def check(self, state, outcome: Outcome, trace) -> list[str]:
        inst, _ = state
        errors = []
        best = trace.final_best
        if isinstance(inst, TspInstance):
            order = np.asarray(best)
            if order.shape != (inst.n,) or not np.array_equal(np.sort(order), np.arange(inst.n)):
                return ["final tour is not a permutation"]
            value = instances.tour_cost(inst, order)
        else:
            bits = np.asarray(best)
            if bits.shape != (inst.n,) or not np.all((bits == 0) | (bits == 1)):
                return ["final bit vector is not a 0/1 vector of length n"]
            value = instances.qubo_value(inst, bits)
        if _relative_gap(value, trace.final_value) > EVAL_REL_TOL:
            errors.append(f"final_value {trace.final_value!r} != recomputed {value!r}")
        if trace.consumed_fe > self.max_fe + self.fe_slack:
            errors.append(f"consumed_fe {trace.consumed_fe} exceeds cap {self.max_fe:g} "
                          f"+ one scan {self.fe_slack}")
        if not outcome.hit and trace.consumed_fe < self.max_fe:
            errors.append("run stopped before the cap without reaching the target")
        if not trace.events or trace.events[-1][1] != trace.final_value:
            errors.append("last event does not record the final value")
        return errors


@dataclass(frozen=True)
class LandscapeWorkload:
    """Local optima from random starts, each classified under a ladder of splits.

    A "run" is one classified optimum: `promising_flags` once, then
    `classify_neighbors` under every shape of the ladder.
    """

    name: str
    make_input: Callable[[], Any]
    parse: Callable[[Any], Any]
    shapes: tuple[float, ...]
    split_seed: int
    optima: int

    def setup(self, source):
        inst = self.parse(source)
        splits = [decomposition.sample_split(inst, SplitParams(a=a, seed=self.split_seed))
                  for a in self.shapes]
        return inst, splits

    def collect(self, state, seed: int) -> list:
        inst, _ = state
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A5D]))
        return landscape.collect_local_optima(inst, self.optima, rng)

    def execute(self, state, optimum, index: int) -> tuple[Outcome, Any]:
        inst, splits = state
        plain = search.TwoOptNeighborhood(inst)
        views = [search.TwoOptNeighborhood(inst, split) for split in splits]
        t0 = clock()
        flags = landscape.promising_flags(optimum, plain)
        stats = [landscape.classify_neighbors(optimum, view, flags) for view in views]
        seconds = clock() - t0
        size = plain.size
        deltas = size + size * size + len(views) * size
        rows = [[float(v) for v in s.as_row().values()] for s in stats]
        outcome = Outcome(label=f"optimum/{index}", seconds=seconds, fe=deltas, hit=True,
                          signature=[float(optimum.cached_cost), optimum.order.tolist(),
                                     int(flags.sum()), rows])
        return outcome, (optimum, flags, stats, size)

    def check(self, state, outcome: Outcome, result) -> list[str]:
        inst, _ = state
        optimum, flags, stats, size = result
        order = optimum.order
        if not np.array_equal(np.sort(order), np.arange(inst.n)):
            return ["optimum is not a permutation"]
        errors = []
        cost = instances.tour_cost(inst, order)
        if _relative_gap(cost, optimum.cached_cost) > EVAL_REL_TOL:
            errors.append(f"cached cost {optimum.cached_cost!r} != recomputed {cost!r}")
        if np.any(search.TwoOptNeighborhood(inst).deltas(optimum) < 0.0):
            errors.append("collected solution is not 2-Opt locally optimal")
        if flags.shape != (size,):
            errors.append(f"promising flags have shape {flags.shape}, expected ({size},)")
        for s in stats:
            cells = s.p_d + s.p_nd + s.np_d + s.np_nd
            if s.neighborhood_size != size or abs(cells - 1.0) > 1e-9:
                errors.append("classification cells do not partition the neighborhood")
            if abs(s.p - flags.mean()) > 1e-9:
                errors.append("promising share disagrees with the promising flags")
        return errors


def _rand100():
    return instances.random_tsp_instance(100, seed=900)


def _bqp1000_text():
    return instances.synthetic_orlib_text(1000, seed=1)


def _lk_chain_bound(k: int = 20) -> int:
    """FEs one LK chain can charge: k first-level candidates, each scanning k
    second-level ones and extending up to breadth2 of them greedily through
    the remaining depth - 2 levels of k candidates."""
    return k * (k + search.LK_BREADTH2 * (search.LK_DEPTH - 2) * k)


_EIL51_MOVES = 51 * 48 // 2  # 2-Opt neighborhood size of eil51

WORKLOADS = {
    w.name: w for w in (
        SolverWorkload(
            name="eil51-ils-escape", make_input=lambda: "eil51",
            parse=lambda name: instances.load_bundled_tsp(name),
            split=SplitParams(a=-12.0, seed=0), algorithms=("ils_nds", "ils_ens"),
            target=EIL51_OPT, max_fe=1e7, runs_per_algorithm=8,
            fe_slack=_EIL51_MOVES),
        SolverWorkload(
            name="rand100-ilk", make_input=_rand100, parse=lambda inst: inst,
            split=SplitParams(a=2.0, seed=9), algorithms=("ilk", "ilk_nde"),
            target=7914.0, max_fe=1e5, runs_per_algorithm=6, warmup_fraction=0.2,
            fe_slack=_lk_chain_bound() + 8),
        SolverWorkload(
            name="bqp1000-flip", make_input=_bqp1000_text,
            parse=lambda text: instances.parse_orlib_bqp(text),
            split=SplitParams(a=0.0, seed=0), algorithms=("its_nds", "ils_nds"),
            target=334000.0, max_fe=3e7, runs_per_algorithm=6, fe_slack=1000),
        LandscapeWorkload(
            name="eil51-landscape", make_input=lambda: "eil51",
            parse=lambda name: instances.load_bundled_tsp(name),
            shapes=(-12.0, -5.0, -2.0, 0.0, 2.0, 10.0), split_seed=0, optima=80),
    )
}


def run_pass(workload, source, seed: int, tracer=None) -> dict:
    """One full pass: set-up, then every seeded run back to back, then checks.

    The calibration kernel runs before every run and after the last, so each
    run's speed can be read against the host's speed around it. A run that
    raises is recorded as a failed outcome; the pass goes on. Checks run
    after the pass clock stops.
    """
    w0 = time.perf_counter()
    t0 = clock()
    state = workload.setup(source)
    setup_s = clock() - t0
    done = []
    extra = {}
    if isinstance(workload, LandscapeWorkload):
        t1 = clock()
        optima = workload.collect(state, seed)
        extra["collect_s"] = clock() - t1
        jobs = [(lambda i=i, opt=opt: workload.execute(state, opt, i), f"optimum/{i}")
                for i, opt in enumerate(optima)]
    else:
        jobs = [(lambda spec=spec: workload.execute(state, spec), f"{spec[0]}/{spec[1]}")
                for spec in workload.specs(seed)]
    rates = []
    for run_id, (job, label) in enumerate(jobs):
        rates.append(calibration_rate())
        if tracer is not None:
            tracer.run_id = run_id
        try:
            done.append(job())
        except Exception:  # a failed run is counted, never dropped
            done.append((Outcome(label=label, seconds=float("nan"), fe=0, hit=False,
                                 signature=None, errors=[traceback.format_exc(limit=3)]),
                         None))
    if tracer is not None:
        tracer.run_id = -1
    rates.append(calibration_rate())
    batch_s = clock() - t0
    wall_s = time.perf_counter() - w0
    outcomes = []
    for i, (outcome, result) in enumerate(done):
        if result is not None:
            outcome.errors = workload.check(state, outcome, result)
        outcome.calibration = (rates[i] + rates[i + 1]) / 2.0
        outcomes.append(outcome)
    return {"setup_s": setup_s, "batch_s": batch_s, "wall_s": wall_s, "outcomes": outcomes,
            **extra}


def time_setups(workload, source) -> tuple[list[float], list[float]]:
    """Repeated set-ups: their CPU seconds, and the same in reference seconds.

    Each set-up is followed by gather_rate() for as long; its time in gather
    units, times GATHER_UNIT_S, is what it would have taken on the
    reference host in its fast state, whatever state this host is in now.
    """
    cpu, reference = [], []
    while len(cpu) < SETUP_REPEATS or sum(cpu) < SETUP_MIN_S:
        t0 = clock()
        workload.setup(source)
        seconds = clock() - t0
        cpu.append(seconds)
        reference.append(seconds * gather_rate(seconds) * GATHER_UNIT_S)
    return cpu, reference
