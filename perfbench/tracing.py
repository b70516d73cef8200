"""Pass-through timing wrappers on the names each program layer calls.

`Tracer.install` replaces module attributes, and the neighborhood classes'
methods, with wrappers that record one span per call: name, start, end,
parent span, run id, the FEs the call charged to its `Budget` argument and
one number about its result (see `_NOTES`). The wrappers call the original
with the same arguments and return its result unchanged, so a traced run
computes exactly what an untraced one does. `uninstall` restores every
original. Spans are kept in memory and written out once, by `write_spans`.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
from pathlib import Path

import numpy as np

from sumparts.search import Budget
from workloads import clock

# (owner, attribute, span name). The owner is the module (or module:Class) where the
# caller looks the name up, so a layer is timed wherever it is called from.
WRAP_POINTS = (
    ("sumparts.metaheuristics", "run", "metaheuristics.run"),
    ("sumparts.metaheuristics", "descend", "search.descend"),
    ("sumparts.landscape", "descend", "search.descend"),
    ("sumparts.metaheuristics", "nds", "escape.nds"),
    ("sumparts.metaheuristics", "ens", "escape.ens"),
    ("sumparts.escape", "dominated_mask", "escape.dominated_mask"),
    ("sumparts.metaheuristics", "further_exploit", "escape.further_exploit"),
    ("sumparts.escape", "add_random_penalty", "escape.add_random_penalty"),
    ("sumparts.metaheuristics", "dominated_mask", "metaheuristics.nde_gate"),
    ("sumparts.metaheuristics", "lk_search", "search.lk_search"),
    ("sumparts.escape", "lk_search", "search.lk_search"),
    ("sumparts.metaheuristics", "tabu_search", "search.tabu_search"),
    ("sumparts.search:TwoOptNeighborhood", "first_improvement", "search.first_improvement"),
    ("sumparts.search:FlipNeighborhood", "first_improvement", "search.first_improvement"),
    ("sumparts.search:TwoOptNeighborhood", "perturb", "search.perturb"),
    ("sumparts.search:FlipNeighborhood", "perturb", "search.perturb"),
    ("sumparts.search:TwoOptNeighborhood", "random_solution", "search.random_solution"),
    ("sumparts.search:FlipNeighborhood", "random_solution", "search.random_solution"),
    ("sumparts.search", "flip_delta_and_update", "instances.flip_delta_and_update"),
    ("sumparts.search", "tour_cost", "instances.tour_cost"),
    ("sumparts.metaheuristics", "tour_cost", "instances.tour_cost"),
    ("sumparts.metaheuristics", "build_neighbor_lists", "instances.build_neighbor_lists"),
    ("sumparts.instances", "load_bundled_tsp", "instances.parse"),
    ("sumparts.instances", "parse_orlib_bqp", "instances.parse"),
    ("sumparts.decomposition", "sample_split", "decomposition.sample_split"),
    ("sumparts.landscape", "collect_local_optima", "landscape.collect_local_optima"),
    ("sumparts.landscape", "promising_flags", "landscape.promising_flags"),
    ("sumparts.landscape", "classify_neighbors", "landscape.classify_neighbors"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAP_POINTS))


def _returned_new(args, kwargs, out) -> float:
    return 0.0 if out is args[0] else 1.0


def _lk_penalized(args, kwargs, out) -> float:
    objective = kwargs.get("objective", args[4] if len(args) > 4 else None)
    return 0.0 if objective is None else 1.0


# One number per span, read from the call's arguments or result.
_NOTES = {
    "metaheuristics.run": lambda a, k, out: float(out.consumed_fe),
    "escape.nds": _returned_new,  # escaped
    "escape.ens": _returned_new,
    "escape.further_exploit": _returned_new,
    "escape.dominated_mask": lambda a, k, out: float(np.mean(~out)),  # ND share
    "metaheuristics.nde_gate": lambda a, k, out: 0.0 if out[0] else 1.0,  # gate passed
    "search.lk_search": _lk_penalized,
    "search.tabu_search": lambda a, k, out: float(a[0].n),  # FEs per move
    "search.first_improvement": lambda a, k, out: float(a[0].size),  # deltas computed
    "landscape.promising_flags": lambda a, k, out: float(a[1].size),
    "landscape.collect_local_optima": lambda a, k, out: float(len(out)),
}


def _budget_of(args, kwargs) -> Budget | None:
    for value in (*args, *kwargs.values()):
        if isinstance(value, Budget):
            return value
    return None


def _resolve(owner: str):
    """A module ("pkg.mod") or a class in one ("pkg.mod:Class")."""
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Records spans from wrappers it installs; not thread-safe (runs are serial)."""

    def __init__(self):
        self.run_id = -1
        self.spans: list = []  # [name, start, end, parent, run_id, fe, note]
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            budget = _budget_of(args, kwargs)
            fe0 = budget.consumed_fe if budget is not None else 0
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, 0, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if budget is not None:
                span[5] = budget.consumed_fe - fe0
            if note is not None:
                span[6] = note(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for owner, attr, name in WRAP_POINTS:
            target = _resolve(owner)
            original = target.__dict__[attr]
            self._originals.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))

    def uninstall(self):
        while self._originals:
            target, attr, original = self._originals.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "run", "fe", "note"])
            for i, s in enumerate(self.spans):
                out.writerow([i, *s])


def _div(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer numbers of one traced pass, all as plain floats.

    A layer that the workload never calls reports 0 for every metric.
    """
    count = len(spans)
    names = np.array([s[0] for s in spans], dtype=object)
    start = np.array([s[1] for s in spans], dtype=np.float64)
    end = np.array([s[2] for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    run = np.array([s[4] for s in spans], dtype=np.int64)
    fe = np.array([s[5] for s in spans], dtype=np.float64)
    note = np.array([s[6] for s in spans], dtype=np.float64)
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=count)
    self_time = dur - child

    out: dict[str, float] = {}
    sel = {n: names == n for n in SPAN_NAMES}
    for n in SPAN_NAMES:
        out[f"{n}.calls"] = float(sel[n].sum())
        out[f"{n}.self_s"] = float(self_time[sel[n]].sum())

    def total(n, arr=dur, mask=None):
        m = sel[n] if mask is None else sel[n] & mask
        return float(arr[m].sum())

    def calls(n, mask=None):
        return float(sel[n].sum() if mask is None else (sel[n] & mask).sum())

    def mean_note(n):
        return float(note[sel[n]].mean()) if sel[n].any() else 0.0

    penalized = note == 1.0
    lk = "search.lk_search"
    out[f"{lk}.us_per_fe"] = 1e6 * _div(total(lk), total(lk, fe))
    out[f"{lk}.plain.s_per_call"] = _div(total(lk, mask=~penalized), calls(lk, ~penalized))
    out[f"{lk}.penalized.s_per_call"] = _div(total(lk, mask=penalized), calls(lk, penalized))

    fx = "escape.further_exploit"
    rounds = calls("escape.add_random_penalty")
    out[f"{fx}.rounds_per_call"] = _div(rounds, calls(fx))
    out[f"{fx}.s_per_round"] = _div(total(fx), rounds)
    out[f"{fx}.success_ratio"] = mean_note(fx)
    out["escape.add_random_penalty.us_per_call"] = 1e6 * _div(
        total("escape.add_random_penalty"), rounds)
    out["metaheuristics.nde_gate.pass_rate"] = mean_note("metaheuristics.nde_gate")

    for esc in ("escape.nds", "escape.ens"):
        out[f"{esc}.us_per_fe"] = 1e6 * _div(total(esc), total(esc, fe))
        out[f"{esc}.success_ratio"] = mean_note(esc)
    out["escape.nds.nd_share"] = mean_note("escape.dominated_mask")

    fi = "search.first_improvement"
    out[f"{fi}.charged_ratio"] = _div(total(fi, fe), total(fi, note))
    out["search.descend.us_per_fe"] = 1e6 * _div(total("search.descend"),
                                                  total("search.descend", fe))
    tabu = "search.tabu_search"
    moves = float((fe[sel[tabu]] / note[sel[tabu]]).sum())  # a move charges n FEs
    out[f"{tabu}.us_per_move"] = 1e6 * _div(total(tabu), moves)
    for n in ("instances.flip_delta_and_update", "search.perturb", "search.random_solution",
              "instances.tour_cost"):
        out[f"{n}.us_per_call"] = 1e6 * _div(total(n), calls(n))

    pf = "landscape.promising_flags"
    size = note[sel[pf]]
    out[f"{pf}.ns_per_delta"] = 1e9 * _div(total(pf), float((size + size * size).sum()))
    col = "landscape.collect_local_optima"
    out[f"{col}.s_per_optimum"] = _div(total(col), total(col, note))
    out["landscape.classify_neighbors.ms_per_call"] = 1e3 * _div(
        total("landscape.classify_neighbors"), calls("landscape.classify_neighbors"))
    out["decomposition.sample_split.s"] = _div(total("decomposition.sample_split"),
                                               calls("decomposition.sample_split"))
    out["instances.parse_s"] = _div(total("instances.parse"), calls("instances.parse"))
    out["instances.build_neighbor_lists.ms_per_call"] = 1e3 * _div(
        total("instances.build_neighbor_lists"), calls("instances.build_neighbor_lists"))

    in_run = run >= 0
    optima = (calls("search.descend", in_run) + calls("search.tabu_search", in_run)
              + calls(lk, in_run & ~penalized))
    out["metaheuristics.local_optima_per_run"] = _div(optima, calls("metaheuristics.run"))
    return out

