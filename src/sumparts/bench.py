"""Experiment orchestration: seeded campaigns, excess summaries, rank-sum tests.

A campaign is a pure function of its spec and instance files: traces and
summary CSVs are byte-identical across re-runs (FE-budgeted cells; wall-clock
budgets are inherently machine-dependent).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .instances import (
    bundled_optima,
    load_bundled_tsp,
    parse_orlib_bqp,
    parse_tsplib,
)
from .metaheuristics import RunTrace, SolverConfig, check_fits, run


def excess(f_x: float, f_opt: float) -> float:
    """Relative gap |f(x) - f_opt| / |f_opt| to the known optimum."""
    if f_opt == 0:
        raise ValueError("excess undefined for a zero optimum")
    return abs(f_x - f_opt) / abs(f_opt)


# ---------------------------------------------------------------------------
# Mann-Whitney rank-sum test (normal approximation, tie-corrected)


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Fractional ranks (ties share their mean rank) and the tie-sum T^3 - T."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    tie_sum = 0.0
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        t = j - i + 1
        if t > 1:
            tie_sum += t ** 3 - t
        i = j + 1
    return ranks, tie_sum


def rank_sum_test(a, b) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test.

    Returns (U, p) where U counts the pairs in which a beats b (ties half),
    and p uses the normal approximation with tie correction and continuity
    correction. Identical constant samples give p = 1.
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    n1, n2 = a.size, b.size
    ranks, tie_sum = _rank_with_ties(np.concatenate([a, b]))
    r1 = float(ranks[:n1].sum())
    u = r1 - n1 * (n1 + 1) / 2.0  # pairs where a > b (+ half-ties)
    n = n1 + n2
    var = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    if var <= 0:
        return u, 1.0
    big_u = max(u, n1 * n2 - u)
    z = (big_u - n1 * n2 / 2.0 - 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * (0.5 * math.erfc(z / math.sqrt(2.0))))
    return u, p


def verdict_vs_reference(reference_excess, other_excess) -> str:
    """"-" when the other sample is significantly worse than the reference.

    Worse means larger excess by rank at p < 0.05; anything not significant is "=".
    """
    other, reference = list(other_excess), list(reference_excess)
    u, p = rank_sum_test(other, reference)
    n1n2 = len(other) * len(reference)
    if p < 0.05 and u > n1n2 / 2.0:
        return "-"
    return "="


# ---------------------------------------------------------------------------
# campaigns


@dataclass
class CampaignSpec:
    """A multi-seed experiment over instances and algorithm configurations.

    instances maps name -> path (or a bundled name such as "eil51");
    targets maps name -> known optimum (used for stopping and excess).
    reference_algorithm anchors the verdict column.
    """

    instances: dict[str, str]
    algorithms: list[SolverConfig]
    seeds: list[int]
    targets: dict[str, float] = field(default_factory=dict)
    out_dir: str | None = None
    reference_algorithm: str | None = None

    def __post_init__(self):
        for key, what in (("instances", "paths"), ("targets", "optima")):
            if not isinstance(getattr(self, key), dict):
                raise ValueError(f"{key} must map names to {what}, got {getattr(self, key)!r}")
        for name, path in self.instances.items():
            # a name is one part of a trace file's name under out_dir/traces
            if not isinstance(name, str) or name in ("", ".", "..") or any(
                    sep and sep in name for sep in ("/", os.sep, os.altsep)):
                raise ValueError(f"instances[{name!r}]: an instance name must be a nonempty "
                                 f"file name part, not '.', '..' or one holding a path separator")
            if not isinstance(path, str):
                raise ValueError(f"instances[{name!r}] must be a path string, got {path!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path string or null, got {self.out_dir!r}")
        if not isinstance(self.seeds, list) or not all(
                isinstance(s, numbers.Integral) and not isinstance(s, bool) and s >= 0
                for s in self.seeds):
            raise ValueError(f"seeds must be a list of integers >= 0, got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not self.algorithms:
            raise ValueError("no algorithms configured")
        names = [config.algorithm for config in self.algorithms]
        if len(set(names)) != len(names):
            # their traces and verdict rows would share one name
            raise ValueError(f"algorithm names must be distinct, got {names}")
        # a campaign that would run no cell, or silently drop a verdict or a target
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if not self.instances:
            raise ValueError("instances must name at least one instance")
        if self.reference_algorithm is not None and self.reference_algorithm not in names:
            raise ValueError(f"reference_algorithm {self.reference_algorithm!r} is not one "
                             f"of the algorithms {names}")
        stray = set(self.targets).difference(self.instances)
        if stray:
            raise ValueError(f"targets name no instance: {', '.join(sorted(stray))}")
        for name, target in self.targets.items():
            if isinstance(target, bool) or not isinstance(target, numbers.Real) or not (
                    math.isfinite(target)):
                raise ValueError(f"targets[{name!r}] must be a finite number, got {target!r}")
            if target == 0:
                raise ValueError(f"targets[{name!r}] must be nonzero: excess is relative to it")


@dataclass
class ExcessSummary:
    """One (instance, algorithm) row of a campaign.

    A cell whose run raised has a NaN final; failures counts those cells and
    first_error holds the first one's message.
    """

    instance: str
    algorithm: str
    rho: float | None
    finals: list[float]
    excesses: list[float] | None
    mean_excess: float | None
    std_excess: float | None
    verdict: str = ""
    failures: int = 0
    first_error: str | None = None


def load_instance(name: str, path: str):
    """Load an instance by path, or a bundled TSP by name (e.g. "eil51").

    The header picks the parser, not the suffix: TSPLIB when it declares
    EDGE_WEIGHT_TYPE or NODE_COORD_SECTION, else OR-Library UBQP.
    """
    if path == name and not os.path.exists(path):
        return load_bundled_tsp(name)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head = text.lstrip()[:400].upper()
    if "EDGE_WEIGHT_TYPE" in head or "NODE_COORD_SECTION" in head:
        return parse_tsplib(text)
    return parse_orlib_bqp(text, name=name)


def run_campaign(spec: CampaignSpec, instances: dict | None = None) -> list[ExcessSummary]:
    """Run every (instance, algorithm, seed) cell and summarize final excess.

    Pre-parsed instances can be supplied to skip file loading. An entry
    that does not fit an instance raises before any cell runs. Traces are
    persisted under out_dir when set. A cell that raises does not stop the
    campaign: its summary counts it and keeps the first error message, and
    with out_dir set the error is also written next to the traces.
    """
    given = instances or {}
    loaded = {name: given[name] if name in given else load_instance(name, path)
              for name, path in spec.instances.items()}
    for inst in loaded.values():
        for config in spec.algorithms:
            check_fits(config, inst)

    if spec.out_dir:
        os.makedirs(os.path.join(spec.out_dir, "traces"), exist_ok=True)

    summaries: list[ExcessSummary] = []
    by_key: dict[tuple[str, str], ExcessSummary] = {}
    for name, inst in loaded.items():
        target = spec.targets.get(name, bundled_optima().get(name))
        for config in spec.algorithms:
            finals = []
            errors = []
            rho = None
            for seed in spec.seeds:
                cell = replace(config, seed=seed,
                               target=config.target if config.target is not None else target)
                try:
                    trace = run(cell, inst)
                except Exception as err:  # noqa: BLE001 - cell isolation is the contract
                    finals.append(float("nan"))
                    errors.append(f"{type(err).__name__}: {err}")
                    if spec.out_dir:
                        _persist_error(spec.out_dir, name, config.algorithm, seed, err)
                    continue
                finals.append(trace.final_value)
                rho = trace.rho if trace.rho is not None else rho
                if spec.out_dir:
                    _persist_trace(spec.out_dir, name, trace)
            if target is not None:
                excesses = [excess(v, target) for v in finals]
                mean = float(np.mean(excesses))
                std = float(np.std(excesses, ddof=1)) if len(excesses) > 1 else 0.0
            else:
                excesses, mean, std = None, None, None
            summary = ExcessSummary(instance=name, algorithm=config.algorithm,
                                    rho=rho, finals=finals, excesses=excesses,
                                    mean_excess=mean, std_excess=std,
                                    failures=len(errors),
                                    first_error=errors[0] if errors else None)
            summaries.append(summary)
            by_key[(name, config.algorithm)] = summary

    ref = spec.reference_algorithm
    if ref is not None:
        for summary in summaries:
            # ref names an entry, and the rows of one instance share its target
            anchor = by_key[(summary.instance, ref)]
            if summary.algorithm != ref and summary.excesses is not None:
                summary.verdict = verdict_vs_reference(anchor.excesses, summary.excesses)

    if spec.out_dir:
        with open(os.path.join(spec.out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
            fh.write(summary_csv(summaries))
    return summaries


def _persist_trace(out_dir: str, instance: str, trace: RunTrace):
    base = os.path.join(out_dir, "traces", f"{instance}_{trace.algorithm}_s{trace.seed}")
    with open(base + ".csv", "w", encoding="utf-8") as fh:
        fh.write(trace.to_csv(invocation=f"campaign {instance}"))
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(trace.to_json(invocation=f"campaign {instance}"))


def _persist_error(out_dir: str, instance: str, algorithm: str, seed: int, err: Exception):
    base = os.path.join(out_dir, "traces", f"{instance}_{algorithm}_s{seed}.error")
    with open(base, "w", encoding="utf-8") as fh:
        fh.write(f"{type(err).__name__}: {err}\n")


def summary_csv(summaries: list[ExcessSummary], invocation: str = "") -> str:
    """The campaign table; each row with failed cells adds a trailing comment line."""
    cols = ["instance", "algorithm", "rho", "mean_excess", "std_excess",
            "verdict", "finals"]
    lines = [f"# invocation: {invocation}" if invocation else "# invocation: (direct)",
             ",".join(cols)]
    for s in summaries:
        lines.append(",".join([
            s.instance, s.algorithm,
            "" if s.rho is None else repr(s.rho),
            "" if s.mean_excess is None else repr(s.mean_excess),
            "" if s.std_excess is None else repr(s.std_excess),
            s.verdict,
            ";".join(repr(v) for v in s.finals),
        ]))
    lines += [f"# failed: {s.instance} {s.algorithm}: {s.failures} of {len(s.finals)} "
              f"cells, first: {s.first_error}" for s in summaries if s.failures]
    return "\n".join(lines) + "\n"
