"""One workload pass loop in its own process; prints one JSON object.

Started by perfbench/run.py with BLAS pinned to one thread and the
checkout's `src` on PYTHONPATH. Untraced, it repeats identical passes until
`--seconds` are used and reports end-to-end metrics from their medians.
Traced, it runs one pass with timing wrappers installed and reports the
per-layer metrics of that pass. Both report every run's signature, so the
caller can check that tracing changed nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, layer_metrics


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def smoke_workload(workload):
    """The same workload at tiny sizes, for the benchmark's own tests."""
    if isinstance(workload, workloads.LandscapeWorkload):
        return replace(workload, optima=2, shapes=workload.shapes[:2])
    return replace(workload, max_fe=min(workload.max_fe, 2e4), runs_per_algorithm=1)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value) of the highest percentile with ten runs beyond it."""
    n = len(values)
    if n <= 10:
        return None, None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(workload, passes: list[dict], setups: tuple[list[float], list[float]]) -> dict:
    """Metrics over identical passes: per-run seconds are medians across passes."""
    runs = len(passes[0]["outcomes"])
    seconds = [statistics.median(p["outcomes"][i].seconds for p in passes) for i in range(runs)]
    # the same runs timed in calibration units: host speed changes cancel out
    units = [statistics.median(p["outcomes"][i].seconds * p["outcomes"][i].calibration
                               for p in passes) for i in range(runs)]
    first = passes[0]["outcomes"]
    fe = sum(o.fe for o in first)
    hits = sum(o.hit for o in first)
    solve_s = sum(seconds)
    pct, tail_s = tail(seconds)
    solver = isinstance(workload, workloads.SolverWorkload)
    m = {
        "setup_s": (statistics.median(setups[1]), "s", len(setups[1])),
        "setup_cpu_s": (statistics.median(setups[0]), "s", len(setups[0])),
        "ert_s": (solve_s / hits if hits else math.inf, "s", hits) if solver else None,
        "ert_fe": (fe / hits if hits else math.inf, "FE", hits) if solver else None,
        "hit_rate": (hits / runs, "ratio", runs) if solver else None,
        "run_s.p50": (statistics.median(seconds), "s", runs),
        "run_s.tail": (tail_s, "s", runs),
        "fe_per_s": (fe / solve_s, "1/s", runs),
        "fe_per_cal": (fe / sum(units), "FE/cal", runs),
        "calibration": (statistics.median(o.calibration for p in passes for o in p["outcomes"]),
                        "cal/s", runs * len(passes)),
        "batch_s": (statistics.median(p["batch_s"] for p in passes), "s", len(passes)),
        "batch_wall_s": (statistics.median(p["wall_s"] for p in passes), "s", len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    report = {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in m.items() if v is not None}
    report["run_s.tail"]["percentile"] = pct
    if solver:  # the paper's comparison: each algorithm's own ERT on the shared seeds
        for alg in workload.algorithms:
            mine = [(o, s) for o, s in zip(first, seconds) if o.label.startswith(alg + "/")]
            alg_hits = sum(o.hit for o, _ in mine)
            for name, total, unit in (("ert_fe", sum(o.fe for o, _ in mine), "FE"),
                                      ("ert_s", sum(s for _, s in mine), "s")):
                report[f"{name}.{alg}"] = {"value": total / alg_hits if alg_hits else math.inf,
                                           "unit": unit, "n": alg_hits}
    else:
        report["collect_s"] = {"value": statistics.median(p["collect_s"] for p in passes),
                               "unit": "s", "n": len(passes)}
    runs = [[o.label, s, o.fe, o.hit] for o, s in zip(first, seconds)]
    return {"end_to_end": report, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_workload(workload)
    source = workload.make_input()
    if args.traced:
        tracer = Tracer()
        with tracer:
            passes = [workloads.run_pass(workload, source, args.seed, tracer)]
        layers = layer_metrics(tracer.spans)
        if args.spans is not None:
            tracer.write_spans(args.spans)
        result = {"layers": layers}
    else:
        setups = workloads.time_setups(workload, source)
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(workloads.run_pass(workload, source, args.seed))
            elapsed = time.perf_counter() - t0
            if elapsed + passes[-1]["wall_s"] > args.seconds:
                break
        result = end_to_end(workload, passes, setups)

    errors, failed = [], 0
    reference = [o.signature for o in passes[0]["outcomes"]]
    for k, p in enumerate(passes):
        for i, o in enumerate(p["outcomes"]):
            errs = list(o.errors)
            if k and o.signature != reference[i]:
                errs.append(f"pass {k} computed a different result than pass 0")
            errors += [f"{o.label}: {e}" for e in errs]
            failed += bool(errs)
    result.update({
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "batch_s": statistics.median(p["batch_s"] for p in passes),
        "attempted": sum(len(p["outcomes"]) for p in passes),
        "failed": failed,
        "errors": errors,
        "signatures": [[o.label, o.signature] for o in passes[0]["outcomes"]],
        "environment": environment(),
    })
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
