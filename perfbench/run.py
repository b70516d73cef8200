"""Time-to-target benchmark of the sumparts solvers, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eil51-ils-escape --seed 1 --seconds 24 --trace 0

Runs the workload in a child process with BLAS pinned to one thread and the
checkout's `src` first on PYTHONPATH, checks every output, prints each metric
with its unit and sample count, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` a second, traced child
reruns one pass, must reproduce every untraced run exactly, and the metrics
are the per-layer ones. Full results, and the spans of a traced pass, go to
`.perfbench/` in the checkout. Exits 1 when any check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
LIMIT_S = 170.0  # every invocation ends within 180 s

sys.path.insert(0, str(HERE))
from metrics import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, WORKLOAD_NAMES)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, deadline: float, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if traced:
        cmd += ["--traced", "--spans", str(OUT / f"spans-{args.workload}-{args.seed}.csv.gz")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; {HELD_OUT_SEED} is held out for checking claims")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sumparts" / "__init__.py").is_file():
        print(f"error: no sumparts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + LIMIT_S
    try:
        plain = launch(args, deadline, traced=False)
        traced = launch(args, deadline, traced=True) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    errors = list(plain["errors"])
    attempted, failed = plain["attempted"], plain["failed"]
    env = plain["environment"]
    print(f"# workload {args.workload}  seed {args.seed}  passes {plain['passes']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"blas_threads {env['blas_threads']}")
    for name, m in plain["end_to_end"].items():
        extra = f", p{m['percentile']:.1f}" if m.get("percentile") is not None else ""
        print(f"{name} = {m['value']!r} {m['unit']} (n={m['n']}{extra})")
    print(f"error_rate = {failed / attempted!r} (n={attempted})")
    report = {"args": vars(args), "untraced": plain}

    if traced is not None:
        errors += [f"traced: {e}" for e in traced["errors"]]
        attempted += traced["attempted"]
        failed += traced["failed"]
        mismatched = [a[0] for a, b in zip(plain["signatures"], traced["signatures"]) if a != b]
        if len(plain["signatures"]) != len(traced["signatures"]):
            mismatched.append("(run count)")
        errors += [f"{label}: traced run differs from untraced run" for label in mismatched]
        failed += len(mismatched)
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["batch_s"] / plain["batch_s"]
        for name in PER_LAYER:
            print(f"{name} = {layers[name]!r} {PER_LAYER[name]}")
        report["traced"] = traced
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        e2e = plain["end_to_end"]
        metrics = {name: {"value": finite(e2e[name]["value"]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
