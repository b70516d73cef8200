"""Command-line front end: decompose, sweep-a, analyze, solve, bench, verify.

Every randomized subcommand takes a seed (default 0) that is echoed into its
output, and every output file starts with the full invocation for provenance.
Exit codes: 0 success, 2 usage/config error, 3 verification failure or a failed
campaign cell.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .bench import CampaignSpec, excess, load_instance, run_campaign, summary_csv
from .decomposition import SplitParams, sample_split, split_to_json, sweep_a
from .escape import PenaltyConfig, ens, nds
from .instances import (
    ParseError,
    QuboInstance,
    TspInstance,
    make_bitvector,
    make_tour,
    qubo_value,
    random_qubo_instance,
    random_tsp_instance,
    tour_cost,
)
from .landscape import (
    aggregate_stats,
    classify_neighbors,
    collect_local_optima,
    expected_fe_nds,
    expected_fe_plain,
    promising_flags,
    table_csv,
)
from .metaheuristics import ALGORITHMS, SolverConfig, rng_stream, run
from .search import Budget, descend, is_local_optimum, neighborhood_for, unlimited

USAGE_ERROR = 2
VERIFY_ERROR = 3


def _invocation(args: argparse.Namespace) -> str:
    return " ".join(["sumparts"] + args._raw[1:]) + f" (version {__version__})"


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(path: str):
    name = os.path.splitext(os.path.basename(path))[0]
    return load_instance(name, path)


def cmd_decompose(args) -> int:
    inst = _load(args.instance)
    split = sample_split(inst, SplitParams(a=args.a, q_prime=args.q_prime, seed=args.seed))
    payload = json.loads(split_to_json(split))
    payload["invocation"] = _invocation(args)
    _write(args.output, json.dumps(payload) + "\n")
    print(f"decomposed {inst.name}: a={args.a} seed={args.seed} rho={split.rho:.4f}",
          file=sys.stderr)
    return 0


def cmd_sweep_a(args) -> int:
    inst = _load(args.instance)
    a_values = [float(tok) for tok in args.a.split(",") if tok]
    rows = sweep_a(inst, a_values, seed=args.seed)
    lines = [f"# invocation: {_invocation(args)}", f"# seed: {args.seed}", "a,rho"]
    lines += [f"{float(a)!r},{float(rho)!r}" for a, rho in rows]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_analyze(args) -> int:
    inst = _load(args.instance)
    a_values = [float(tok) for tok in args.a.split(",") if tok]
    rng = rng_stream(args.seed, "init")
    optima = collect_local_optima(inst, args.optima, rng)
    base_view = neighborhood_for(inst)
    flags = [promising_flags(x, base_view) for x in optima]
    rows = []
    for a in a_values:
        split = sample_split(inst, SplitParams(a=a, q_prime=args.q_prime, seed=args.seed))
        view = neighborhood_for(inst, split)
        stats = aggregate_stats([classify_neighbors(x, view, promising=fl)
                                 for x, fl in zip(optima, flags)])
        rows.append({"instance": inst.name, "a": a, "rho": split.rho, "stats": stats})
        print(f"a={a:+.2f} rho={split.rho:+.4f} P&ND/ND={stats.ratio_pnd_nd:.4%} "
              f"P&D/D={stats.ratio_pd_d:.4%} E[FE] filtered={expected_fe_nds(stats):.3g} "
              f"plain={expected_fe_plain(stats):.3g}", file=sys.stderr)
    _write(args.output, table_csv(rows, invocation=_invocation(args)))
    return 0


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    split_params = None
    if args.a is not None:
        split_params = SplitParams(a=args.a, q_prime=args.q_prime, seed=args.split_seed)
    penalty = PenaltyConfig(rounds=args.penalty_rounds, k_edges=args.penalty_edges,
                            c_tilde=args.penalty_cost)
    config = SolverConfig(algorithm=args.alg, seed=args.seed,
                          max_fe=args.max_fe, max_wall=args.max_wall,
                          target=args.target, split_params=split_params,
                          penalty=penalty, flip_fraction=args.flip_fraction,
                          neighbor_k=args.neighbor_k,
                          warmup_fraction=args.warmup_fraction)
    trace = run(config, inst)
    _write(args.output, trace.to_csv(invocation=_invocation(args)))
    print(f"{args.alg} on {inst.name}: best {trace.final_value} "
          f"after {trace.consumed_fe} FEs ({trace.wall_time:.2f}s)", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    with open(args.campaign, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    algorithms = []
    for entry in raw["algorithms"]:
        split_params = None
        if "a" in entry:
            split_params = SplitParams(a=entry["a"], q_prime=entry.get("q_prime", 100.0),
                                       seed=entry.get("split_seed", 0))
        penalty = PenaltyConfig(rounds=entry.get("penalty_rounds", 1000),
                                k_edges=entry.get("penalty_edges", 5),
                                c_tilde=entry.get("penalty_cost"))
        algorithms.append(SolverConfig(
            algorithm=entry["algorithm"],
            max_fe=entry.get("max_fe", raw.get("max_fe")),
            max_wall=entry.get("max_wall", raw.get("max_wall")),
            split_params=split_params, penalty=penalty,
            flip_fraction=entry.get("flip_fraction", 0.25),
            neighbor_k=entry.get("neighbor_k", 20),
            warmup_fraction=entry.get("warmup_fraction", 0.0)))
    spec = CampaignSpec(instances=raw["instances"], algorithms=algorithms,
                        seeds=raw["seeds"], targets=raw.get("targets", {}),
                        out_dir=args.out_dir or raw.get("out_dir"),
                        reference_algorithm=raw.get("reference_algorithm"))
    summaries = run_campaign(spec)
    sys.stdout.write(summary_csv(summaries, invocation=_invocation(args)))
    failed = sum(s.failures for s in summaries)
    if failed:
        print(f"error: {failed} campaign cells failed (see the '# failed' lines)",
              file=sys.stderr)
        return VERIFY_ERROR
    return 0


def _verify_tsp(n: int, seed: int) -> list[str]:
    failures = []
    inst = random_tsp_instance(n, seed)
    best = None
    for perm in itertools.permutations(range(1, n)):
        cost = tour_cost(inst, np.asarray((0,) + perm))
        best = cost if best is None or cost < best else best
    view = neighborhood_for(inst)
    for s in range(5):
        t = view.random_solution(rng_stream(seed + s, "init"))
        if not descend(view, t, unlimited()) or not is_local_optimum(view, t):
            failures.append(f"tsp descent not locally optimal (seed {s})")
        if abs(t.cached_cost - tour_cost(inst, t)) > 1e-9 * max(1.0, t.cached_cost):
            failures.append(f"tsp cached cost drifted (seed {s})")
    config = SolverConfig(algorithm="ils", seed=seed, max_fe=1e6, target=best)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"ils missed brute-force optimum {best} (got {trace.final_value})")
    split_params = SplitParams(a=0.0, seed=seed)
    config = SolverConfig(algorithm="ils_nds", seed=seed, max_fe=1e6, target=best,
                          split_params=split_params)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"ils_nds missed brute-force optimum {best}")
    return failures


def _verify_qubo(n: int, seed: int) -> list[str]:
    failures = []
    inst = random_qubo_instance(n, seed, density=0.5)
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    values = np.einsum("ij,jk,ik->i", bits, inst.q, bits)
    best = float(values.max())
    rng = rng_stream(seed, "init")
    bv = make_bitvector(inst, rng.integers(0, 2, size=n).astype(np.float64))
    for _ in range(200):
        i = int(rng.integers(n))
        from .instances import flip_delta_and_update

        flip_delta_and_update(inst, bv, i)
    if abs(bv.cached_value - qubo_value(inst, bv.bits)) > 1e-9 * max(1.0, abs(bv.cached_value)):
        failures.append("qubo cached value drifted after flips")
    config = SolverConfig(algorithm="its", seed=seed, max_fe=2e6, target=best)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"its missed brute-force optimum {best} (got {trace.final_value})")
    return failures


def cmd_verify(args) -> int:
    if args.n > 10:
        print("verify brute-forces all tours; --n must be <= 10", file=sys.stderr)
        return USAGE_ERROR
    failures = _verify_tsp(args.n, args.seed)
    failures += _verify_qubo(min(args.n + 5, 14), args.seed)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return VERIFY_ERROR
    print(f"verify: all oracle checks passed (n={args.n}, seed={args.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumparts",
        description="Objective-decomposition metaheuristics for TSP and UBQP.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="sample a split and write its sidecar")
    p.add_argument("--instance", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--q-prime", dest="q_prime", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sweep-a", help="measure rho across shape values")
    p.add_argument("--instance", required=True)
    p.add_argument("--a", required=True, help="comma-separated shape values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_sweep_a)

    p = sub.add_parser("analyze", help="neighborhood classification table")
    p.add_argument("--instance", required=True)
    p.add_argument("--a", required=True, help="comma-separated shape values")
    p.add_argument("--optima", type=int, default=100)
    p.add_argument("--q-prime", dest="q_prime", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="run one solver and emit its trace")
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-fe", dest="max_fe", type=float, default=None)
    p.add_argument("--max-wall", dest="max_wall", type=float, default=None)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--a", type=float, default=None, help="split shape (enables NDS/NDE)")
    p.add_argument("--q-prime", dest="q_prime", type=float, default=100.0)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.add_argument("--penalty-rounds", dest="penalty_rounds", type=int, default=1000)
    p.add_argument("--penalty-edges", dest="penalty_edges", type=int, default=5)
    p.add_argument("--penalty-cost", dest="penalty_cost", type=float, default=None)
    p.add_argument("--flip-fraction", dest="flip_fraction", type=float, default=0.25)
    p.add_argument("--neighbor-k", dest="neighbor_k", type=int, default=20)
    p.add_argument("--warmup-fraction", dest="warmup_fraction", type=float, default=0.0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a campaign file")
    p.add_argument("--campaign", required=True, help="JSON campaign spec")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="brute-force oracle suite on tiny instances")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_verify)
    return parser


_NUMERIC_FLAGS = {"--a", "--target", "--penalty-cost"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-12,0,10" for option strings
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NUMERIC_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    args._raw = ["sumparts"] + argv
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
