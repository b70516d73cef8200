"""Command-line front end: sweep-a, analyze, solve, bench, verify.

Every randomized subcommand takes a seed (default 0) that is echoed into its
output, and every output file starts with the full invocation for provenance.
Exit codes: 0 success, 2 usage/config error, 3 verification failure or a failed
campaign cell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .bench import CampaignSpec, load_instance, run_campaign, summary_csv
from .decomposition import SplitParams, sample_split, sweep_a
from .escape import PenaltyConfig
from .instances import (
    ParseError,
    brute_force_qubo,
    brute_force_tsp,
    flip_delta_and_update,
    make_bitvector,
    qubo_value,
    random_qubo_instance,
    random_tsp_instance,
    tour_cost,
    two_opt_delta,
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
from .search import Budget, descend, is_local_optimum, neighborhood_for, tabu_search

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
    # built first, so that SplitParams reports a bad --seed before rng_stream sees it;
    # q_prime is passed only when given
    given = {} if args.q_prime is None else {"q_prime": args.q_prime}
    shapes = [SplitParams(a=float(tok), seed=args.seed, **given)
              for tok in args.a.split(",") if tok]
    if not shapes:
        raise ValueError("a_values must be nonempty")
    rng = rng_stream(args.seed, "init")
    optima = collect_local_optima(inst, args.optima, rng)
    base_view = neighborhood_for(inst)
    flags = [promising_flags(x, base_view) for x in optima]
    rows = []
    for params in shapes:
        split = sample_split(inst, params)
        view = neighborhood_for(inst, split)
        stats = aggregate_stats([classify_neighbors(x, view, promising=fl)
                                 for x, fl in zip(optima, flags)])
        rows.append({"instance": inst.name, "a": params.a, "rho": split.rho, "stats": stats})
        print(f"a={params.a:+.2f} rho={split.rho:+.4f} P&ND/ND={stats.ratio_pnd_nd:.4%} "
              f"P&D/D={stats.ratio_pd_d:.4%} E[FE] filtered={expected_fe_nds(stats):.3g} "
              f"plain={expected_fe_plain(stats):.3g}", file=sys.stderr)
    _write(args.output, table_csv(rows, invocation=_invocation(args)))
    return 0


# Run settings by `solve`'s flag names, and the split and penalty fields they set.
# A setting left out keeps its dataclass default.
_RUN_SETTINGS = ("algorithm", "seed", "max_fe", "max_wall", "target",
                 "flip_fraction", "neighbor_k", "warmup_fraction")
_SPLIT_SETTINGS = {"a": "a", "q_prime": "q_prime", "split_seed": "seed"}
_PENALTY_SETTINGS = {"penalty_rounds": "rounds", "penalty_edges": "k_edges",
                     "penalty_cost": "c_tilde"}


def _build(cls, flags: dict, settings: dict):
    """cls from the settings flags maps to its fields; an error names the flag.

    Each rule's message starts with its field's name, which this swaps for the flag's.
    """
    try:
        return cls(**{field: settings[name] for name, field in flags.items() if name in settings})
    except ValueError as err:
        field, _, rule = str(err).partition(" ")
        flag = {f: name for name, f in flags.items()}.get(field, field)
        raise ValueError(f"{flag} {rule}") from None


def config_from(settings: dict) -> SolverConfig:
    """The SolverConfig that flat run settings describe; unknown names raise."""
    unknown = set(settings).difference(_RUN_SETTINGS, _SPLIT_SETTINGS, _PENALTY_SETTINGS)
    if unknown:
        raise ValueError(f"unknown setting(s): {', '.join(sorted(unknown))}")
    if "algorithm" not in settings:
        raise ValueError("a run needs an algorithm")
    if "a" not in settings and {"q_prime", "split_seed"} & set(settings):
        raise ValueError("q_prime and split_seed need a split shape a")
    split = _build(SplitParams, _SPLIT_SETTINGS, settings) if "a" in settings else None
    return SolverConfig(**{name: settings[name] for name in _RUN_SETTINGS if name in settings},
                        split=split, penalty=_build(PenaltyConfig, _PENALTY_SETTINGS, settings))


def cmd_solve(args) -> int:
    config = config_from({k: v for k, v in vars(args).items()
                          if k not in ("command", "func", "instance", "output", "_raw")})
    inst = _load(args.instance)
    trace = run(config, inst)
    _write(args.output, trace.to_csv(invocation=_invocation(args)))
    print(f"{config.algorithm} on {inst.name}: best {trace.final_value} "
          f"after {trace.consumed_fe} FEs ({trace.wall_time:.2f}s)", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    with open(args.campaign, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"a campaign file holds one JSON object, got {type(raw).__name__}")
    # max_fe and max_wall apply to every entry; every other key is a CampaignSpec field
    shared = {k: raw.pop(k) for k in ("max_fe", "max_wall") if k in raw}
    spec_fields = fields(CampaignSpec)
    unknown = set(raw).difference(f.name for f in spec_fields)
    if unknown:
        raise ValueError(f"unknown campaign key(s): {', '.join(sorted(unknown))}")
    missing = [f.name for f in spec_fields
               if f.name not in raw and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing campaign key(s): {', '.join(missing)}")
    entries = raw["algorithms"]
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError(f"algorithms must be a list of objects, got {entries!r}")
    algorithms = []
    for entry in entries:
        if "seed" in entry or "target" in entry:
            raise ValueError("a campaign entry takes its seed and target from seeds and targets")
        algorithms.append(config_from({**shared, **entry}))
    if args.out_dir:
        raw["out_dir"] = args.out_dir
    spec = CampaignSpec(**{**raw, "algorithms": algorithms})
    summaries = run_campaign(spec)
    sys.stdout.write(summary_csv(summaries, invocation=_invocation(args)))
    failed = sum(s.failures for s in summaries)
    if failed:
        print(f"error: {failed} campaign cells failed (see the '# failed' lines)",
              file=sys.stderr)
        return VERIFY_ERROR
    return 0


def _promising_by_loop(view, x_star) -> np.ndarray:
    """promising_flags' oracle: build every neighbor and score its moves."""
    f_star = view.value(x_star)
    d = view.deltas(x_star)
    flags = []
    for k in range(view.size):
        cand = view.neighbor(x_star, k, float(d[k]))
        flags.append(bool(np.any(view.deltas(cand) < f_star - view.value(cand))))
    return np.asarray(flags)


def _verify_tsp(n: int, seed: int, split: SplitParams) -> list[str]:
    failures = []
    inst = random_tsp_instance(n, seed)
    best = brute_force_tsp(inst)
    view = neighborhood_for(inst)
    for s in range(5):
        t = view.random_solution(rng_stream(seed + s, "init"))
        if not descend(view, t, Budget()) or not is_local_optimum(view, t):
            failures.append(f"tsp descent not locally optimal (seed {s})")
        if abs(t.cached_cost - tour_cost(inst, t)) > 1e-9 * max(1.0, t.cached_cost):
            failures.append(f"tsp cached cost drifted (seed {s})")
        moves = zip(view.p.tolist(), view.q.tolist())
        if not np.array_equal(view.deltas(t), [two_opt_delta(inst, t, p, q) for p, q in moves]):
            failures.append(f"tsp 2-Opt deltas disagree with two_opt_delta (seed {s})")
        if not np.array_equal(promising_flags(t, view), _promising_by_loop(view, t)):
            failures.append(f"tsp promising flags disagree with the neighbor loop (seed {s})")
    config = SolverConfig(algorithm="ils", seed=seed, max_fe=1e6, target=best)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"ils missed brute-force optimum {best} (got {trace.final_value})")
    config = SolverConfig(algorithm="ils_nds", seed=seed, max_fe=1e6, target=best, split=split)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"ils_nds missed brute-force optimum {best}")
    return failures


def _verify_qubo(n: int, seed: int, split: SplitParams) -> list[str]:
    failures = []
    inst = random_qubo_instance(n, seed, density=0.5)
    best = brute_force_qubo(inst)
    rng = rng_stream(seed, "init")
    bv = make_bitvector(inst, rng.integers(0, 2, size=n).astype(np.float64))
    for _ in range(200):
        flip_delta_and_update(inst, bv, int(rng.integers(n)))
    if abs(bv.cached_value - qubo_value(inst, bv.bits)) > 1e-9 * max(1.0, abs(bv.cached_value)):
        failures.append("qubo cached value drifted after flips")
    # capped as the its runs below: corrupted gains can keep the stop rule from firing
    returned = tabu_search(inst, bv, rng_stream(seed, "tabu"), Budget(max_fe=2e6))
    for label, x in (("returned", returned), ("searched", bv)):
        full = make_bitvector(inst, x.bits)
        if (not np.array_equal(x.twice, 2.0 - 4.0 * x.bits)
                or abs(x.cached_value - full.cached_value) > inst.tol
                or np.abs(x.gains - full.gains).max() > inst.tol):
            failures.append(f"tabu_search left stale caches in its {label} solution")
    config = SolverConfig(algorithm="its", seed=seed, max_fe=2e6, target=best)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"its missed brute-force optimum {best} (got {trace.final_value})")
    config = SolverConfig(algorithm="its_nds", seed=seed, max_fe=2e6, target=best, split=split)
    trace = run(config, inst)
    if trace.final_value != best:
        failures.append(f"its_nds missed brute-force optimum {best} (got {trace.final_value})")
    return failures


def cmd_verify(args) -> int:
    if not 4 <= args.n <= 10:
        raise ValueError("verify brute-forces all tours; --n must be >= 4 and <= 10")
    # SplitParams checks --seed before any rng_stream sees it
    split = SplitParams(a=0.0, seed=args.seed)
    failures = _verify_tsp(args.n, args.seed, split)
    failures += _verify_qubo(min(args.n + 5, 14), args.seed, split)
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
    p.add_argument("--q-prime", dest="q_prime", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="run one solver and emit its trace",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", dest="algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-fe", dest="max_fe", type=float)
    p.add_argument("--max-wall", dest="max_wall", type=float)
    p.add_argument("--target", type=float)
    p.add_argument("--a", type=float, help="split shape (enables NDS/NDE)")
    p.add_argument("--q-prime", dest="q_prime", type=float)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--penalty-rounds", dest="penalty_rounds", type=int)
    p.add_argument("--penalty-edges", dest="penalty_edges", type=int)
    p.add_argument("--penalty-cost", dest="penalty_cost", type=float)
    p.add_argument("--flip-fraction", dest="flip_fraction", type=float)
    p.add_argument("--neighbor-k", dest="neighbor_k", type=int)
    p.add_argument("--warmup-fraction", dest="warmup_fraction", type=float)
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
