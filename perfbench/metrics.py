"""The benchmark's declared workloads, seeds and metrics, as BENCHMARK.json lists them.

END_TO_END holds the metrics the final JSON line carries with `--trace 0`.
fe_per_cal is FE throughput per unit of a benchmark-owned calibration kernel
timed around every run: fe_per_s with the host's speed changes taken out
(NOTES.md). setup_s is likewise set-up time read against a benchmark-owned
kernel and given in the reference host's seconds; setup_cpu_s, its plain
CPU-time twin, is printed but not gated. The other end-to-end numbers
(fe_per_s, ert_s, ert_fe, hit_rate, run_s.p50, run_s.tail, batch_s,
error_rate) are printed and saved but not gated: host speed moves fe_per_s
by up to 1.7x between minutes, and which runs hit the target moves the
others by 15-35% from one workload seed to the next, more than any bound a
short run can hold. ert_s is exactly ert_fe / fe_per_s, so throughput is
ERT's implementation half and the exactly repeating ert_fe its algorithm
half.

PER_LAYER maps each per-layer metric to (unit, better, what it should move):
the end-to-end metric and workload that a change to that layer should move.
Every wrapped span name also reports `.calls` and `.self_s`.
"""

from __future__ import annotations

WORKLOAD_NAMES = ("eil51-ils-escape", "rand100-ilk", "bqp1000-flip", "eil51-landscape")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # never used while a change is written; its claims are re-checked on it

END_TO_END = {
    "setup_s": "s",
    "fe_per_cal": "FE/cal",
    "peak_rss_mb": "MB",
}

_LAYER_DETAIL = {
    "search.lk_search.us_per_fe": (
        "us", "lower", "fe_per_cal, ert_s on rand100-ilk; no change elsewhere"),
    "search.lk_search.plain.s_per_call": ("s", "lower", "fe_per_cal, ert_s on rand100-ilk"),
    "search.lk_search.penalized.s_per_call": ("s", "lower", "fe_per_cal, ert_s on rand100-ilk"),
    "escape.further_exploit.rounds_per_call": ("count", "lower", "ert_fe on rand100-ilk"),
    "escape.further_exploit.s_per_round": ("s", "lower", "fe_per_cal, ert_s on rand100-ilk"),
    "escape.further_exploit.success_ratio": ("ratio", "higher", "ert_fe on rand100-ilk"),
    "escape.add_random_penalty.us_per_call": ("us", "lower", "fe_per_cal on rand100-ilk"),
    "metaheuristics.nde_gate.pass_rate": ("ratio", "lower", "ert_fe on rand100-ilk"),
    "escape.nds.us_per_fe": (
        "us", "lower", "fe_per_cal, ert_s on eil51-ils-escape and bqp1000-flip"),
    "escape.nds.success_ratio": ("ratio", "higher", "ert_fe on eil51-ils-escape"),
    "escape.nds.nd_share": ("ratio", "lower", "ert_fe on eil51-ils-escape and bqp1000-flip"),
    "escape.ens.us_per_fe": ("us", "lower", "fe_per_cal, ert_s on eil51-ils-escape"),
    "escape.ens.success_ratio": ("ratio", "higher", "ert_fe on eil51-ils-escape"),
    "search.first_improvement.charged_ratio": (
        "ratio", "higher", "fe_per_cal on eil51-ils-escape; no change on eil51-landscape"),
    "search.descend.us_per_fe": (
        "us", "lower",
        "fe_per_cal on bqp1000-flip, batch_s on eil51-landscape; small on eil51-ils-escape"),
    "search.tabu_search.us_per_move": ("us", "lower", "fe_per_cal, ert_s on bqp1000-flip only"),
    "instances.flip_delta_and_update.us_per_call": (
        "us", "lower", "fe_per_cal, ert_s on bqp1000-flip only"),
    "search.perturb.us_per_call": ("us", "lower", "fe_per_cal on bqp1000-flip"),
    "search.random_solution.us_per_call": ("us", "lower", "fe_per_cal on bqp1000-flip"),
    "landscape.promising_flags.ns_per_delta": (
        "ns", "lower", "fe_per_cal, run_s.p50 on eil51-landscape"),
    "landscape.collect_local_optima.s_per_optimum": ("s", "lower", "batch_s on eil51-landscape"),
    "landscape.classify_neighbors.ms_per_call": (
        "ms", "lower", "fe_per_cal, run_s.p50 on eil51-landscape"),
    "decomposition.sample_split.s": ("s", "lower", "setup_s, most on bqp1000-flip"),
    "instances.parse_s": ("s", "lower", "setup_s, most on bqp1000-flip"),
    "instances.build_neighbor_lists.ms_per_call": (
        "ms", "lower", "fe_per_cal, run_s.p50 on rand100-ilk"),
    "instances.tour_cost.us_per_call": ("us", "lower", "fe_per_cal, run_s.p50 on rand100-ilk"),
    "metaheuristics.local_optima_per_run": (
        "count", "higher", "ert_fe on every solver workload; flat when the solver loops merge"),
    "trace.overhead_ratio": ("ratio", "lower", "none: the cost of tracing itself"),
}

_SPAN_NAMES = (
    "metaheuristics.run", "search.descend", "escape.nds", "escape.ens",
    "escape.dominated_mask", "escape.further_exploit", "escape.add_random_penalty",
    "metaheuristics.nde_gate", "search.lk_search", "search.tabu_search",
    "search.first_improvement", "search.perturb", "search.random_solution",
    "instances.flip_delta_and_update", "instances.tour_cost", "instances.build_neighbor_lists",
    "instances.parse", "decomposition.sample_split", "landscape.collect_local_optima",
    "landscape.promising_flags", "landscape.classify_neighbors",
)

LAYER_DETAIL = dict(_LAYER_DETAIL)
for _name in _SPAN_NAMES:
    LAYER_DETAIL[f"{_name}.calls"] = ("count", "lower", "work done by this layer")
    LAYER_DETAIL[f"{_name}.self_s"] = (
        "s", "lower",
        "every workload; flat when the solver loops merge" if _name == "metaheuristics.run"
        else "the workloads that call this layer")

PER_LAYER = {name: unit for name, (unit, _, _) in LAYER_DETAIL.items()}
