"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets are desk-scale surrogates of the full-scale experiments; tolerances
are pinned here and nowhere else.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import brute_force_qubo, brute_force_tsp
from sumparts.decomposition import SplitParams, sample_split
from sumparts.escape import PenaltyConfig, ens, nds
from sumparts.instances import (
    load_bundled_tsp,
    parse_orlib_bqp,
    random_qubo_instance,
    random_tsp_instance,
    synthetic_orlib_text,
    tour_cost,
)
from sumparts.landscape import (
    aggregate_stats,
    classify_neighbors,
    collect_local_optima,
    expected_fe_nds,
    expected_fe_plain,
    promising_flags,
)
from sumparts.metaheuristics import SolverConfig, rng_stream, run
from sumparts.search import Budget, TwoOptNeighborhood, descend

A_SWEEP = [-12.0, -3.0, 0.0, 2.0, 10.0]
EIL51_OPT = 426.0


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def eil51_inst():
    return load_bundled_tsp("eil51")


@pytest.fixture(scope="module")
def bqp1000_synth():
    # OR-Library-profile stand-in for bqp1000.1 (n=1000, 10% density,
    # integer weights in [-100, 100]); exercises the sparse parser at scale
    return parse_orlib_bqp(synthetic_orlib_text(1000, seed=1))


def test_criterion_1_sum_preservation(eil51_inst, bqp1000_synth):
    """f1 + f2 == f to 1e-9 relative, 1000 random solutions per instance,
    across the a-sweep."""
    worst = 0.0
    rng = rng_stream(101, "init")
    orders = np.stack([rng.permutation(51) for _ in range(1000)])
    nxt = np.roll(orders, -1, axis=1)
    for a in A_SWEEP:
        split = sample_split(eil51_inst, SplitParams(a=a, seed=11))
        f = eil51_inst.costs[orders, nxt].sum(axis=1)
        f1, f2 = np.array([tour_cost(eil51_inst, order, split) for order in orders]).T
        worst = max(worst, float(np.max(np.abs(f1 + f2 - f) / np.abs(f))))
    z = rng.integers(0, 2, size=(1000, 1000)).astype(np.float64)
    for a in A_SWEEP:
        split = sample_split(bqp1000_synth, SplitParams(a=a, seed=12))
        f = np.einsum("ij,ij->i", z @ bqp1000_synth.q, z)
        f1 = np.einsum("ij,ij->i", z @ split.mat1, z)
        f2 = np.einsum("ij,ij->i", z @ (bqp1000_synth.q - split.mat1), z)
        denom = np.maximum(np.abs(f), 1e-30)
        worst = max(worst, float(np.max(np.abs(f1 + f2 - f) / denom)))
    report(1, worst <= 1e-9, f"max relative sum error {worst:.3e} (<= 1e-9)")


def test_criterion_2_correlation_control(eil51_inst):
    """rho strictly increasing over the a-sweep in >= 9/10 seeds; endpoint
    bounds rho(a=10) >= 0.85 and rho(a=-12) <= -0.45."""
    mono = ends = 0
    for seed in range(10):
        rhos = [sample_split(eil51_inst, SplitParams(a=a, seed=seed)).rho
                for a in A_SWEEP]
        mono += all(x < y for x, y in zip(rhos, rhos[1:]))
        ends += (rhos[-1] >= 0.85 and rhos[0] <= -0.45)
    ok = mono >= 9 and ends >= 9
    report(2, ok, f"strictly increasing in {mono}/10 seeds, endpoint bounds in {ends}/10")


@pytest.fixture(scope="module")
def landscape_rows(eil51_inst):
    """200 eil51 local optima classified under a rho ladder (shared by 3 & 4)."""
    rng = rng_stream(303, "init")
    optima = collect_local_optima(eil51_inst, 200, rng)
    base_view = TwoOptNeighborhood(eil51_inst)
    flags = [promising_flags(t, base_view) for t in optima]
    rows = []
    for a in [-12.0, -5.0, -2.0, 0.0, 2.0, 10.0]:
        split = sample_split(eil51_inst, SplitParams(a=a, seed=5))
        view = TwoOptNeighborhood(eil51_inst, split)
        stats = aggregate_stats([classify_neighbors(t, view, promising=fl)
                                 for t, fl in zip(optima, flags)])
        rows.append((a, split.rho, stats))
    return rows


def test_criterion_3_neighborhood_non_dominance(landscape_rows):
    """At rho in [0.25, 0.40]: P&ND/ND >= 3x P&D/D; ND decreases with rho
    (Spearman < 0, p < 0.05)."""
    band = [(a, rho, s) for a, rho, s in landscape_rows if 0.25 <= rho <= 0.40]
    assert band, "no split with rho in [0.25, 0.40] in the ladder"
    a, rho, stats = band[0]
    factor = stats.ratio_pnd_nd / stats.ratio_pd_d
    rhos = [r for _, r, _ in landscape_rows]
    nds_props = [s.nd for _, _, s in landscape_rows]
    corr, pval = scipy_stats.spearmanr(rhos, nds_props)
    ok = factor >= 3.0 and corr < 0 and pval < 0.05
    report(3, ok,
           f"rho={rho:.4f}: P&ND/ND={stats.ratio_pnd_nd:.4f} vs "
           f"P&D/D={stats.ratio_pd_d:.4f} (x{factor:.1f} >= 3); "
           f"ND~rho Spearman={corr:.3f} (p={pval:.4f})")


def test_criterion_4_expected_fe_dominance(landscape_rows):
    """Filtered escape beats the exhaustive scan in expectation on every row."""
    checked = 0
    ok = True
    details = []
    for a, rho, stats in landscape_rows:
        if stats.p_nd <= 0:
            continue
        checked += 1
        e_nds = expected_fe_nds(stats)
        e_plain = expected_fe_plain(stats)
        details.append(f"rho={rho:+.2f}: {e_nds:.3g} < {e_plain:.3g}")
        ok &= e_nds < e_plain
    report(4, ok and checked > 0, f"{checked} rows; " + "; ".join(details))


def test_criterion_5_tsp_oracle_equivalence():
    """ILS, ILS+ENS, ILS+NDS all reach the brute-force optimum on 20 random
    7-city instances, every seed, within 1e6 FEs."""
    misses = []
    for iseed in range(20):
        inst = random_tsp_instance(7, seed=500 + iseed)
        opt = brute_force_tsp(inst)
        for alg in ("ils", "ils_ens", "ils_nds"):
            for seed in range(3):
                cfg = SolverConfig(
                    algorithm=alg, seed=seed, max_fe=1e6, target=opt,
                    split=SplitParams(a=0.0, seed=1) if alg == "ils_nds" else None)
                trace = run(cfg, inst)
                if trace.final_value != opt:
                    misses.append((iseed, alg, seed))
    report(5, not misses, f"180/180 runs reached the exhaustive optimum"
           if not misses else f"missed: {misses}")


def test_criterion_6_qubo_oracle_equivalence():
    """ITS and ITS+NDS reach the exhaustive optimum (2^20 enumeration) on
    >= 18/20 random n=20 instances within 1e7 FEs."""
    hits = {"its": 0, "its_nds": 0}
    for iseed in range(20):
        inst = random_qubo_instance(20, seed=600 + iseed, density=0.4)
        opt = brute_force_qubo(inst)
        for alg in hits:
            cfg = SolverConfig(
                algorithm=alg, seed=iseed, max_fe=1e7, target=opt,
                split=SplitParams(a=2.0, seed=1) if alg == "its_nds" else None)
            trace = run(cfg, inst)
            hits[alg] += (trace.final_value == opt)
    ok = hits["its"] >= 18 and hits["its_nds"] >= 18
    report(6, ok, f"its {hits['its']}/20, its_nds {hits['its_nds']}/20 (>= 18 each)")


def test_criterion_7_eil51_end_to_end(eil51_inst):
    """ILS+NDS at the strongly negative rho reaches tour cost 426 in >= 8/10
    seeds within 1e8 FEs."""
    split = sample_split(eil51_inst, SplitParams(a=-12.0, seed=0))
    assert split.rho <= -0.45
    hits = 0
    fes = []
    for seed in range(10):
        cfg = SolverConfig(algorithm="ils_nds", seed=seed, max_fe=1e8,
                           target=EIL51_OPT, split=split)
        trace = run(cfg, eil51_inst)
        hits += (trace.final_value == EIL51_OPT)
        fes.append(trace.consumed_fe)
    report(7, hits >= 8,
           f"{hits}/10 seeds reached 426 (rho={split.rho:.4f}, "
           f"median FE {int(np.median(fes)):.2e})")


def test_criterion_8_nds_cheaper_than_ens_on_failures(eil51_inst):
    """On 100 two-hop-dead local optima, the failed filtered scan always
    costs fewer FEs than the failed exhaustive scan."""
    split = sample_split(eil51_inst, SplitParams(a=2.0, seed=5))
    view = TwoOptNeighborhood(eil51_inst, split)
    rng = rng_stream(808, "init")
    harvested = []
    while len(harvested) < 100:
        t = view.random_solution(rng)
        descend(view, t, Budget())
        # drive to a two-hop-dead optimum: re-descend whenever the
        # exhaustive escape still finds an improvement
        while True:
            out = ens(t, view, Budget())
            if out is t:
                break
            t = out
            descend(view, t, Budget())
        harvested.append(t)
    wins = 0
    for t in harvested:
        b_nds, b_ens = Budget(), Budget()
        r1 = nds(t, view, b_nds)
        r2 = ens(t, view, b_ens)
        assert r1 is t and r2 is t  # both fail by construction
        wins += (b_nds.consumed_fe < b_ens.consumed_fe)
    report(8, wins == 100, f"filtered scan cheaper in {wins}/100 failed attempts")


def test_criterion_9_ilk_nde_ordering():
    """Equal wall-time runs on a random 100-city instance: median final cost
    of ILK+NDE <= ILK over 20 paired seeds (ILK+E reported alongside)."""
    inst = random_tsp_instance(100, seed=900)
    wall = 1.2
    split = sample_split(inst, SplitParams(a=2.0, seed=9))
    finals = {"ilk": [], "ilk_e": [], "ilk_nde": []}
    for seed in range(20):
        for alg in finals:
            cfg = SolverConfig(algorithm=alg, seed=seed, max_wall=wall,
                               split=split if alg == "ilk_nde" else None,
                               penalty=PenaltyConfig(rounds=1000, k_edges=5),
                               warmup_fraction=0.2 if alg != "ilk" else 0.0)
            finals[alg].append(run(cfg, inst).final_value)
    med = {alg: float(np.median(v)) for alg, v in finals.items()}
    ok = med["ilk_nde"] <= med["ilk"]
    report(9, ok, f"median finals: ilk={med['ilk']:.0f} ilk_e={med['ilk_e']:.0f} "
                  f"ilk_nde={med['ilk_nde']:.0f} (nde <= ilk required)")


def test_criterion_10_deterministic_traces(eil51_inst):
    """Identical seeded invocations produce byte-identical trace CSVs."""
    configs = [
        SolverConfig(algorithm="ils_nds", seed=4, max_fe=3e5, target=EIL51_OPT,
                     split=SplitParams(a=2.0, seed=5)),
        SolverConfig(algorithm="ilk_nde", seed=4, max_fe=2e5,
                     split=SplitParams(a=2.0, seed=5),
                     penalty=PenaltyConfig(rounds=5, k_edges=5)),
    ]
    ok = True
    for cfg in configs:
        csv1 = run(cfg, eil51_inst).to_csv(invocation="repeat-check")
        csv2 = run(cfg, eil51_inst).to_csv(invocation="repeat-check")
        ok &= (csv1 == csv2)
    qubo = random_qubo_instance(80, seed=77, density=0.2)
    qcfg = SolverConfig(algorithm="its_nds", seed=6, max_fe=1e5,
                        split=SplitParams(a=0.0, seed=3))
    ok &= (run(qcfg, qubo).to_csv() == run(qcfg, qubo).to_csv())
    report(10, ok, "byte-identical traces for ils_nds, ilk_nde, its_nds repeats")
