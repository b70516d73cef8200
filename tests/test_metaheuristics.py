import hashlib
import inspect

import numpy as np
import pytest

import sumparts.metaheuristics as mh
from conftest import brute_force_qubo, brute_force_tsp, half_split
from sumparts.decomposition import SplitParams, sample_split
from sumparts.escape import PenaltyConfig, two_hop_blocks
from sumparts.instances import (
    load_bundled_tsp,
    parse_orlib_bqp,
    random_qubo_instance,
    random_tsp_instance,
    synthetic_orlib_text,
)
from sumparts.metaheuristics import SolverConfig, run
from sumparts.search import _two_opt_index


def monotone(events, sense_min=True):
    vals = [v for _, v in events]
    pairs = zip(vals, vals[1:])
    return all(b <= a for a, b in pairs) if sense_min else all(b >= a for a, b in pairs)


def strictly_ordered_fe(events):
    fes = [fe for fe, _ in events]
    return all(b > a for a, b in zip(fes, fes[1:]))


class TestIls:
    def test_zero_budget_initial_point_only(self):
        inst = random_tsp_instance(10, seed=0)
        trace = run(SolverConfig(algorithm="ils", seed=1, max_fe=0), inst)
        assert len(trace.events) == 1
        assert trace.final_value == trace.events[0][1]

    def test_six_city_optimum_20_of_20(self):
        inst = random_tsp_instance(6, seed=4)
        opt = brute_force_tsp(inst)
        for seed in range(20):
            trace = run(SolverConfig(algorithm="ils", seed=seed, max_fe=1e5, target=opt), inst)
            assert trace.final_value == opt

    def test_trace_monotone_and_ordered(self):
        inst = random_tsp_instance(25, seed=2)
        trace = run(SolverConfig(algorithm="ils", seed=3, max_fe=5e4), inst)
        assert monotone(trace.events)
        assert strictly_ordered_fe(trace.events)

    def test_budget_overshoot_at_most_one_scan(self):
        inst = random_tsp_instance(30, seed=1)
        max_fe = 10_000
        trace = run(SolverConfig(algorithm="ils", seed=5, max_fe=max_fe), inst)
        assert trace.consumed_fe <= max_fe + 30 * 27 // 2


class TestIlsNds:
    def test_degenerate_split_behaves_exactly_like_ils(self):
        # c1 = c2 = c/2: every neighbor of a strict local optimum is dominated,
        # the escape never fires, and the incumbent sequence matches plain ILS
        inst = random_tsp_instance(12, seed=6)
        split = half_split(inst)
        t_ils = run(SolverConfig(algorithm="ils", seed=9, max_fe=3e4), inst)
        t_nds = run(SolverConfig(algorithm="ils_nds", seed=9, max_fe=3e4, split=split), inst)
        vals_ils = sorted({v for _, v in t_ils.events}, reverse=True)
        vals_nds = sorted({v for _, v in t_nds.events}, reverse=True)
        # NDS scans consume budget, so the plain run sees at least as many incumbents
        assert vals_nds == vals_ils[: len(vals_nds)] or vals_ils == vals_nds[: len(vals_ils)]
        assert t_nds.consumed_fe >= t_ils.consumed_fe or t_nds.events == t_ils.events

    def test_seven_city_optimum_with_split(self):
        inst = random_tsp_instance(7, seed=3)
        opt = brute_force_tsp(inst)
        cfg = SolverConfig(algorithm="ils_nds", seed=0, max_fe=1e6, target=opt,
                           split=SplitParams(a=0.0, seed=1))
        trace = run(cfg, inst)
        assert trace.final_value == opt
        assert monotone(trace.events)

    def test_requires_split(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="ils_nds", seed=0, max_fe=100)

    def test_rho_echoed_in_trace(self):
        inst = random_tsp_instance(10, seed=2)
        cfg = SolverConfig(algorithm="ils_nds", seed=1, max_fe=2e4,
                           split=SplitParams(a=2.0, seed=5))
        trace = run(cfg, inst)
        assert trace.rho is not None


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"flip_fraction": 0.0}, {"flip_fraction": -3.0}, {"flip_fraction": 1.5},
        {"warmup_fraction": 2.0}, {"warmup_fraction": -0.1}, {"neighbor_k": 1},
        {"seed": -1}, {"max_fe": -5.0}, {"max_wall": -1.0}, {"max_fe": float("inf")},
        {"target": float("inf")}, {"target": float("-inf")},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(algorithm="ilk_e", **kwargs)

    def test_range_ends_accepted(self):
        SolverConfig(algorithm="ilk_e", flip_fraction=1.0, warmup_fraction=1.0, neighbor_k=2)
        SolverConfig(algorithm="ilk_e", warmup_fraction=0.0, seed=0, max_fe=0, max_wall=0)
        SolverConfig(algorithm="ilk_e", max_wall=float("inf"), split=SplitParams(a=float("inf")))

    @pytest.mark.parametrize("cls, name, value", [
        (SolverConfig, "max_fe", "1e4"), (SolverConfig, "max_wall", True),
        (SolverConfig, "target", [426]), (SolverConfig, "seed", 1.0),
        (SolverConfig, "neighbor_k", 8.0), (SolverConfig, "flip_fraction", "0.3"),
        (SolverConfig, "warmup_fraction", "0.1"), (SplitParams, "a", "x"),
        (SplitParams, "q_prime", "1"), (SplitParams, "seed", 1.5),
        (PenaltyConfig, "rounds", "5"), (PenaltyConfig, "k_edges", 3.0),
        (PenaltyConfig, "c_tilde", "9.5"), (SolverConfig, "max_fe", float("nan")),
        (SolverConfig, "max_wall", float("nan")), (SolverConfig, "target", float("nan")),
        (SplitParams, "a", float("nan")), (SplitParams, "q_prime", float("nan")),
        (PenaltyConfig, "c_tilde", float("nan")), (SplitParams, "a", float("-inf")),
        (SplitParams, "q_prime", float("inf")),
    ], ids=["max_fe", "max_wall", "target", "seed", "neighbor_k", "flip_fraction",
            "warmup_fraction", "split-a", "split-q_prime", "split-seed", "penalty-rounds",
            "penalty-k_edges", "penalty-c_tilde", "max_fe-nan", "max_wall-nan", "target-nan",
            "split-a-nan", "split-q_prime-nan", "penalty-c_tilde-nan", "split-a-negative-inf",
            "split-q_prime-inf"])
    def test_wrong_type_rejected(self, cls, name, value):
        required = {SolverConfig: {"algorithm": "ilk_e"}, SplitParams: {"a": 2.0},
                    PenaltyConfig: {}}[cls]
        with pytest.raises(ValueError, match=name):
            cls(**{**required, name: value})

    def test_numpy_scalars_accepted(self):
        SolverConfig(algorithm="ilk_e", seed=np.int64(3), neighbor_k=np.int32(8),
                     max_fe=np.float64(1e4), max_wall=2, target=np.int64(426))

    def test_split_of_another_instance_rejected(self, eil51):
        for other in (random_tsp_instance(60, seed=1), random_tsp_instance(51, seed=1)):
            split = sample_split(other, SplitParams(a=2.0))
            with pytest.raises(ValueError, match="split was drawn for"):
                run(SolverConfig("ils_nds", split=split, max_fe=2e4), eil51)
        # an equal copy of the instance fits
        split = sample_split(load_bundled_tsp("eil51"), SplitParams(a=2.0))
        assert run(SolverConfig("ils_nds", split=split, max_fe=2e4), eil51).rho == split.rho


class TestIlsEns:
    def test_zero_budget(self):
        inst = random_tsp_instance(10, seed=1)
        trace = run(SolverConfig(algorithm="ils_ens", seed=0, max_fe=0), inst)
        assert len(trace.events) == 1

    def test_escape_cost_at_least_nds(self):
        # paired on the same seed, the unfiltered escape pays at least as many
        # FEs per attempt; observable as total FE to reach the same target
        inst = random_tsp_instance(9, seed=8)
        opt = brute_force_tsp(inst)
        cfg_common = dict(seed=4, max_fe=1e6, target=opt,
                          split=SplitParams(a=0.0, seed=2))
        t_nds = run(SolverConfig(algorithm="ils_nds", **cfg_common), inst)
        t_ens = run(SolverConfig(algorithm="ils_ens", **cfg_common), inst)
        assert t_nds.final_value == opt and t_ens.final_value == opt


class TestIts:
    def test_optimum_18_of_20_seeds(self):
        inst = random_qubo_instance(20, seed=21, density=0.4)
        opt = brute_force_qubo(inst)
        hits = 0
        for seed in range(20):
            trace = run(SolverConfig(algorithm="its", seed=seed, max_fe=1e6, target=opt), inst)
            hits += (trace.final_value == opt)
        assert hits >= 18

    def test_trace_monotone_ascending(self):
        inst = random_qubo_instance(60, seed=2, density=0.2)
        trace = run(SolverConfig(algorithm="its", seed=7, max_fe=2e5), inst)
        assert monotone(trace.events, sense_min=False)
        assert strictly_ordered_fe(trace.events)

    def test_its_nds_mirrors(self):
        inst = random_qubo_instance(20, seed=22, density=0.4)
        opt = brute_force_qubo(inst)
        hits = 0
        for seed in range(10):
            cfg = SolverConfig(algorithm="its_nds", seed=seed, max_fe=1e6, target=opt,
                               split=SplitParams(a=2.0, seed=1))
            trace = run(cfg, inst)
            assert monotone(trace.events, sense_min=False)
            hits += (trace.final_value == opt)
        assert hits >= 8

    def test_wrong_domain_rejected(self):
        inst = random_tsp_instance(10, seed=0)
        with pytest.raises(ValueError):
            run(SolverConfig(algorithm="its", seed=0, max_fe=10), inst)

    @pytest.mark.parametrize("step", [
        lambda inst: mh.check_fits(SolverConfig(algorithm="ils"), inst), mh.neighborhood_for,
    ], ids=["check_fits", "neighborhood_for"])
    def test_unsupported_instance_type_rejected(self, step):
        with pytest.raises(TypeError, match="unsupported instance type: list"):
            step([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n, flip_fraction", [(50, 0.01), (2, 0.25), (1, 0.25)])
    def test_kick_that_flips_no_bit_rejected(self, monkeypatch, n, flip_fraction):
        # round(0.5) == 0, so these kicks would return the same bits every time
        monkeypatch.setattr(mh, "neighborhood_for", lambda *args: pytest.fail("a run started"))
        inst = random_qubo_instance(n, seed=3, density=0.5)
        cfg = SolverConfig(algorithm="its", seed=0, max_fe=1e3, flip_fraction=flip_fraction)
        with pytest.raises(ValueError, match="kicks no bit"):
            run(cfg, inst)

    def test_smallest_kick_accepted(self):
        inst = random_qubo_instance(50, seed=3, density=0.5)
        trace = run(SolverConfig(algorithm="its", seed=0, max_fe=1e3, flip_fraction=0.02), inst)
        assert trace.consumed_fe >= 1


class TestIlk:
    def test_ten_city_optimum_8_of_10(self):
        inst = random_tsp_instance(10, seed=3)
        opt = brute_force_tsp(inst)
        hits = 0
        for seed in range(10):
            cfg = SolverConfig(algorithm="ilk", seed=seed, max_fe=2e5, target=opt,
                               neighbor_k=9)
            hits += (run(cfg, inst).final_value == opt)
        assert hits >= 8

    def test_monotone_and_candidate_subgraph_optimal(self):
        inst = random_tsp_instance(30, seed=7)
        cfg = SolverConfig(algorithm="ilk", seed=2, max_fe=2e5, neighbor_k=10)
        trace = run(cfg, inst)
        assert monotone(trace.events)
        # the final tour of the run equals the best LK output seen: it must
        # admit no improving level-1 chain move (same oracle as lk_search)
        from sumparts.instances import build_neighbor_lists

        nl = build_neighbor_lists(inst, 10)
        order = trace.final_best
        n = inst.n
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        C = inst.costs

        def succ(c):
            return int(order[(pos[c] + 1) % n])

        def pred(c):
            return int(order[pos[c] - 1])

        for base in range(n):
            for forward in (True, False):
                e = succ(base) if forward else pred(base)
                for t3 in nl[e]:
                    t3 = int(t3)
                    if C[e, t3] >= C[base, e]:
                        break
                    if t3 in (base, succ(e), pred(e)):
                        continue
                    t4 = pred(t3) if forward else succ(t3)
                    if t4 in (base, e):
                        continue
                    assert C[e, t3] + C[t4, base] - C[base, e] - C[t4, t3] >= 0.0


class TestIlkExploitVariants:
    def _count_exploits(self, monkeypatch, algorithm, inst, seed, split=None):
        calls = []
        real = mh.further_exploit

        def spy(x_star, inst_, neighbors, cfg, budget=None, rng=None):
            calls.append(x_star.cached_cost)
            return real(x_star, inst_, neighbors, cfg, budget, rng)

        monkeypatch.setattr(mh, "further_exploit", spy)
        cfg = SolverConfig(algorithm=algorithm, seed=seed, max_fe=1.5e5,
                           neighbor_k=9, split=split,
                           penalty=PenaltyConfig(rounds=3, k_edges=3))
        trace = run(cfg, inst)
        return trace, calls

    def test_ilk_e_exploits_every_optimum(self, monkeypatch):
        inst = random_tsp_instance(15, seed=5)
        trace, calls = self._count_exploits(monkeypatch, "ilk_e", inst, seed=1)
        assert len(calls) >= 1
        assert monotone(trace.events)

    def test_ilk_nde_gate_subset_of_ilk_e(self, monkeypatch):
        inst = random_tsp_instance(15, seed=5)
        _, calls_e = self._count_exploits(monkeypatch, "ilk_e", inst, seed=3)
        _, calls_nde = self._count_exploits(monkeypatch, "ilk_nde", inst, seed=3,
                                            split=SplitParams(a=2.0, seed=1))
        assert len(calls_nde) <= len(calls_e)

    def test_ilk_nde_first_iteration_gate_passes(self, monkeypatch):
        # x_0 == x_best: equal objective vectors are mutually non-dominated,
        # so the very first iteration must attempt an exploit
        inst = random_tsp_instance(15, seed=9)
        trace, calls = self._count_exploits(monkeypatch, "ilk_nde", inst, seed=2,
                                            split=SplitParams(a=0.0, seed=1))
        assert len(calls) >= 1
        first_lk_value = None
        for _, v in trace.events:
            first_lk_value = v
            break
        assert calls[0] <= trace.events[0][1]  # exploit starts at the first LK optimum

    def test_ilk_nde_gate_holds_at_every_exploit(self, monkeypatch):
        # instrument the driver's own gate: every exploit call must follow a
        # gate evaluation saying the incumbent does not dominate the optimum
        inst = random_tsp_instance(15, seed=11)
        split = sample_split(inst, SplitParams(a=2.0, seed=4))
        gate_results = []
        real_mask = mh.dominated_mask
        real_exploit = mh.further_exploit

        def mask_spy(sense, d1, d2):
            out = real_mask(sense, d1, d2)
            gate_results.append(bool(out[0]))
            return out

        exploit_count = 0

        def exploit_spy(x_star, inst_, neighbors, cfg, budget=None, rng=None):
            nonlocal exploit_count
            exploit_count += 1
            assert gate_results and gate_results[-1] is False
            return real_exploit(x_star, inst_, neighbors, cfg, budget, rng)

        monkeypatch.setattr(mh, "dominated_mask", mask_spy)
        monkeypatch.setattr(mh, "further_exploit", exploit_spy)
        cfg = SolverConfig(algorithm="ilk_nde", seed=6, max_fe=1.5e5, neighbor_k=9,
                           split=split, penalty=PenaltyConfig(rounds=2, k_edges=3))
        run(cfg, inst)
        assert exploit_count >= 1
        assert len(gate_results) >= exploit_count

    def test_nde_median_not_worse_than_ilk_on_10_city(self):
        inst = random_tsp_instance(10, seed=3)
        finals_ilk, finals_nde = [], []
        for seed in range(20):
            base = dict(seed=seed, max_fe=4e4, neighbor_k=9)
            finals_ilk.append(run(SolverConfig(algorithm="ilk", **base), inst).final_value)
            cfg = SolverConfig(algorithm="ilk_nde", split=SplitParams(a=2.0, seed=1),
                               penalty=PenaltyConfig(rounds=5, k_edges=3), **base)
            finals_nde.append(run(cfg, inst).final_value)
        assert np.median(finals_nde) <= np.median(finals_ilk)


class TestDeterminism:
    @pytest.mark.parametrize("alg,kwargs", [
        ("ils", {}),
        ("ils_nds", {"split": SplitParams(a=2.0, seed=3)}),
        ("ilk_nde", {"split": SplitParams(a=2.0, seed=3),
                     "penalty": PenaltyConfig(rounds=3, k_edges=3), "neighbor_k": 9}),
    ])
    def test_identical_seed_identical_trace(self, alg, kwargs):
        inst = random_tsp_instance(12, seed=1)
        cfg = SolverConfig(algorithm=alg, seed=11, max_fe=3e4, **kwargs)
        t1 = run(cfg, inst)
        t2 = run(cfg, inst)
        assert t1.events == t2.events
        assert t1.to_csv() == t2.to_csv()
        assert np.array_equal(t1.final_best, t2.final_best)

    def test_qubo_determinism(self):
        inst = random_qubo_instance(40, seed=4, density=0.25)
        cfg = SolverConfig(algorithm="its_nds", seed=5, max_fe=5e4,
                           split=SplitParams(a=0.0, seed=2))
        assert run(cfg, inst).to_csv() == run(cfg, inst).to_csv()


# sha256 of run(cfg, inst).to_csv() at seed 1, recorded before the ILS, ITS
# and ILK driver families were merged into one loop. The ilk and ilk_e rows
# with a split were re-pinned when those algorithms stopped charging 1 FE
# per new best for the (f1, f2) pair that only ilk_nde reads; only their FE
# counts moved. Rows are (algorithm,
# max_fe, warmup_fraction, with split, target, digest). Caps 0 stop before
# the loop; the others stop mid-descent, mid-nds (ils_nds 123457 and 400003),
# mid-ens (ils_ens 123457), mid-tabu (its*), mid-LK (ilk*; ilk_e and ilk_nde
# at 89034, ilk_e at 62025 with warmup, ilk_nde at 137050 with warmup) or
# mid-exploit (the other ilk_e and ilk_nde rows), and a target ends four runs.
# On tsp25 an exploit result becomes the new best without warmup.
# The tsp200 and bqp1000 rows pin two-hop scans that span several O(n)
# kernel chunks (BLOCK_DELTAS // n = 81 columns at n = 200) or flip blocks
# (16 rows at n = 1000). At 2e7 ils_nds and ils_ens stop in their first
# escape; at 6e7 ils_nds stops in its third NDS after two successes and
# ils_ens still in its first ENS. its_nds stops in the third block of its
# first NDS at 28500007, and by 3e7 it has failed that whole NDS and run
# more tabu. These digests were recorded before the scans were chunked by
# survivors.
_PINNED_INSTANCES = {
    "eil51": lambda: load_bundled_tsp("eil51"),
    "tsp40": lambda: random_tsp_instance(40, seed=3),
    "tsp25": lambda: random_tsp_instance(25, seed=0),
    "qubo150": lambda: random_qubo_instance(150, seed=2, density=0.1),
    "tsp200": lambda: random_tsp_instance(200, seed=900),
    "bqp1000": lambda: parse_orlib_bqp(synthetic_orlib_text(1000, seed=1)),
}
_PINNED_SPLITS = {
    "eil51": SplitParams(a=-12.0, seed=0),
    "tsp40": SplitParams(a=2.0, seed=9),
    "tsp25": SplitParams(a=2.0, seed=9),
    "qubo150": SplitParams(a=0.0, seed=1),
    "tsp200": SplitParams(a=-12.0, seed=1),
    "bqp1000": SplitParams(a=0.0, seed=1),
}
_PINNED_TRACES = {
    "eil51": [
        ("ils", 0, 0.0, True, None, "1cddd6f5053b8eb09a5ba9ee66573a57020a2321377eac28f4bb41857c2f3e84"),
        ("ils", 20011, 0.0, True, None, "8a08e38b4ba3334418e50b00003ed7590d1b3a5cf019901ab0100a038f4527fc"),
        ("ils", 123457, 0.0, True, None, "585840599306709b81b27544a035ac1bd3b61d66026d4b0b492a18dcd1ab587e"),
        ("ils", 400003, 0.0, True, None, "730c40593707813290dd8da18ae7af0f70ee825ead1040fab446b2ba68f5e71a"),
        ("ils_nds", 0, 0.0, True, None, "d634e83c799b1c71ec9b06e15c07ef28568d4c92c2fd238da790a0c6461d7f66"),
        ("ils_nds", 20011, 0.0, True, None, "84dafc87e0810273992c37e2ed3e288cd0415a03746527e58f8e74da4d748beb"),
        ("ils_nds", 123457, 0.0, True, None, "0aafbdb668d31031da41b7c11d15fae7eb0f4a62b4028011065a14a9235e40ca"),
        ("ils_nds", 400003, 0.0, True, None, "c168dba4d3e98be0a329fa02b13a73f558967e7ef477d5c145727327b8596ee5"),
        ("ils_ens", 0, 0.0, True, None, "533e40b51877d343d32e89c1255155c62898495752bb64fa30fea06ce398b14a"),
        ("ils_ens", 20011, 0.0, True, None, "7774d8c87ead0f905792a2586672f87a5e892599da56ae391257b123eb5c9afc"),
        ("ils_ens", 123457, 0.0, True, None, "168cb29042e5d31e5f87a7806f478f06e14c00d6c4dd2a121d17dd610f601df2"),
        ("ils_ens", 400003, 0.0, True, None, "a66bf9cf662d82e60c2b148d4f763fd679190e178a10eeea892c7de80bf1f47e"),
        ("ils", 123457, 0.0, False, None, "c804ee2bac399c00bea6effbbfea7d838c89a8cc43811db5a3daecd35315d771"),
        ("ils", 1000000, 0.0, True, 434.0, "e0d6e24c9d9453928c4612367422d5a1a1da061af93506a390daab2e76bbac48"),
    ],
    "tsp40": [
        ("ilk", 0, 0.0, True, None, "73a7ac454310c7301e087ba35c6cc0d6f97e7ae4bd2d0fdb5d7ecb1d84ea81bb"),
        ("ilk", 30011, 0.0, True, None, "6b31339268a25b11202d7ca06e21981a753782bdd9953dc5808789cf46711fff"),
        ("ilk", 89034, 0.0, True, None, "d3fde67bd7abbf1812eb6b621d8c608d9bc2b44cd49d0f750e867474abd1e922"),
        ("ilk_e", 0, 0.0, True, None, "9c4cc7c3203d7c337b58b23048734b9a4a24d59f9573cd6153751b6304648340"),
        ("ilk_e", 30011, 0.0, True, None, "94de13b6549c713164beabbbe2644d3f06aa4f2c841f3cf71ad616110e7b7f0b"),
        ("ilk_e", 89034, 0.0, True, None, "78054d33557e066a45de720bfeecf6cd42853f425931339922f3becaadfd6f3f"),
        ("ilk_e", 30011, 0.3, True, None, "89c8f09872bd9d0619230559b075cea243fc0c231f01c2924a72902ac312e43e"),
        ("ilk_e", 62025, 0.3, True, None, "7e84e8477c7deb1cf692f5e980c53fcfb4f0ec6074117e5936de2a05f19084e9"),
        ("ilk_e", 137050, 0.3, True, None, "0c369af7999d27702df1f22ceb46115d27897975fcd945949d1f6eaf353c2376"),
        ("ilk_nde", 0, 0.0, True, None, "f4977e10f7658bbfa57a5c7ddfb7d4d8365ddccb366d4bf338d36d5143fb32c9"),
        ("ilk_nde", 30011, 0.0, True, None, "38f2eb3ca0736c274f75813e953ad732f2445fa3899beda19d2e18da4291fdb2"),
        ("ilk_nde", 89034, 0.0, True, None, "4254260dc567489b54d6c956d043bb2dbc3cecabfa9da864d528aa0f3222b71c"),
        ("ilk_nde", 30011, 0.3, True, None, "79eb0e8834f644fdc768a7d688604259227c0abb096849600a3821f6ea89277f"),
        ("ilk_nde", 62025, 0.3, True, None, "3294513b063b68726937f7fe4369bd201cd9f5c700392316c89d01f33313b76d"),
        ("ilk_nde", 137050, 0.3, True, None, "64711687113ce9b0b95a1a153ab6dfc4598097a733101bba54298b7f4374d361"),
        ("ilk", 30011, 0.0, False, None, "21bf3c2dcf3825e79709326d9c5f98adb29c54d7f55d53fec5430fd39621a8b8"),
        ("ilk_e", 30011, 0.0, False, None, "76c07caa226afc0915c584477be58cfbacc4072a2adfca4f37ab66d67a79a5be"),
        ("ilk", 400003, 0.0, True, 5195.0, "231f36ade0ea776306527c7709def4a96e17c0eee574c5cf2fdd03141d83bab2"),
    ],
    "tsp25": [
        ("ilk_e", 60000, 0.0, True, None, "ce3e240e092ffb07a602e06b0e384f957d1a2ed496087927521655722755d156"),
        ("ilk_e", 60000, 0.3, True, None, "6acd4dba3f5b8ec427063706c94ec8f3e6565e8f13c5ce7c843a50b340ecabfc"),
        ("ilk_nde", 60000, 0.0, True, None, "938d31a404828eea4b484e352d01af9e09dd63eef36a8e527edd70e328d8c2cb"),
        ("ilk_nde", 60000, 0.3, True, None, "6ed5d1bec6f09880e04eea1a1ebf9d3fb2849ce7b45f71a54a08faab00b3b859"),
    ],
    "qubo150": [
        ("ils", 0, 0.0, True, None, "71ae2143bc2769dcd1a1052a76b7f5124a668be798159e596e949eac1a891a15"),
        ("ils", 20011, 0.0, True, None, "44e7e784444aa637dbab2e3e70868c554d1a0c14979897f79a86872f753e820a"),
        ("ils", 123457, 0.0, True, None, "d8fa9dde8c277ab2e9c33629a385d234b08dcdac8e30334280280b462d91c833"),
        ("ils", 1000003, 0.0, True, None, "7462d13d9afab79e7715ed7aff0dc36be5184e824772879df27335fd6ec044b2"),
        ("ils_nds", 0, 0.0, True, None, "effb83aac3e0e3e58224e86c3e0bd507c49a1587605a94de6224ab58c6f65234"),
        ("ils_nds", 20011, 0.0, True, None, "f021a52d709305b6f8dc7262a88de7be61ce6fb8620ee72be4b50852fd371d7c"),
        ("ils_nds", 123457, 0.0, True, None, "f1619776c9f9886f595fdcd6d04a95ae3e69296bbb6c82e88808f348a051b4a7"),
        ("ils_nds", 1000003, 0.0, True, None, "0dd39ce957cf71be9c8baf36d2cc3ce3ee25ff9eec107d8b28c6b2bd649ecd5c"),
        ("ils_ens", 0, 0.0, True, None, "e8c485d1da3997b441f36a4c4087636c2927f5fa81d0d0476d29e8af2cf97549"),
        ("ils_ens", 20011, 0.0, True, None, "b8af5778d316fe2860433889f79c9c2fdaf7d899dbf24d1f58c974b3cb0fde9a"),
        ("ils_ens", 123457, 0.0, True, None, "00a3eeb19e2c0ade2d77f4c41c0b51fa2308d40a1dd06376903f1a860e3e479c"),
        ("ils_ens", 1000003, 0.0, True, None, "d6cfe21c4947bf7cab4327aa84628013f7a2b32cdf588a1d76ff6f98b549ab30"),
        ("its", 0, 0.0, True, None, "60276ab0518cc6a64dda212ad62a31c6f6078999a5fd27a40163414d6adf6f68"),
        ("its", 20011, 0.0, True, None, "e50ec1a6bde7aca2847d881e291d68b5f2a02727e58c910736394299a92de183"),
        ("its", 123457, 0.0, True, None, "3576b8886a7d1feab17e297ee45c0e9f64cd63dac37c8a3214221a036868e6e1"),
        ("its", 1000003, 0.0, True, None, "6fb85cc1833c5afa8e4e21c7975b8ea4e520f80e26eb573188c7c8e82f8d45e4"),
        ("its_nds", 0, 0.0, True, None, "e647e62f4efd61030a4c1c45c3d28f65d52bd9cde364ccf78e17354ac5ca296e"),
        ("its_nds", 20011, 0.0, True, None, "5e933c593194d5825d1e2dcb99cb9424aabdebc3927b2dc0196b92296d63df15"),
        ("its_nds", 123457, 0.0, True, None, "2bb669ae2839b2169f0bbcd7f6afa8ee35beea1d08ab88eb23e29de0d5c8b43a"),
        ("its_nds", 1000003, 0.0, True, None, "e133b2816788d4044f7aa226914cddf5a5d15c59b241f8297016e95595b7090e"),
        ("its", 123457, 0.0, False, None, "f67268feec56c9d59f0e142e017bff2ed0ae85ac48a8631a88309a972692a9c3"),
        ("ils_ens", 1000000, 0.0, True, 19390.0, "56f543d4c2e9998da74908bc624f1d4ac5bfe70a14afae46019cd381c583e529"),
        ("its", 2000000, 0.0, True, 19390.0, "ce7d92b821e3477efbcaa1255556ca0db15241549a1aa239cf2973b492cb324d"),
    ],
    "tsp200": [
        ("ils_nds", 20000000, 0.0, True, None, "f9b0eab332299861a8f75c157090e49c684db8df5315557ddfbc56ee89d673f9"),
        ("ils_nds", 60000000, 0.0, True, None, "9354ed6928f6e106614fa033d2fee77e2516e0eaa15023e61d0c58a252a2a5ca"),
        ("ils_ens", 20000000, 0.0, True, None, "e33fa3f9e7c74902a82b3eaa8de082c3cbb81fdc690f59ed0f33033c4e84013c"),
        ("ils_ens", 60000000, 0.0, True, None, "1b71999909584317338c8d50bf108ce27cc14493d500852f2bcd5d219c1bbfd6"),
    ],
    "bqp1000": [
        ("its_nds", 28500007, 0.0, True, None, "d1e151edd40d4640f8d5de6d1171eccd900bc63e8d36334d823256b3ebf6067b"),
        ("its_nds", 30000000, 0.0, True, None, "2cd4f4286197a4d00f7719f6840196a96337e3d593bafd19a7424697fe7f3a1a"),
    ],
}


class TestPinnedTraces:
    @pytest.mark.parametrize("name", sorted(_PINNED_TRACES))
    def test_seeded_csv_digests(self, name):
        inst = _PINNED_INSTANCES[name]()
        changed = []
        for alg, max_fe, warmup, with_split, target, digest in _PINNED_TRACES[name]:
            cfg = SolverConfig(algorithm=alg, seed=1, max_fe=max_fe, target=target,
                               warmup_fraction=warmup,
                               split=_PINNED_SPLITS[name] if with_split else None,
                               penalty=PenaltyConfig(rounds=5, k_edges=3), neighbor_k=8)
            csv = run(cfg, inst).to_csv()
            if hashlib.sha256(csv.encode()).hexdigest() != digest:
                changed.append((alg, max_fe, warmup, with_split, target))
        assert changed == []


class TestStepLookup:
    # The benchmark tracer wraps the step functions on this module, so run
    # must look them up when it calls them, not capture them beforehand.
    STEPS = ("descend", "tabu_search", "lk_search", "nds", "ens", "further_exploit")

    @pytest.mark.parametrize("alg,expected", [
        ("ils", {"descend"}),
        ("ils_nds", {"descend", "nds"}),
        ("ils_ens", {"descend", "ens"}),
        ("its", {"tabu_search"}),
        ("its_nds", {"tabu_search", "nds"}),
        ("ilk", {"lk_search"}),
        ("ilk_e", {"lk_search", "further_exploit"}),
        ("ilk_nde", {"lk_search", "further_exploit"}),
    ])
    def test_run_calls_the_module_globals(self, monkeypatch, alg, expected):
        calls = []
        for name in self.STEPS:
            def spy(*args, _real=getattr(mh, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(mh, name, spy)
        if alg.startswith("its"):
            inst = random_qubo_instance(30, seed=1, density=0.3)
        else:
            inst = random_tsp_instance(20, seed=1)
        cfg = SolverConfig(algorithm=alg, seed=0, max_fe=3e4, neighbor_k=8,
                           split=SplitParams(a=0.0, seed=1),
                           penalty=PenaltyConfig(rounds=2, k_edges=3))
        run(cfg, inst)
        assert set(calls) == expected

    def test_lk_search_objective_is_fifth_parameter(self):
        # the tracer reads `objective` by this name and position to tell
        # penalized LK calls from plain ones
        params = list(inspect.signature(mh.lk_search).parameters)
        assert params[4] == "objective"

    @pytest.mark.parametrize("step", [
        mh.descend, mh.nds, mh.ens, two_hop_blocks, mh.tabu_search, mh.lk_search,
        mh.further_exploit], ids=lambda step: step.__name__)
    def test_fe_charging_step_requires_the_runs_budget(self, step):
        # a step that made its own Budget() would charge FEs that no run counts
        budget = inspect.signature(step).parameters["budget"]
        assert budget.default is inspect.Parameter.empty


class TestLeanState:
    """A run builds no state that its algorithm never reads."""

    def test_ilk_family_builds_no_two_opt_tables(self):
        inst = random_tsp_instance(30, seed=5)
        _two_opt_index.cache_clear()
        for alg in ("ilk", "ilk_e", "ilk_nde"):
            cfg = SolverConfig(algorithm=alg, seed=0, max_fe=3e4, neighbor_k=8,
                               split=SplitParams(a=2.0, seed=1),
                               penalty=PenaltyConfig(rounds=2, k_edges=3))
            run(cfg, inst)
        assert _two_opt_index.cache_info().currsize == 0

    @pytest.mark.parametrize("alg", ["its", "ils", "ils_ens", "ilk", "ilk_e"])
    def test_unread_split_is_never_made_dense(self, alg):
        if alg == "its":
            inst = random_qubo_instance(30, seed=5, density=0.5)
        else:
            inst = random_tsp_instance(30, seed=5)
        split = sample_split(inst, SplitParams(a=2.0, seed=1))
        cfg = SolverConfig(algorithm=alg, seed=0, max_fe=3e4, neighbor_k=8, split=split,
                           penalty=PenaltyConfig(rounds=2, k_edges=3))
        trace = run(cfg, inst)
        assert trace.rho == split.rho
        assert "mat1" not in vars(split)
