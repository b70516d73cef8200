import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import brute_force_tsp
from sumparts.bench import (
    CampaignSpec,
    excess,
    rank_sum_test,
    run_campaign,
    summary_csv,
    verdict_vs_reference,
)
from sumparts.decomposition import SplitParams
from sumparts.instances import random_tsp_instance
from sumparts.metaheuristics import SolverConfig


class TestExcess:
    def test_exact_hit(self):
        assert excess(426.0, 426.0) == 0.0

    def test_eil51_known_gap(self):
        # 430 against the TSPLIB-recorded optimum 426
        assert excess(430.0, 426.0) == pytest.approx(0.00939, abs=5e-6)

    def test_maximization_symmetric(self):
        assert excess(95.0, 100.0) == pytest.approx(0.05)

    def test_zero_optimum_rejected(self):
        with pytest.raises(ValueError):
            excess(1.0, 0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fx, fo = rng.uniform(1, 100, 2)
            lam = rng.uniform(0.1, 10)
            assert excess(fx, fo) == pytest.approx(excess(lam * fx, lam * fo), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            fx, fo = rng.normal(size=2)
            if fo != 0:
                assert excess(fx, fo) >= 0.0


class TestRankSum:
    def test_identical_samples_verdict_equal(self):
        a = [1.0, 2.0, 3.0]
        u, p = rank_sum_test(a, a)
        assert p == pytest.approx(1.0, abs=0.05) or p == 1.0
        assert verdict_vs_reference(a, a) == "="

    def test_hand_enumerated_u(self):
        u, _ = rank_sum_test([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        u2, _ = rank_sum_test([4, 5, 6], [1, 2, 3])
        assert u2 == 9.0

    def test_all_constant_equal_verdict(self):
        u, p = rank_sum_test([5, 5, 5], [5, 5, 5, 5])
        assert p == 1.0

    def test_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.normal(0, 1, rng.integers(5, 25)).round(1)
            b = rng.normal(0.4, 1, rng.integers(5, 25)).round(1)
            u, p = rank_sum_test(a, b)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                           method="asymptotic")
            # scipy reports U of the first sample with the same convention
            assert u == pytest.approx(ref.statistic, abs=1e-9)
            assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)

    def test_textbook_pair_against_oracle(self):
        # small worked example with ties
        a = [3, 4, 2, 6, 2, 5]
        b = [9, 7, 5, 10, 6, 8]
        u, p = rank_sum_test(a, b)
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert u == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([], [1.0])

    def test_verdict_direction(self):
        ref = [0.0, 0.0, 0.01, 0.0, 0.0, 0.01, 0.0, 0.0]
        worse = [0.1, 0.2, 0.15, 0.12, 0.3, 0.2, 0.25, 0.18]
        assert verdict_vs_reference(ref, worse) == "-"
        assert verdict_vs_reference(worse, ref) == "="  # better is not "-"


class TestCampaign:
    def test_single_cell(self, tmp_path):
        inst = random_tsp_instance(7, seed=0)
        opt = brute_force_tsp(inst)
        spec = CampaignSpec(instances={"r7": "r7"},
                            algorithms=[SolverConfig(algorithm="ils", max_fe=1e5)],
                            seeds=[3], targets={"r7": opt},
                            out_dir=str(tmp_path / "camp"))
        out = run_campaign(spec, instances={"r7": inst})
        assert len(out) == 1
        assert out[0].mean_excess == 0.0
        assert (tmp_path / "camp" / "traces" / "r7_ils_s3.csv").exists()
        assert (tmp_path / "camp" / "summary.csv").exists()

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        inst = random_tsp_instance(8, seed=1)
        spec = CampaignSpec(instances={"r8": "r8"},
                            algorithms=[SolverConfig(algorithm="ils", max_fe=2e4)],
                            seeds=[0, 1], out_dir=None)
        texts = []
        for _ in range(2):
            out = run_campaign(spec, instances={"r8": inst})
            texts.append(summary_csv(out))
        assert texts[0] == texts[1]

    def test_three_algorithms_ten_seeds_all_reach_optimum(self):
        inst = random_tsp_instance(7, seed=5)
        opt = brute_force_tsp(inst)
        algs = [
            SolverConfig(algorithm="ils", max_fe=1e6),
            SolverConfig(algorithm="ils_ens", max_fe=1e6),
            SolverConfig(algorithm="ils_nds", max_fe=1e6,
                         split_params=SplitParams(a=0.0, seed=1)),
        ]
        spec = CampaignSpec(instances={"r7": "r7"}, algorithms=algs,
                            seeds=list(range(10)), targets={"r7": opt},
                            reference_algorithm="ils_nds")
        out = run_campaign(spec, instances={"r7": inst})
        assert len(out) == 3
        for s in out:
            assert s.mean_excess == 0.0
        verdicts = {s.algorithm: s.verdict for s in out}
        assert verdicts["ils"] == "="  # everyone reaches the optimum

    def test_cell_failure_recorded_campaign_continues(self, tmp_path):
        inst = random_tsp_instance(8, seed=2)
        algs = [SolverConfig(algorithm="its", max_fe=100),  # invalid for TSP
                SolverConfig(algorithm="ils", max_fe=1e4)]
        spec = CampaignSpec(instances={"r8": "r8"}, algorithms=algs, seeds=[0],
                            out_dir=str(tmp_path / "camp2"))
        out = run_campaign(spec, instances={"r8": inst})
        assert np.isnan(out[0].finals[0])
        assert np.isfinite(out[1].finals[0])
        assert (tmp_path / "camp2" / "traces" / "r8_its_s0.error").exists()

    def test_failed_cells_counted_without_out_dir(self):
        inst = random_tsp_instance(8, seed=2)
        algs = [SolverConfig(algorithm="its", max_fe=100),  # invalid for TSP
                SolverConfig(algorithm="ils", max_fe=1e4)]
        spec = CampaignSpec(instances={"r8": "r8"}, algorithms=algs, seeds=[0, 1])
        out = run_campaign(spec, instances={"r8": inst})
        assert out[0].failures == 2
        assert out[0].first_error == "ValueError: its does not apply to TSP instances"
        assert out[1].failures == 0 and out[1].first_error is None
        lines = summary_csv(out).splitlines()
        assert lines[-1] == ("# failed: r8 its: 2 of 2 cells, "
                             "first: ValueError: its does not apply to TSP instances")
        assert sum(line.startswith("# failed") for line in lines) == 1

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(instances={}, algorithms=[SolverConfig(algorithm="ils")],
                         seeds=[1, 1])
