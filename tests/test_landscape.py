import numpy as np
import pytest

from conftest import brute_force_tsp, half_split
from sumparts.decomposition import SplitParams, sample_split
from sumparts.escape import dominated_mask
from sumparts.instances import random_tsp_instance, tour_cost
from sumparts.landscape import (
    NeighborStats,
    aggregate_stats,
    classify_neighbors,
    collect_local_optima,
    expected_fe_nds,
    expected_fe_plain,
    promising_flags,
    table_csv,
)
from sumparts.search import Budget, TwoOptNeighborhood, descend, is_local_optimum


class TestCollectLocalOptima:
    def test_single_verified(self, eil51):
        rng = np.random.default_rng(0)
        optima = collect_local_optima(eil51, 1, rng)
        assert len(optima) == 1
        assert is_local_optimum(TwoOptNeighborhood(eil51), optima[0])

    def test_duplicates_allowed(self):
        inst = random_tsp_instance(5, seed=0)
        rng = np.random.default_rng(1)
        optima = collect_local_optima(inst, 30, rng)
        costs = {t.cached_cost for t in optima}
        assert len(costs) < 30  # tiny instance: repeats are expected

    def test_200_on_eil51_all_locally_optimal(self, eil51):
        rng = np.random.default_rng(7)
        optima = collect_local_optima(eil51, 200, rng)
        view = TwoOptNeighborhood(eil51)
        assert all(is_local_optimum(view, t) for t in optima)

    def test_count_validated(self, eil51):
        with pytest.raises(ValueError):
            collect_local_optima(eil51, 0, np.random.default_rng(0))


class TestClassifyNeighbors:
    def test_view_without_split_rejected(self):
        view = TwoOptNeighborhood(random_tsp_instance(6, seed=1))
        t = view.random_solution(np.random.default_rng(0))
        with pytest.raises(ValueError, match="split-aware view"):
            classify_neighbors(t, view, np.zeros(view.size, dtype=bool))

    def test_global_optimum_no_two_hop_improvement_p_zero(self):
        inst = random_tsp_instance(6, seed=1)
        opt = brute_force_tsp(inst)
        split = sample_split(inst, SplitParams(a=0.0, seed=1))
        view = TwoOptNeighborhood(inst, split)
        t = view.random_solution(np.random.default_rng(0))
        descend(view, t, Budget())
        while t.cached_cost != opt:
            t = view.random_solution(np.random.default_rng(int(t.cached_cost)))
            descend(view, t, Budget())
        stats = classify_neighbors(t, view, promising_flags(t, view))
        # the global optimum cannot have promising neighbors
        assert stats.p == 0.0
        assert stats.np_ == 1.0

    def test_half_split_nd_zero_for_strict_optimum(self):
        inst = random_tsp_instance(9, seed=4)
        split = half_split(inst)
        view = TwoOptNeighborhood(inst, split)
        for s in range(10):
            t = view.random_solution(np.random.default_rng(s))
            descend(view, t, Budget())
            if np.min(view.deltas(t)) > 0:  # strict local optimum
                stats = classify_neighbors(t, view, promising_flags(t, view))
                assert stats.nd == 0.0
                assert stats.d == 1.0
                return
        pytest.fail("no strict local optimum found")

    def test_five_city_matches_independent_recount(self):
        # second implementation: explicit reversal enumeration + full evals
        inst = random_tsp_instance(5, seed=2)
        split = sample_split(inst, SplitParams(a=-1.0, seed=3))
        view = TwoOptNeighborhood(inst, split)
        t = view.random_solution(np.random.default_rng(1))
        descend(view, t, Budget())
        stats = classify_neighbors(t, view, promising_flags(t, view))

        n = 5
        f_star = t.cached_cost
        f1_star, f2_star = tour_cost(inst, t, split)
        moves = [(p, q) for p in range(n - 2)
                 for q in range(p + 2, (n - 1 if p > 0 else n - 2) + 1)]
        assert len(moves) == view.size

        def reversed_order(order, p, q):
            out = order.copy()
            out[p + 1: q + 1] = out[p + 1: q + 1][::-1]
            return out

        cells = {"pd": 0, "pnd": 0, "npd": 0, "npnd": 0}
        for p, q in moves:
            x_p = reversed_order(t.order, p, q)
            f1, f2 = tour_cost(inst, x_p, split)
            dominated = (f1_star <= f1 and f2_star <= f2
                         and (f1_star < f1 or f2_star < f2))
            promising = False
            for p2, q2 in moves:
                x_pp = reversed_order(x_p, p2, q2)
                if tour_cost(inst, x_pp) < f_star:
                    promising = True
                    break
            key = ("p" if promising else "np") + ("d" if dominated else "nd")
            cells[key] += 1
        assert stats.p_d == cells["pd"] / len(moves)
        assert stats.p_nd == cells["pnd"] / len(moves)
        assert stats.np_d == cells["npd"] / len(moves)
        assert stats.np_nd == cells["npnd"] / len(moves)

    def test_cell_sum_identities_exact(self, eil51):
        split = sample_split(eil51, SplitParams(a=2.0, seed=1))
        view = TwoOptNeighborhood(eil51, split)
        t = view.random_solution(np.random.default_rng(3))
        descend(view, t, Budget())
        s = classify_neighbors(t, view, promising_flags(t, view))
        n = s.neighborhood_size
        counts = [round(c * n) for c in (s.p_d, s.p_nd, s.np_d, s.np_nd)]
        assert sum(counts) == n
        assert round(s.p * n) == counts[0] + counts[1]
        assert round(s.d * n) == counts[0] + counts[2]
        assert s.p + s.np_ == pytest.approx(1.0, abs=1e-12)
        assert s.d + s.nd == pytest.approx(1.0, abs=1e-12)

    def test_cells_equal_four_mask_sums_on_eil51(self, eil51):
        """The cells counted from three counts equal the four masks summed one by one."""
        optima = collect_local_optima(eil51, 3, np.random.default_rng(11))
        flags = [promising_flags(t, TwoOptNeighborhood(eil51)) for t in optima]
        for a in (-12.0, -2.0, 0.0, 10.0):
            view = TwoOptNeighborhood(eil51, sample_split(eil51, SplitParams(a=a, seed=0)))
            n = view.size
            for t, promising in zip(optima, flags):
                _, d1, d2 = view.split_deltas(t)
                dominated = dominated_mask(view.sense, d1, d2)
                p_d, p_nd, np_d, np_nd = (int(np.sum(m)) for m in (
                    promising & dominated, promising & ~dominated,
                    ~promising & dominated, ~promising & ~dominated))
                assert classify_neighbors(t, view, promising) == NeighborStats(
                    neighborhood_size=n, sample_size=1,
                    p=(p_d + p_nd) / n, np_=(np_d + np_nd) / n,
                    d=(p_d + np_d) / n, nd=(p_nd + np_nd) / n,
                    p_d=p_d / n, p_nd=p_nd / n, np_d=np_d / n, np_nd=np_nd / n)

    def test_promising_flags_reusable_across_splits(self):
        inst = random_tsp_instance(8, seed=6)
        view0 = TwoOptNeighborhood(inst)
        t = view0.random_solution(np.random.default_rng(2))
        descend(view0, t, Budget())
        flags = promising_flags(t, view0)
        for a in (-3.0, 2.0):
            split = sample_split(inst, SplitParams(a=a, seed=4))
            view = TwoOptNeighborhood(inst, split)
            s1 = classify_neighbors(t, view, promising=flags)
            s2 = classify_neighbors(t, view, promising_flags(t, view))
            assert s1 == s2


class TestAggregate:
    def _stats(self, **kw):
        base = dict(neighborhood_size=10, sample_size=1, p=0.2, np_=0.8,
                    d=0.6, nd=0.4, p_d=0.1, p_nd=0.1, np_d=0.5, np_nd=0.3)
        base.update(kw)
        return NeighborStats(**base)

    def test_singleton_identity(self):
        s = self._stats()
        assert aggregate_stats([s]) == s

    def test_two_identical(self):
        s = self._stats()
        agg = aggregate_stats([s, s])
        assert agg.p == s.p and agg.p_nd == s.p_nd
        assert agg.sample_size == 2

    def test_ratios_from_averaged_cells(self):
        s1 = self._stats(p_d=0.0, p_nd=0.2, np_d=0.6, np_nd=0.2, p=0.2, d=0.6, nd=0.4)
        s2 = self._stats(p_d=0.2, p_nd=0.0, np_d=0.4, np_nd=0.4, p=0.2, d=0.6, nd=0.4)
        agg = aggregate_stats([s1, s2])
        assert agg.ratio_pd_d == pytest.approx(0.1 / 0.6)
        assert agg.ratio_pnd_nd == pytest.approx(0.1 / 0.4)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            aggregate_stats([self._stats(), self._stats(neighborhood_size=12)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            aggregate_stats([])


class TestExpectedFe:
    def test_all_nd_all_promising_gives_n(self):
        s = NeighborStats(neighborhood_size=100, sample_size=1, p=1.0, np_=0.0,
                          d=0.0, nd=1.0, p_d=0.0, p_nd=1.0, np_d=0.0, np_nd=0.0)
        assert expected_fe_nds(s) == pytest.approx(100.0)

    def test_two_formula_forms_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cells = rng.dirichlet(np.ones(4))
            p_d, p_nd, np_d, np_nd = cells.tolist()
            if p_nd == 0:
                continue
            s = NeighborStats(neighborhood_size=50, sample_size=1,
                              p=p_d + p_nd, np_=np_d + np_nd,
                              d=p_d + np_d, nd=p_nd + np_nd,
                              p_d=p_d, p_nd=p_nd, np_d=np_d, np_nd=np_nd)
            direct = (s.nd * 50 + s.d) / s.p_nd
            rewritten = (50 + s.d / s.nd) / (s.p_nd / s.nd)
            assert expected_fe_nds(s) == pytest.approx(direct)
            assert direct == pytest.approx(rewritten)

    def test_infinite_signals(self):
        s = NeighborStats(neighborhood_size=10, sample_size=1, p=0.0, np_=1.0,
                          d=1.0, nd=0.0, p_d=0.0, p_nd=0.0, np_d=1.0, np_nd=0.0)
        assert expected_fe_nds(s) == float("inf")
        assert expected_fe_plain(s) == float("inf")

    def test_plain_full_promising_gives_n_squared(self):
        s = NeighborStats(neighborhood_size=20, sample_size=1, p=1.0, np_=0.0,
                          d=1.0, nd=0.0, p_d=1.0, p_nd=0.0, np_d=0.0, np_nd=0.0)
        assert expected_fe_plain(s) == pytest.approx(400.0)


def test_table_csv_shape(eil51):
    split = sample_split(eil51, SplitParams(a=2.0, seed=1))
    view = TwoOptNeighborhood(eil51, split)
    rng = np.random.default_rng(0)
    optima = collect_local_optima(eil51, 3, rng)
    stats = aggregate_stats([classify_neighbors(t, view, promising_flags(t, view)) for t in optima])
    text = table_csv([{"instance": "eil51", "a": 2.0, "rho": split.rho, "stats": stats}],
                     invocation="test")
    lines = text.strip().splitlines()
    assert lines[0].startswith("# invocation:")
    header = lines[1].split(",")
    assert header == ["instance", "a", "rho", "sample_size", "NP", "P", "D", "ND",
                      "NP&D", "NP&ND", "P&D", "P&ND", "P&D/D", "P&ND/ND"]
    assert lines[2].split(",")[0] == "eil51"
