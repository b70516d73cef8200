import hashlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import half_split
from sumparts.decomposition import (
    SplitCosts,
    SplitParams,
    _inv_cdf_unit,
    measure_rho,
    sample_split,
    sweep_a,
)
from sumparts.instances import (
    parse_orlib_bqp,
    qubo_value,
    random_qubo_instance,
    synthetic_orlib_text,
    tour_cost,
)


# Scalar oracles of the split density: sample_split draws through the
# vectorized _inv_cdf_unit, and these check it against the density it inverts.


def pdf_shape(t: float, c: float, a: float) -> float:
    """Unnormalized split density at t in (0, c).

    Bell for a > 0 (t^a rising to (c/2)^a, then (c-t)^a), valley for a < 0,
    constant 1 for a = 0.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if not 0 < t < c:
        raise ValueError(f"t={t} outside (0, {c})")
    half = c / 2.0
    sign = (a > 0) - (a < 0)
    if t <= half:
        base = half - sign * (half - t)
    else:
        base = half + sign * (half - t)
    return float(base ** abs(a))


def inverse_cdf_sample(c: float, a: float, u: float) -> float:
    """Map a uniform u in (0, 1) to a split point t in (0, c).

    Strictly increasing in u; u = 0.5 gives c/2 for every a.
    """
    return float(c * _inv_cdf_unit(a, np.asarray(u, dtype=np.float64)))


def split_cdf(t: float, c: float, a: float) -> float:
    """CDF matching inverse_cdf_sample, in closed form."""
    r = min(max(t / c, 0.0), 1.0)
    lo = r <= 0.5
    v = r if lo else 1.0 - r
    m = abs(a)
    if a >= 0:
        f = 0.5 * (2.0 * v) ** (m + 1.0)
    else:
        scale = 1.0 - 0.5 ** (m + 1.0)
        f = (1.0 - (1.0 - v) ** (m + 1.0)) / (2.0 * scale)
    return float(f if lo else 1.0 - f)


class TestPdfShape:
    def test_flat_for_zero_shape(self):
        for t in (0.1, 3.0, 9.9):
            assert pdf_shape(t, 10.0, 0.0) == 1.0

    def test_bell_peak_value(self):
        # direct substitution: at the midpoint the first branch gives t^a
        assert pdf_shape(500.0, 1000.0, 2.0) == 250000.0

    @pytest.mark.parametrize("a", [-7.0, -1.5, 0.0, 2.0, 12.0])
    def test_mirror_symmetry(self, a):
        c = 13.0
        for t in (0.5, 2.0, 6.0):
            assert pdf_shape(t, c, a) == pytest.approx(pdf_shape(c - t, c, a), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pdf_shape(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            pdf_shape(10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            pdf_shape(1.0, -1.0, 1.0)


class TestInverseCdf:
    @pytest.mark.parametrize("a", [-12.0, -2.0, 0.0, 1.0, 10.0])
    def test_median_is_midpoint(self, a):
        assert inverse_cdf_sample(42.0, a, 0.5) == pytest.approx(21.0, rel=1e-12)

    def test_uniform_quartile(self):
        assert inverse_cdf_sample(8.0, 0.0, 0.25) == pytest.approx(2.0, rel=1e-12)

    def test_bell_closed_form_point(self):
        # F(t) = (2t/c)^3 / 2 on the lower half for a=2, so F^-1(0.0625) = 0.25
        assert inverse_cdf_sample(1.0, 2.0, 0.0625) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("a", [-9.0, -1.0, 0.0, 3.0, 15.0])
    def test_strictly_increasing_in_u(self, a):
        us = np.linspace(0.001, 0.999, 400)
        ts = np.array([inverse_cdf_sample(7.0, a, u) for u in us])
        assert np.all(np.diff(ts) > 0)
        assert np.all((ts > 0) & (ts < 7.0))

    @pytest.mark.parametrize("a", [-6.0, 0.0, 2.5])
    def test_cdf_round_trip(self, a):
        for u in (0.02, 0.31, 0.5, 0.68, 0.97):
            t = inverse_cdf_sample(3.0, a, u)
            assert split_cdf(t, 3.0, a) == pytest.approx(u, abs=1e-12)

    def test_histogram_matches_density_chi_square(self):
        # oracle: bin probabilities by numerical quadrature of the unnormalized
        # density, independent of the closed-form inverse
        a, c, samples = 2.0, 1.0, 100_000
        rng = np.random.default_rng(123)
        ts = np.array([inverse_cdf_sample(c, a, u) for u in rng.random(samples)])
        edges = np.linspace(0.0, c, 41)
        grid = np.linspace(1e-9, c - 1e-9, 20_001)
        dens = np.array([pdf_shape(t, c, a) for t in grid])
        total = np.trapezoid(dens, grid)
        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            m = (grid >= lo) & (grid <= hi)
            probs.append(np.trapezoid(dens[m], grid[m]) / total)
        probs = np.asarray(probs)
        probs /= probs.sum()
        observed, _ = np.histogram(ts, bins=edges)
        _, p = scipy_stats.chisquare(observed, probs * samples)
        assert p > 0.01


class TestSampleSplit:
    def test_tsp_range_and_sum(self, eil51):
        split = sample_split(eil51, SplitParams(a=-3.0, seed=7))
        iu, ju, c = eil51.units
        np.testing.assert_allclose(c, eil51.costs[iu, ju], rtol=1e-12)
        pos = eil51.costs[iu, ju] > 0
        assert np.all(split.c1[pos] > 0)
        assert np.all(split.c1[pos] < eil51.costs[iu, ju][pos])

    def test_symmetric_units_share_one_draw(self, eil51):
        split = sample_split(eil51, SplitParams(a=0.0, seed=1))
        mat2 = eil51.costs - split.mat1
        assert np.array_equal(split.mat1, split.mat1.T)
        assert np.array_equal(mat2, mat2.T)

    def test_determinism(self, eil51):
        p = SplitParams(a=2.0, seed=99)
        s1, s2 = sample_split(eil51, p), sample_split(eil51, p)
        np.testing.assert_array_equal(s1.c1, s2.c1)
        assert s1.rho == s2.rho

    def test_qubo_interval_and_zero_rule(self):
        inst = random_qubo_instance(40, seed=2, density=0.3)
        split = sample_split(inst, SplitParams(a=1.0, q_prime=100.0, seed=3))
        iu, ju, _ = inst.units
        q = inst.q[iu, ju]
        assert np.all(q != 0)  # zero units are not sampled at all
        assert np.all(split.c1 > q / 2 - 100.0)
        assert np.all(split.c1 < q / 2 + 100.0)
        zero_cells = inst.q == 0
        assert np.all(split.mat1[zero_cells] == 0.0)
        assert np.all((inst.q - split.mat1)[zero_cells] == 0.0)

    def test_uniform_split_rho_near_zero_shifted_by_cost_spread(self, eil51):
        # a = 0 on eil51 lands moderately negative; the sign flips positive
        # only for strongly bell-shaped draws
        rhos = [sample_split(eil51, SplitParams(a=0.0, seed=s)).rho for s in range(10)]
        assert all(-0.45 < r < 0.05 for r in rhos)

    def test_bell_rho_near_one(self, eil51):
        rho = sample_split(eil51, SplitParams(a=10.0, seed=0)).rho
        assert rho >= 0.85

    def test_valley_rho_strongly_negative(self, eil51):
        rho = sample_split(eil51, SplitParams(a=-12.0, seed=0)).rho
        assert -0.70 <= rho <= -0.45

    def test_bell_limit_puts_every_c1_at_half_cost(self, eil51):
        split = sample_split(eil51, SplitParams(a=float("inf")))
        assert np.array_equal(split.c1, eil51.units[2] / 2.0)


class TestMeasureRho:
    def test_half_split_is_one(self, eil51):
        split = half_split(eil51)
        assert measure_rho(split.c1, eil51.units[2] - split.c1) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert measure_rho(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(-1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            measure_rho(np.array([1.0, 1.0]), np.array([2.0, 3.0]))

    def test_matches_numpy_corrcoef(self, eil51):
        split = sample_split(eil51, SplitParams(a=2.0, seed=11))
        c2 = eil51.units[2] - split.c1
        expected = np.corrcoef(split.c1, c2)[0, 1]
        assert measure_rho(split.c1, c2) == pytest.approx(expected, rel=1e-12)


class TestSweepA:
    def test_monotone_in_a(self, eil51):
        rows = sweep_a(eil51, [-12.0, -3.0, 0.0, 2.0, 10.0], seed=4)
        rhos = [r for _, r in rows]
        assert rhos == sorted(rhos)

    def test_repeat_same_seed_identical(self, eil51):
        r1 = sweep_a(eil51, [2.0, 2.0], seed=5)
        r2 = sweep_a(eil51, [2.0], seed=5)
        assert r1[0][1] == r1[1][1] == r2[0][1]

    def test_empty_rejected(self, eil51):
        with pytest.raises(ValueError):
            sweep_a(eil51, [], seed=0)


class TestSumPreservation:
    def test_tsp_any_solution(self, eil51):
        split = sample_split(eil51, SplitParams(a=10.0, seed=3))
        rng = np.random.default_rng(8)
        for _ in range(20):
            order = rng.permutation(51)
            f = tour_cost(eil51, order)
            f1, f2 = tour_cost(eil51, order, split)
            assert abs(f1 + f2 - f) <= 1e-9 * abs(f)

    def test_qubo_any_solution(self):
        inst = random_qubo_instance(60, seed=4, density=0.2)
        split = sample_split(inst, SplitParams(a=-2.0, seed=9))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.integers(0, 2, 60).astype(float)
            f = qubo_value(inst, z)
            f1 = z @ split.mat1 @ z
            f2 = z @ (inst.q - split.mat1) @ z
            assert abs(f1 + f2 - f) <= 1e-9 * max(1.0, abs(f))


class TestSerialization:
    def test_split_is_its_instance_and_one_draw(self, eil51):
        split = sample_split(eil51, SplitParams(a=1.0, seed=0))
        assert [f.name for f in fields(SplitCosts)] == ["inst", "c1", "rho"]
        assert split.inst is eil51
        assert split.c1.shape == eil51.units[2].shape

    def test_persisted_bytes_pinned(self, eil51):
        # sha256 of each split's c1 bytes and repr(rho), and of the sweep rows;
        # a seeded split must not drift
        ubqp60 = parse_orlib_bqp(synthetic_orlib_text(60, seed=1))
        splits = {
            "eil51": sample_split(eil51, SplitParams(a=2.0, seed=5)),
            "ubqp60": sample_split(ubqp60, SplitParams(a=-2.0, seed=9)),
            "half": half_split(eil51),
        }
        outputs = {name: split.c1.tobytes() + repr(split.rho).encode()
                   for name, split in splits.items()}
        outputs["sweep"] = repr(sweep_a(eil51, [-12, -2, 0, 2, 10], seed=3)).encode()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == {
            "eil51": "212fd15ae5a51448013c789f60230483ca5f022dd9828ff20a8e27b7bc70bc69",
            "ubqp60": "83a03c99ab40ce5bbb693b005fc2af4a09d75d2a73f85a88360adb2495f19d90",
            "half": "264cddddbbcb241512b6049e46f00654403fcd6b8e4669fbb53e6e181bd4b465",
            "sweep": "90b981e8a03d42d9f3bd3bdfc5670d4e62e3a0e87f21aba82efe4f7231085bf2",
        }


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-14.0, max_value=14.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
)
def test_inverse_cdf_in_open_interval(a, c, u):
    t = inverse_cdf_sample(c, a, u)
    assert 0.0 < t < c
    assert split_cdf(t, c, a) == pytest.approx(u, abs=1e-9)
