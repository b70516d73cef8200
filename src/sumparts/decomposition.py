"""Cost splitting: decompose unit costs into two correlated sub-cost sets.

Every unit cost c is split as c = c1 + c2 with c1 drawn from a parametric
density on (0, c): shape parameter a > 0 gives a bell peaked at c/2
(sub-objectives correlate positively), a < 0 a valley massing near 0 and c
(negative correlation), a = 0 the uniform. Sampling is by closed-form
inverse CDF. The instance type defines what a unit is (`units`: the edges
i < j of a TSP, the nonzero cells i <= j of a UBQP), and a split is that
instance plus one c1 draw per unit, shared by a unit's two mirrored cells.
UBQP units are drawn on (q/2 - q', q/2 + q') instead; zero-cost TSP edges
split as (0, 0) and are excluded from the correlation measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instances import QuboInstance, TspInstance, check_numbers


@dataclass(frozen=True)
class SplitParams:
    """Split-sampling controls: shape a, UBQP half-width q', RNG seed.

    a = inf is the bell's limit (every c1 at c/2); a = -inf would put c1 on
    0 or c, outside the open interval, and is refused.
    """

    a: float
    q_prime: float = 100.0
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, integers=("seed",), reals=("a", "q_prime"), non_negative=("seed",))
        if self.a == -np.inf:
            raise ValueError(f"a must be finite or inf, got {self.a!r}")
        if not 0 < self.q_prime < np.inf:
            raise ValueError(f"q_prime must be positive and finite, got {self.q_prime!r}")


@dataclass
class SplitCosts:
    """A realized decomposition: the instance and one c1 draw per unit.

    The instance defines the units (`inst.units`: rows, columns and costs c
    in a fixed order), and c1[u] is unit u's f1 cost; its f2 cost is
    c[u] - c1[u] and is never stored. rho is the Pearson correlation of the
    two over units with nonzero cost. The dense mirrored f1 matrix mat1 is
    built on first read; readers derive f2's matrix as the instance's minus
    mat1.
    """

    inst: TspInstance | QuboInstance
    c1: np.ndarray
    rho: float

    @cached_property
    def mat1(self) -> np.ndarray:
        iu, ju, _ = self.inst.units
        mat1 = np.zeros((self.inst.n, self.inst.n))
        mat1[iu, ju] = self.c1
        mat1[ju, iu] = self.c1
        return mat1


def _inv_cdf_unit(a: float, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the normalized split density on (0, 1)."""
    u = np.clip(u, np.finfo(float).tiny, 1.0 - 2.23e-16)
    m = abs(a)
    lo = u <= 0.5
    v = np.where(lo, u, 1.0 - u)  # mirror the upper half
    if a >= 0:
        r = 0.5 * (2.0 * v) ** (1.0 / (m + 1.0))
    else:
        scale = 1.0 - 0.5 ** (m + 1.0)
        r = 1.0 - (1.0 - 2.0 * v * scale) ** (1.0 / (m + 1.0))
    return np.where(lo, r, 1.0 - r)


def _rng_for(params: SplitParams) -> np.random.Generator:
    a_bits = int(np.float64(params.a).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([int(params.seed), a_bits]))


def sample_split(inst, params: SplitParams) -> SplitCosts:
    """Draw one split of every unit cost of a TSP or UBQP instance.

    Deterministic given (instance, params). Symmetric cells share one draw.
    """
    c = inst.units[2]
    u = _rng_for(params).random(c.shape[0])
    if inst.kind == "tsp":
        c1 = np.where(c > 0.0, c * _inv_cdf_unit(params.a, u), 0.0)
    else:
        c1 = c / 2.0 - params.q_prime + 2.0 * params.q_prime * _inv_cdf_unit(params.a, u)
    return SplitCosts(inst, c1, measure_rho(c1, c - c1))


def measure_rho(c1: np.ndarray, c2: np.ndarray) -> float:
    """Pearson correlation of two per-unit split-cost arrays (1/(m-1) normalization).

    Units whose original cost c1 + c2 is zero are forced (0, 0) draws and excluded.
    """
    mask = (c1 + c2) != 0.0
    x = c1[mask]
    y = c2[mask]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 nonzero units to measure correlation")
    m = x.shape[0]
    dx = x - x.mean()
    dy = y - y.mean()
    cov = float((dx * dy).sum()) / (m - 1)
    sx = np.sqrt(float((dx * dx).sum()) / (m - 1))
    sy = np.sqrt(float((dy * dy).sum()) / (m - 1))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance in a split arm: correlation undefined")
    return float(cov / (sx * sy))


def sweep_a(inst, a_values, seed: int = 0) -> list[tuple[float, float]]:
    """Sample one split per shape value and report (a, measured rho) pairs."""
    a_values = list(a_values)
    if not a_values:
        raise ValueError("a_values must be nonempty")
    out = []
    for a in a_values:
        split = sample_split(inst, SplitParams(a=a, seed=seed))
        out.append((float(a), split.rho))
    return out
