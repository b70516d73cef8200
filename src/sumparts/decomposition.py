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

import json
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
    source_params: SplitParams

    @cached_property
    def mat1(self) -> np.ndarray:
        iu, ju, _ = self.inst.units
        mat1 = np.zeros((self.inst.n, self.inst.n))
        mat1[iu, ju] = self.c1
        mat1[ju, iu] = self.c1
        return mat1


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


def inverse_cdf_sample(c: float, a: float, u: float) -> float:
    """Map a uniform u in (0, 1) to a split point t in (0, c).

    Strictly increasing in u; u = 0.5 gives c/2 for every a.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    return float(c * _inv_cdf_unit(a, np.asarray(u, dtype=np.float64)))


def split_cdf(t: float, c: float, a: float) -> float:
    """CDF matching inverse_cdf_sample (closed form, for verification)."""
    if c <= 0:
        raise ValueError("c must be positive")
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
    return SplitCosts(inst, c1, measure_rho(c1, c - c1), params)


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


def half_split(inst) -> SplitCosts:
    """The degenerate c1 = c2 = c/2 decomposition (rho = 1 when costs vary).

    Its recorded shape is a = inf: the bell's limit, all its mass at c/2.
    """
    return SplitCosts(inst, inst.units[2] / 2.0, 1.0, SplitParams(a=float("inf")))


# ---------------------------------------------------------------------------
# persistence: JSON sidecar storing one c1 per unit, bit-exact on reload


def split_to_json(split: SplitCosts) -> str:
    iu, ju, _ = split.inst.units
    payload = {
        "kind": split.inst.kind,
        "n": split.inst.n,
        "a": split.source_params.a,
        "q_prime": split.source_params.q_prime,
        "seed": split.source_params.seed,
        "rho": split.rho,
        "unit_i": iu.tolist(),
        "unit_j": ju.tolist(),
        "c1": split.c1.tolist(),
    }
    return json.dumps(payload)


def split_from_json(text: str, inst) -> SplitCosts:
    """Rebuild a persisted split against its instance, which supplies its units.

    Raises ValueError when the sidecar does not fit the instance: another
    size, kind or unit set, or a TSP c1 outside [0, c].
    """
    payload = json.loads(text)
    iu, ju, c = inst.units
    n = int(payload["n"])
    if n != inst.n:
        raise ValueError(f"split n={n} does not match instance n={inst.n}")
    if payload["kind"] != inst.kind:
        raise ValueError(f"split kind {payload['kind']!r} does not match a {inst.kind} instance")
    if not (np.array_equal(payload["unit_i"], iu) and np.array_equal(payload["unit_j"], ju)):
        raise ValueError("split units do not match the instance's units")
    c1 = np.asarray(payload["c1"], dtype=np.float64)
    if inst.kind == "tsp" and not np.all((c1 >= 0.0) & (c1 <= c)):
        raise ValueError("split c1 lies outside [0, c] on some edge of the instance")
    params = SplitParams(a=payload["a"], q_prime=payload["q_prime"],
                         seed=payload["seed"])
    return SplitCosts(inst, c1, float(payload["rho"]), params)
