"""Cost splitting: decompose unit costs into two correlated sub-cost sets.

Every unit cost c is split as c = c1 + c2 with c1 drawn from a parametric
density on (0, c): shape parameter a > 0 gives a bell peaked at c/2
(sub-objectives correlate positively), a < 0 a valley massing near 0 and c
(negative correlation), a = 0 the uniform. Sampling is by closed-form
inverse CDF. One draw is shared by the two mirrored cells of a symmetric
unit. UBQP units are drawn on (q/2 - q', q/2 + q') instead; zero units
split as (0, 0) and are excluded from the correlation measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .instances import QuboInstance, TspInstance


@dataclass(frozen=True)
class SplitParams:
    """Split-sampling controls: shape a, UBQP half-width q', RNG seed."""

    a: float
    q_prime: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.q_prime <= 0:
            raise ValueError("q_prime must be positive")


@dataclass
class SplitCosts:
    """A realized decomposition: per-unit cost pairs plus dense matrices.

    c1[u] + c2[u] reproduces the original unit cost; rho is the Pearson
    correlation of the two arrays over units with nonzero cost. unit_i/unit_j
    give each unit's (row, col) cell with i <= j; mat1/mat2 are the full
    mirrored matrices used by delta evaluation.
    """

    kind: str  # "tsp" | "qubo"
    n: int
    unit_i: np.ndarray
    unit_j: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    rho: float
    source_params: SplitParams
    mat1: np.ndarray
    mat2: np.ndarray


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
    if isinstance(inst, TspInstance):
        return _sample_split_tsp(inst, params)
    if isinstance(inst, QuboInstance):
        return _sample_split_qubo(inst, params)
    raise TypeError(f"unsupported instance type: {type(inst).__name__}")


def _sample_split_tsp(inst: TspInstance, params: SplitParams) -> SplitCosts:
    n = inst.n
    iu, ju = np.triu_indices(n, k=1)
    c = inst.costs[iu, ju]
    rng = _rng_for(params)
    u = rng.random(c.shape[0])
    c1 = np.where(c > 0.0, c * _inv_cdf_unit(params.a, u), 0.0)
    c2 = c - c1
    mat1 = np.zeros((n, n))
    mat1[iu, ju] = c1
    mat1[ju, iu] = c1
    mat2 = inst.costs - mat1
    split = SplitCosts(kind="tsp", n=n, unit_i=iu, unit_j=ju, c1=c1, c2=c2,
                       rho=0.0, source_params=params, mat1=mat1, mat2=mat2)
    split.rho = measure_rho(split)
    return split


def _sample_split_qubo(inst: QuboInstance, params: SplitParams) -> SplitCosts:
    n = inst.n
    iu, ju = np.nonzero(np.triu(inst.q != 0.0))
    q = inst.q[iu, ju]
    rng = _rng_for(params)
    u = rng.random(q.shape[0])
    width = 2.0 * params.q_prime
    c1 = q / 2.0 - params.q_prime + width * _inv_cdf_unit(params.a, u)
    c2 = q - c1
    mat1 = np.zeros((n, n))
    mat1[iu, ju] = c1
    mat1[ju, iu] = c1
    mat2 = inst.q - mat1
    split = SplitCosts(kind="qubo", n=n, unit_i=iu, unit_j=ju, c1=c1, c2=c2,
                       rho=0.0, source_params=params, mat1=mat1, mat2=mat2)
    split.rho = measure_rho(split)
    return split


def measure_rho(split: SplitCosts) -> float:
    """Pearson correlation of the two split-cost arrays (1/(m-1) normalization).

    Units whose original cost is zero are forced (0, 0) draws and excluded.
    """
    mask = (split.c1 + split.c2) != 0.0
    x = split.c1[mask]
    y = split.c2[mask]
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
    """The degenerate c1 = c2 = c/2 decomposition (rho = 1 when costs vary)."""
    if isinstance(inst, TspInstance):
        kind, mat, n = "tsp", inst.costs, inst.n
        iu, ju = np.triu_indices(n, k=1)
    elif isinstance(inst, QuboInstance):
        kind, mat, n = "qubo", inst.q, inst.n
        iu, ju = np.nonzero(np.triu(mat != 0.0))
    else:
        raise TypeError(f"unsupported instance type: {type(inst).__name__}")
    c = mat[iu, ju]
    split = SplitCosts(kind=kind, n=n, unit_i=iu, unit_j=ju, c1=c / 2.0, c2=c / 2.0,
                       rho=1.0, source_params=SplitParams(a=float("nan")),
                       mat1=mat / 2.0, mat2=mat - mat / 2.0)
    return split


# ---------------------------------------------------------------------------
# persistence: JSON sidecar storing one c1 per unit, bit-exact on reload


def split_to_json(split: SplitCosts) -> str:
    payload = {
        "kind": split.kind,
        "n": split.n,
        "a": split.source_params.a,
        "q_prime": split.source_params.q_prime,
        "seed": split.source_params.seed,
        "rho": split.rho,
        "unit_i": split.unit_i.tolist(),
        "unit_j": split.unit_j.tolist(),
        "c1": split.c1.tolist(),
    }
    return json.dumps(payload)


def split_from_json(text: str, inst) -> SplitCosts:
    """Rebuild a persisted split against its instance; c2 = c - c1 recomputed."""
    payload = json.loads(text)
    kind = payload["kind"]
    base = inst.costs if kind == "tsp" else inst.q
    n = int(payload["n"])
    if n != inst.n:
        raise ValueError(f"split n={n} does not match instance n={inst.n}")
    iu = np.asarray(payload["unit_i"], dtype=np.intp)
    ju = np.asarray(payload["unit_j"], dtype=np.intp)
    c1 = np.asarray(payload["c1"], dtype=np.float64)
    c = base[iu, ju]
    c2 = c - c1
    mat1 = np.zeros((n, n))
    mat1[iu, ju] = c1
    mat1[ju, iu] = c1
    params = SplitParams(a=payload["a"], q_prime=payload["q_prime"],
                         seed=payload["seed"])
    return SplitCosts(kind=kind, n=n, unit_i=iu, unit_j=ju, c1=c1, c2=c2,
                      rho=float(payload["rho"]), source_params=params,
                      mat1=mat1, mat2=base - mat1)
