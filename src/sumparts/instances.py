"""TSP and UBQP instances: parsing, evaluation, delta moves and neighbor lists.

Costs are stored as float64 even for integer instances because cost splitting
draws from a continuous distribution. Incremental (delta) evaluation must agree
with full recomputation to EVAL_REL_TOL relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

EVAL_REL_TOL = 1e-9

MINIMIZE = 1
MAXIMIZE = -1


class ParseError(ValueError):
    """Raised when an instance file does not conform to its declared format."""


# ---------------------------------------------------------------------------
# instance types


@dataclass(frozen=True)
class TspInstance:
    """Symmetric TSP with a full cost matrix.

    metric_tag is "EUC_2D" (costs derived from rounded planar distances) or
    "EXPLICIT" (matrix given verbatim).
    """

    name: str
    n: int
    costs: np.ndarray
    metric_tag: str
    coords: np.ndarray | None = None

    sense = MINIMIZE

    def __post_init__(self):
        c = np.ascontiguousarray(self.costs, dtype=np.float64)
        if self.n < 4:
            raise ValueError(f"TSP needs n >= 4, got n={self.n}")
        if c.shape != (self.n, self.n):
            raise ValueError(f"cost matrix shape {c.shape} != ({self.n}, {self.n})")
        if not np.array_equal(c, c.T):
            raise ValueError("cost matrix must be symmetric")
        if np.any(np.diag(c) != 0.0):
            raise ValueError("cost matrix diagonal must be zero")
        if np.any(c < 0.0):
            raise ValueError("edge costs must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "costs", c)

    @property
    def max_cost(self) -> float:
        return float(self.costs.max())

    @cached_property
    def cost_rows(self) -> list[list[float]]:
        """The cost matrix as nested lists, for scalar-indexed inner loops."""
        return self.costs.tolist()


@dataclass(frozen=True)
class QuboInstance:
    """Unconstrained binary quadratic program, maximize z^T Q z.

    Q is stored symmetric; an off-diagonal unit therefore contributes twice
    to the objective, matching the OR-Library convention.
    """

    name: str
    n: int
    q: np.ndarray

    sense = MAXIMIZE

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if self.n < 1:
            raise ValueError("UBQP needs n >= 1")
        if q.shape != (self.n, self.n):
            raise ValueError(f"Q shape {q.shape} != ({self.n}, {self.n})")
        if not np.array_equal(q, q.T):
            raise ValueError("Q must be stored symmetric")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


# ---------------------------------------------------------------------------
# parsing


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def parse_tsplib(text: str) -> TspInstance:
    """Parse a TSPLIB file with EDGE_WEIGHT_TYPE EUC_2D or EXPLICIT/FULL_MATRIX.

    EUC_2D costs use the TSPLIB convention: nearest-integer rounded Euclidean
    distance. Unsupported edge weight types are rejected by name.
    """
    lines = text.splitlines()
    header: dict[str, str] = {}
    i = 0
    section = None
    while i < len(lines):
        raw = lines[i].strip()
        i += 1
        if not raw:
            continue
        if raw.upper().startswith(("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION")):
            section = raw.upper().split()[0]
            break
        if raw.upper() == "EOF":
            break
        if ":" in raw:
            key, _, val = raw.partition(":")
            header[key.strip().upper()] = val.strip()
        else:
            parts = raw.split(None, 1)
            if len(parts) == 2:
                header[parts[0].upper()] = parts[1]

    _require("DIMENSION" in header, "missing DIMENSION")
    try:
        n = int(header["DIMENSION"])
    except ValueError:
        raise ParseError(f"bad DIMENSION value: {header['DIMENSION']!r}") from None
    name = header.get("NAME", "unnamed")
    ewt = header.get("EDGE_WEIGHT_TYPE", "").upper()
    _require(ewt in ("EUC_2D", "EXPLICIT"),
             f"unsupported EDGE_WEIGHT_TYPE: {ewt or '<missing>'}")

    if ewt == "EUC_2D":
        _require(section == "NODE_COORD_SECTION",
                 "EUC_2D instance without NODE_COORD_SECTION")
        coords = np.empty((n, 2), dtype=np.float64)
        seen = np.zeros(n, dtype=bool)
        count = 0
        while i < len(lines) and count < n:
            raw = lines[i].strip()
            lineno = i + 1
            i += 1
            if not raw:
                continue
            if raw.upper() == "EOF":
                break
            parts = raw.split()
            try:
                idx = int(parts[0])
                x, y = float(parts[1]), float(parts[2])
            except (IndexError, ValueError):
                raise ParseError(f"malformed coordinate line {lineno}: {raw!r}") from None
            _require(1 <= idx <= n, f"coordinate index {idx} out of range at line {lineno}")
            _require(not seen[idx - 1], f"duplicate coordinate index {idx} at line {lineno}")
            seen[idx - 1] = True
            coords[idx - 1] = (x, y)
            count += 1
        _require(count == n, f"expected {n} coordinates, found {count}")
        d = coords[:, None, :] - coords[None, :, :]
        costs = np.floor(np.sqrt((d * d).sum(axis=2)) + 0.5)
        np.fill_diagonal(costs, 0.0)
        return TspInstance(name=name, n=n, costs=costs, metric_tag="EUC_2D", coords=coords)

    # EXPLICIT
    fmt = header.get("EDGE_WEIGHT_FORMAT", "").upper()
    _require(fmt == "FULL_MATRIX", f"unsupported EDGE_WEIGHT_FORMAT: {fmt or '<missing>'}")
    _require(section == "EDGE_WEIGHT_SECTION",
             "EXPLICIT instance without EDGE_WEIGHT_SECTION")
    values: list[float] = []
    while i < len(lines):
        raw = lines[i].strip()
        lineno = i + 1
        i += 1
        if not raw:
            continue
        if raw.upper() == "EOF":
            break
        try:
            values.extend(float(tok) for tok in raw.split())
        except ValueError:
            raise ParseError(f"malformed weight line {lineno}: {raw!r}") from None
    _require(len(values) == n * n,
             f"expected {n * n} matrix entries, found {len(values)}")
    costs = np.asarray(values, dtype=np.float64).reshape(n, n)
    return TspInstance(name=name, n=n, costs=costs, metric_tag="EXPLICIT")


def parse_orlib_bqp(text: str) -> QuboInstance:
    """Parse an OR-Library sparse UBQP: header ``n nnz`` then 1-indexed triples.

    Each (i, j, value) triple is mirrored into both q[i][j] and q[j][i];
    entries not listed are zero. Duplicate pairs and out-of-range indices
    are rejected.
    """
    tokens = text.split()
    _require(len(tokens) >= 2, "missing header (n, nonzero count)")
    try:
        n, nnz = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"bad header tokens: {tokens[:2]}") from None
    _require(n >= 1, f"bad variable count {n}")
    _require(nnz >= 0, f"bad nonzero count {nnz}")
    _require(len(tokens) == 2 + 3 * nnz,
             f"expected {3 * nnz} triple tokens, found {len(tokens) - 2}")
    q = np.zeros((n, n), dtype=np.float64)
    filled = set()
    for k in range(nnz):
        si, sj, sv = tokens[2 + 3 * k: 5 + 3 * k]
        try:
            i, j, v = int(si), int(sj), float(sv)
        except ValueError:
            raise ParseError(f"malformed triple #{k + 1}: {(si, sj, sv)}") from None
        _require(1 <= i <= n and 1 <= j <= n,
                 f"triple #{k + 1} index out of [1, {n}]: ({i}, {j})")
        key = (min(i, j), max(i, j))
        _require(key not in filled, f"duplicate triple for pair ({i}, {j})")
        filled.add(key)
        q[i - 1, j - 1] = v
        q[j - 1, i - 1] = v
    return QuboInstance(name="orlib_bqp", n=n, q=q)


# ---------------------------------------------------------------------------
# solutions


@dataclass
class Tour:
    """A TSP tour: a permutation of {0..n-1} plus its cached cost."""

    order: np.ndarray
    cached_cost: float

    def copy(self) -> "Tour":
        return Tour(self.order.copy(), self.cached_cost)

    @property
    def n(self) -> int:
        return self.order.shape[0]


def tour_cost(inst: TspInstance, tour, split=None):
    """Cost of a tour; with a split, the (f1, f2) pair instead.

    Accepts a Tour or a bare order array.
    """
    order = tour.order if isinstance(tour, Tour) else np.asarray(tour)
    nxt = np.roll(order, -1)
    if split is None:
        return float(inst.costs[order, nxt].sum())
    return (float(split.mat1[order, nxt].sum()), float(split.mat2[order, nxt].sum()))


def make_tour(inst: TspInstance, order) -> Tour:
    order = np.asarray(order, dtype=np.intp)
    if sorted(order.tolist()) != list(range(inst.n)):
        raise ValueError("order is not a permutation of 0..n-1")
    return Tour(order, tour_cost(inst, order))


def random_tour(inst: TspInstance, rng: np.random.Generator) -> Tour:
    return make_tour(inst, rng.permutation(inst.n))


def two_opt_delta(inst: TspInstance, tour: Tour, i: int, j: int, split=None):
    """Cost change of reversing tour positions [i+1..j] (a 2-Opt move).

    The move removes edges (t[i], t[i+1]) and (t[j], t[j+1]) and adds
    (t[i], t[j]) and (t[i+1], t[j+1]). Degenerate position pairs that
    recreate the same tour yield 0. With a split, returns (delta1, delta2).
    """
    n = tour.n
    if not (0 <= i < j <= n - 1):
        raise ValueError(f"need 0 <= i < j <= n-1, got ({i}, {j})")
    t = tour.order
    if j == i + 1 or (i == 0 and j == n - 1):
        return (0.0, 0.0) if split is not None else 0.0
    a, b = t[i], t[i + 1]
    c, d = t[j], t[(j + 1) % n]
    if split is None:
        m = inst.costs
        return float(m[a, c] + m[b, d] - m[a, b] - m[c, d])
    d1 = float(split.mat1[a, c] + split.mat1[b, d] - split.mat1[a, b] - split.mat1[c, d])
    d2 = float(split.mat2[a, c] + split.mat2[b, d] - split.mat2[a, b] - split.mat2[c, d])
    return d1, d2


def apply_two_opt(tour: Tour, i: int, j: int, delta: float):
    """Apply the 2-Opt move (i, j) in place, updating the cached cost."""
    tour.order[i + 1: j + 1] = tour.order[i + 1: j + 1][::-1]
    tour.cached_cost += delta


@dataclass
class BitVector:
    """A UBQP solution: bits, cached objective value and per-bit flip gains.

    gains[i] is f(flip_i(z)) - f(z) and is kept current through flips.
    When built with a split, value1/gains1 track the first sub-objective the
    same way (the second follows by subtraction); the split is kept so flips
    can maintain them and rebuilds can restore them.
    """

    bits: np.ndarray
    cached_value: float
    gains: np.ndarray
    value1: float | None = None
    gains1: np.ndarray | None = None
    split: object | None = None  # the SplitCosts value1/gains1 follow

    def copy(self) -> "BitVector":
        return BitVector(self.bits.copy(), self.cached_value, self.gains.copy(),
                         self.value1,
                         None if self.gains1 is None else self.gains1.copy(),
                         self.split)

    @property
    def n(self) -> int:
        return self.bits.shape[0]


def qubo_value(inst: QuboInstance, bits, mat: np.ndarray | None = None) -> float:
    """z^T M z for M = Q by default (or a split sub-matrix)."""
    z = np.asarray(bits, dtype=np.float64)
    m = inst.q if mat is None else mat
    return float(z @ m @ z)


def _flip_gains(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    # delta_i = s_i * (q_ii + 2 * sum_{j != i} q_ij z_j), s_i = 1 - 2 z_i
    diag = np.diag(mat)
    s = 1.0 - 2.0 * z
    return s * (diag + 2.0 * (mat @ z - diag * z))


def make_bitvector(inst: QuboInstance, bits, split=None) -> BitVector:
    z = np.asarray(bits, dtype=np.float64)
    if z.shape != (inst.n,) or not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError("bits must be a 0/1 vector of length n")
    bv = BitVector(z, qubo_value(inst, z), _flip_gains(inst.q, z))
    if split is not None:
        bv.value1 = qubo_value(inst, z, split.mat1)
        bv.gains1 = _flip_gains(split.mat1, z)
        bv.split = split
    return bv


def flip_delta_and_update(inst: QuboInstance, bv: BitVector, i: int, split=None):
    """Flip bit i in place; returns its pre-flip gain (pair when split given).

    All n gains are refreshed in O(n) after the flip. A BitVector built with
    a split keeps its sub-objective gains current on every flip.
    """
    if not 0 <= i < bv.n:
        raise ValueError(f"bit index {i} out of range")
    if split is not None and bv.gains1 is None:
        raise ValueError("BitVector was built without a split")
    z = bv.bits
    s = 1.0 - 2.0 * z
    delta = float(bv.gains[i])
    bv.gains += (2.0 * s[i]) * inst.q[i] * s
    bv.gains[i] = -delta
    out = delta
    if bv.gains1 is not None:
        d1 = float(bv.gains1[i])
        bv.gains1 += (2.0 * s[i]) * bv.split.mat1[i] * s
        bv.gains1[i] = -d1
        bv.value1 += d1
        if split is not None:
            out = (d1, delta - d1)
    z[i] = 1.0 - z[i]
    bv.cached_value += delta
    return out


# ---------------------------------------------------------------------------
# neighbor lists


@dataclass(frozen=True)
class NeighborList:
    """Per-city nearest-neighbor candidate lists, ties broken by city index."""

    k: int
    lists: np.ndarray  # (n, k) city indices, ascending cost

    @cached_property
    def rows(self) -> list[list[int]]:
        """The lists as nested Python lists, for scalar-indexed inner loops."""
        return self.lists.tolist()


def build_neighbor_lists(inst: TspInstance, k: int = 20) -> NeighborList:
    """The k nearest other cities of every city, by edge cost then index."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = inst.n
    k_eff = min(k, n - 1)
    lists = np.empty((n, k_eff), dtype=np.intp)
    idx = np.arange(n)
    for city in range(n):
        order = np.lexsort((idx, inst.costs[city]))
        order = order[order != city]
        lists[city] = order[:k_eff]
    lists.setflags(write=False)
    return NeighborList(k=k_eff, lists=lists)


# ---------------------------------------------------------------------------
# bundled + synthetic instances


def load_bundled_tsp(name: str) -> TspInstance:
    """Load a TSP instance shipped with the package (e.g. "eil51")."""
    path = resources.files("sumparts.data").joinpath(f"{name}.tsp")
    return parse_tsplib(path.read_text())


def bundled_optima() -> dict[str, float]:
    import json

    path = resources.files("sumparts.data").joinpath("optima.json")
    return {k: float(v) for k, v in json.loads(path.read_text()).items()}


def random_tsp_instance(n: int, seed: int, box: float = 1000.0) -> TspInstance:
    """Random EUC_2D instance with integer-rounded costs, for oracles and demos."""
    rng = np.random.default_rng(np.random.SeedSequence([0x7359, seed]))
    coords = rng.uniform(0.0, box, size=(n, 2))
    d = coords[:, None, :] - coords[None, :, :]
    costs = np.floor(np.sqrt((d * d).sum(axis=2)) + 0.5)
    np.fill_diagonal(costs, 0.0)
    return TspInstance(name=f"rand{n}-{seed}", n=n, costs=costs,
                       metric_tag="EUC_2D", coords=coords)


def random_qubo_instance(n: int, seed: int, density: float = 0.1,
                         magnitude: int = 100) -> QuboInstance:
    """Random symmetric UBQP in the OR-Library style (uniform integer weights)."""
    rng = np.random.default_rng(np.random.SeedSequence([0x9B05, seed]))
    q = np.zeros((n, n))
    iu, ju = np.triu_indices(n)
    mask = rng.random(iu.shape[0]) < density
    vals = rng.integers(-magnitude, magnitude + 1, size=iu.shape[0]).astype(np.float64)
    q[iu[mask], ju[mask]] = vals[mask]
    q[ju[mask], iu[mask]] = vals[mask]
    return QuboInstance(name=f"randq{n}-{seed}", n=n, q=q)


def synthetic_orlib_text(n: int, seed: int, density: float = 0.1,
                         magnitude: int = 100) -> str:
    """OR-Library-format text for a random UBQP; exercises the sparse parser."""
    inst = random_qubo_instance(n, seed, density, magnitude)
    iu, ju = np.nonzero(np.triu(inst.q != 0.0))
    lines = [f"{n} {iu.shape[0]}"]
    lines += [f"{i + 1} {j + 1} {int(inst.q[i, j])}" for i, j in zip(iu, ju)]
    return "\n".join(lines) + "\n"
