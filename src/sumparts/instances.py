"""TSP and UBQP instances: parsing, evaluation, delta moves and neighbor lists.

Costs are stored as float64 even for integer instances because cost splitting
draws from a continuous distribution. Incremental (delta) evaluation must agree
with full recomputation to EVAL_REL_TOL relative tolerance.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

EVAL_REL_TOL = 1e-9

MINIMIZE = 1
MAXIMIZE = -1


class ParseError(ValueError):
    """Raised when an instance file does not conform to its declared format."""


def check_numbers(obj, integers=(), reals=(), optional=(), non_negative=()):
    """Raise ValueError unless obj's named fields hold integers or real numbers.

    Fields in optional may also hold None, and those in non_negative must
    be at least 0. Bools are refused: JSON true is not 1. NaN is refused
    too: every range rule compares, and no comparison with NaN holds.
    """
    for name in (*integers, *reals, *optional):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        kind, what = ((numbers.Integral, "an integer") if name in integers
                      else (numbers.Real, "a number"))
        if isinstance(value, bool) or not isinstance(value, kind) or value != value:
            raise ValueError(f"{name} must be {what}, got {value!r}")
        if name in non_negative and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# instance types


def _finite(m: np.ndarray) -> bool:
    """Whether every entry of m is finite; min and max spread any nan or inf
    without an isfinite temporary of m's size."""
    return math.isfinite(m.min()) and math.isfinite(m.max())


@dataclass(frozen=True)
class TspInstance:
    """Symmetric TSP with a full cost matrix (EUC_2D coordinates are not kept).

    tol, the least improvement a descent counts, is EVAL_REL_TOL of the largest cost.
    """

    name: str
    n: int
    costs: np.ndarray

    sense = MINIMIZE
    kind = "tsp"

    def __post_init__(self):
        c = np.ascontiguousarray(self.costs, dtype=np.float64)
        if self.n < 4:
            raise ValueError(f"TSP needs n >= 4, got n={self.n}")
        if c.shape != (self.n, self.n):
            raise ValueError(f"cost matrix shape {c.shape} != ({self.n}, {self.n})")
        if not _finite(c):
            raise ValueError("cost matrix must be finite")
        if not np.array_equal(c, c.T):
            raise ValueError("cost matrix must be symmetric")
        if np.any(np.diag(c) != 0.0):
            raise ValueError("cost matrix diagonal must be zero")
        if np.any(c < 0.0):
            raise ValueError("edge costs must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "costs", c)

    @cached_property
    def max_cost(self) -> float:
        return float(self.costs.max())

    @cached_property
    def tol(self) -> float:
        return EVAL_REL_TOL * self.max_cost

    @cached_property
    def nearest(self) -> np.ndarray:
        """Each city's least cost to another city."""
        c = self.costs.copy()
        np.fill_diagonal(c, np.inf)
        out = c.min(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def cost_rows(self) -> list[list[float]]:
        """The cost matrix as nested lists, for scalar-indexed inner loops."""
        return self.costs.tolist()

    @cached_property
    def units(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges i < j a split draws for: (rows, columns, costs)."""
        iu, ju = np.triu_indices(self.n, k=1)
        return iu, ju, self.costs[iu, ju]


@dataclass(frozen=True)
class QuboInstance:
    """Unconstrained binary quadratic program, maximize z^T Q z.

    Q is stored symmetric; an off-diagonal unit therefore contributes twice
    to the objective, matching the OR-Library convention. tol, the least
    improvement a descent or tabu search counts, is EVAL_REL_TOL of the sum
    of |q_ij|, which bounds |z^T Q z| and every flip gain.
    """

    name: str
    n: int
    q: np.ndarray

    sense = MAXIMIZE
    kind = "qubo"

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if self.n < 1:
            raise ValueError("UBQP needs n >= 1")
        if q.shape != (self.n, self.n):
            raise ValueError(f"Q shape {q.shape} != ({self.n}, {self.n})")
        if not _finite(q):
            raise ValueError("Q must be finite")
        if not np.array_equal(q, q.T):
            raise ValueError("Q must be stored symmetric")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @cached_property
    def tol(self) -> float:
        # row by row: |Q| as one temporary would add its size to peak memory
        return EVAL_REL_TOL * float(sum(np.abs(row).sum() for row in self.q))

    @cached_property
    def units(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero cells i <= j a split draws for: (rows, columns, costs),
        row-major. An instance built by `_qubo_from_cells` is given them."""
        iu, ju = np.nonzero(np.triu(self.q != 0.0))
        return iu, ju, self.q[iu, ju]

    @cached_property
    def _flip_row(self) -> np.ndarray:
        """flip_delta_and_update's product row, written anew by every flip."""
        return np.empty(self.n)


def _qubo_from_cells(name: str, n: int, rows: np.ndarray, cols: np.ndarray,
                     values: np.ndarray) -> QuboInstance:
    """The UBQP whose cells (rows[k], cols[k]) hold values[k]; all others are 0.

    The cells have rows <= cols and come in row-major order without repeats.
    Each is mirrored into q, which is checked as any Q is, and the cells
    whose value is nonzero become the instance's units, so no pass over q
    has to find them again.
    """
    q = np.zeros((n, n), dtype=np.float64)
    q[rows, cols] = values
    q[cols, rows] = values
    inst = QuboInstance(name=name, n=n, q=q)
    nonzero = values != 0.0
    if not nonzero.all():
        rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    inst.__dict__["units"] = (rows, cols, values)
    return inst


# ---------------------------------------------------------------------------
# parsing


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _tsplib_lines(text: str):
    """(line number, stripped line) of each non-blank line before EOF."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        raw = raw.strip()
        if raw.upper() == "EOF":
            return
        if raw:
            yield lineno, raw


def parse_tsplib(text: str) -> TspInstance:
    """Parse a TSPLIB file with EDGE_WEIGHT_TYPE EUC_2D or EXPLICIT/FULL_MATRIX.

    EUC_2D costs use the TSPLIB convention: nearest-integer rounded Euclidean
    distance. Unsupported edge weight types are rejected by name, and a
    coordinate or weight that is not finite (nan, inf or an overflow such
    as 1e400) by its line.
    """
    lines = _tsplib_lines(text)
    header: dict[str, str] = {}
    section = None
    for _, raw in lines:
        if raw.upper().startswith(("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION")):
            section = raw.upper().split()[0]
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
        for lineno, raw in lines:
            if count == n:
                break  # lines after the n-th coordinate are not read
            parts = raw.split()
            try:
                idx = int(parts[0])
                x, y = float(parts[1]), float(parts[2])
            except (IndexError, ValueError):
                raise ParseError(f"malformed coordinate line {lineno}: {raw!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite coordinate line {lineno}: {raw!r}")
            _require(1 <= idx <= n, f"coordinate index {idx} out of range at line {lineno}")
            _require(not seen[idx - 1], f"duplicate coordinate index {idx} at line {lineno}")
            seen[idx - 1] = True
            coords[idx - 1] = (x, y)
            count += 1
        _require(count == n, f"expected {n} coordinates, found {count}")
        return TspInstance(name=name, n=n, costs=_euc_2d_costs(coords))

    # EXPLICIT
    fmt = header.get("EDGE_WEIGHT_FORMAT", "").upper()
    _require(fmt == "FULL_MATRIX", f"unsupported EDGE_WEIGHT_FORMAT: {fmt or '<missing>'}")
    _require(section == "EDGE_WEIGHT_SECTION",
             "EXPLICIT instance without EDGE_WEIGHT_SECTION")
    values: list[float] = []
    for lineno, raw in lines:
        try:
            row = [float(tok) for tok in raw.split()]
        except ValueError:
            raise ParseError(f"malformed weight line {lineno}: {raw!r}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"non-finite weight line {lineno}: {raw!r}")
        values.extend(row)
    _require(len(values) == n * n,
             f"expected {n * n} matrix entries, found {len(values)}")
    costs = np.asarray(values, dtype=np.float64).reshape(n, n)
    return TspInstance(name=name, n=n, costs=costs)


def _euc_2d_costs(coords: np.ndarray) -> np.ndarray:
    """TSPLIB EUC_2D costs of (n, 2) coordinates: nearest-integer rounded distances."""
    # a cost that overflows is inf, which TspInstance then refuses as not finite
    with np.errstate(over="ignore"):
        d = coords[:, None, :] - coords[None, :, :]
        return np.floor(np.sqrt((d * d).sum(axis=2)) + 0.5)  # the diagonal rounds to 0


def _convert_column(tokens: list[str], convert) -> list:
    """convert of each token, up to the first that it refuses."""
    values = []
    try:
        values.extend(map(convert, tokens))  # keeps what it appended before a raise
    except ValueError:
        pass
    return values


def _convert_indices(tokens: list[str]) -> list:
    """_convert_column(tokens, int), calling int once per distinct spelling.

    A column in which over half the tokens are distinct is converted token
    by token: there the memo costs more than the calls it saves.
    """
    distinct = set(tokens)
    if 2 * len(distinct) > len(tokens):
        return _convert_column(tokens, int)
    try:
        memo = {token: int(token) for token in distinct}
    except ValueError:
        return _convert_column(tokens, int)  # the prefix before the first refusal
    return list(map(memo.__getitem__, tokens))


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or its length when there is none."""
    return int(mask.argmax()) if mask.any() else mask.shape[0]


def parse_orlib_bqp(text: str, name: str = "orlib_bqp") -> QuboInstance:
    """Parse an OR-Library sparse UBQP: header ``n nnz`` then 1-indexed triples.

    Each (i, j, value) triple is mirrored into both q[i][j] and q[j][i];
    entries not listed are zero. Indices are read by Python's int (once
    per spelling where a column repeats them) and values by its float. A
    triple is refused, in this order, when a token does not convert
    (malformed) or its value is not finite (nan, inf or an overflow such as
    1e400), when an index is outside [1, n], and when its pair, in either
    order, was listed before. Of several bad triples the first in the file
    is reported, and q is allocated only once every triple has passed. The
    file has no name line: the instance is called name.
    """
    n, pairs, order, values = _checked_triples(text)
    # sorted only now, after the checks' token lists are freed: the arrays the
    # instance keeps then fill their space instead of landing above it
    cells = pairs[order]
    return _qubo_from_cells(name, n, cells // n, cells % n, values[order])


def _checked_triples(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """parse_orlib_bqp's checks. Returns n, each triple's cell i <= j as the
    flat index i * n + j (in file order), the order that sorts them, and
    the values."""
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
    # a q numpy cannot shape (n >= 2**30) is refused with np.zeros's own error;
    # a zero-stride view asks without holding memory. Below that, i * n + j fits.
    np.ndarray((n, n), np.float64, buffer=np.zeros(1), strides=(0, 0))

    # each check runs on the triples before every earlier check's first
    # failure, so the first failing triple is reported with its first fault
    ii = _convert_indices(tokens[2::3])
    jj = _convert_indices(tokens[3::3])
    vv = _convert_column(tokens[4::3], float)
    converted = min(len(ii), len(jj), len(vv))
    values = np.array(vv[:converted], dtype=np.float64)
    finite = _first(~np.isfinite(values))
    # Python ints beyond int64 make an object or float array; both compare exactly enough
    i, j = np.array(ii[:finite]), np.array(jj[:finite])
    in_range = _first((i < 1) | (i > n) | (j < 1) | (j > n))
    i = i[:in_range].astype(np.intp) - 1
    j = j[:in_range].astype(np.intp) - 1
    pairs = np.minimum(i, j) * n + np.maximum(i, j)
    order = np.argsort(pairs, kind="stable")  # a pair's earliest triple sorts first
    ranked = pairs[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    unique = int(repeats.min()) if repeats.size else in_range

    if unique < in_range:
        raise ParseError(f"duplicate triple for pair ({ii[unique]}, {jj[unique]})")
    if in_range < finite:
        k = in_range
        raise ParseError(f"triple #{k + 1} index out of [1, {n}]: ({ii[k]}, {jj[k]})")
    if finite < nnz:
        k = finite
        fault = "non-finite value in" if k < converted else "malformed"
        raise ParseError(f"{fault} triple #{k + 1}: {tuple(tokens[2 + 3 * k: 5 + 3 * k])}")
    return n, pairs, order, values


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
    # flat indices of the edges (order[i], order[i + 1]), the last one wrapping
    at = order * inst.n
    at[:-1] += order[1:]
    at[-1] += order[0]
    costs = inst.costs.ravel().take(at)
    if split is None:
        return float(costs.sum())
    c1 = split.mat1.ravel().take(at)
    return float(c1.sum()), float((costs - c1).sum())


def two_opt_delta(inst: TspInstance, tour: Tour, i: int, j: int) -> float:
    """Cost change of reversing tour positions [i+1..j] (a 2-Opt move).

    The move removes edges (t[i], t[i+1]) and (t[j], t[j+1]) and adds
    (t[i], t[j]) and (t[i+1], t[j+1]). Degenerate position pairs that
    recreate the same tour yield 0.
    """
    n = tour.n
    if not (0 <= i < j <= n - 1):
        raise ValueError(f"need 0 <= i < j <= n-1, got ({i}, {j})")
    t = tour.order
    if j == i + 1 or (i == 0 and j == n - 1):
        return 0.0
    a, b = t[i], t[i + 1]
    c, d = t[j], t[(j + 1) % n]
    m = inst.costs
    return float(m[a, c] + m[b, d] - m[a, b] - m[c, d])


@dataclass
class BitVector:
    """A UBQP solution: bits, cached objective value and per-bit flip gains.

    gains[i] is f(flip_i(z)) - f(z) and is kept current through flips, and so
    is twice[i] = 2 - 4 bits[i] (exactly +2 or -2), the row the flip kernel
    multiplies by. A BitVector holds no sub-objective state: a split-aware
    FlipNeighborhood computes the (f1, f2) gains from the bits when it needs
    them.
    """

    bits: np.ndarray
    cached_value: float
    gains: np.ndarray
    twice: np.ndarray = field(repr=False)

    def copy(self) -> "BitVector":
        return BitVector(self.bits.copy(), self.cached_value, self.gains.copy(),
                         self.twice.copy())

    @property
    def n(self) -> int:
        return self.bits.shape[0]


def qubo_value(inst: QuboInstance, bits) -> float:
    """z^T Q z."""
    z = np.asarray(bits, dtype=np.float64)
    return float(z @ inst.q @ z)


def flip_gains(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gains of every 1-bit flip of z under z^T M z (M = Q or a split sub-matrix)."""
    # delta_i = s_i * (q_ii + 2 * sum_{j != i} q_ij z_j), s_i = 1 - 2 z_i
    diag = np.diag(mat)
    s = 1.0 - 2.0 * z
    return s * (diag + 2.0 * (mat @ z - diag * z))


def make_bitvector(inst: QuboInstance, bits) -> BitVector:
    """A BitVector of bits with its value and gains computed in full from Q."""
    z = np.asarray(bits, dtype=np.float64)
    if z.shape != (inst.n,) or not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError("bits must be a 0/1 vector of length n")
    return BitVector(z, qubo_value(inst, z), flip_gains(inst.q, z), 2.0 - 4.0 * z)


def flip_delta_and_update(inst: QuboInstance, bv: BitVector, i: int) -> float:
    """Flip bit i in place; returns its pre-flip gain.

    All n gains are refreshed in O(n) after the flip: gains[j] moves by
    q_ij * 2 s_i s_j (s = 1 - 2 bits before the flip). The kernel forms
    x_j = q_ij * twice_j, which is exact (a factor of +-2 only scales and
    signs q_ij), then adds x to the gains when s_i = +1 and subtracts it
    when s_i = -1. Since g - x equals g + (-x) bit for bit, every gain is
    the one q_ij * (2 s_i s_j) gives, however that product is grouped. x
    goes to a row the instance keeps, so a flip allocates nothing. Only
    f's gains are kept; sub-objective gains are computed from the bits on
    demand (FlipNeighborhood.split_deltas).
    """
    if not 0 <= i < bv.n:
        raise ValueError(f"bit index {i} out of range")
    delta = _flip(inst.q[i], bv.gains, bv.twice, bv.bits, i, inst._flip_row)
    bv.cached_value += delta
    return delta


def _flip(row, gains, twice, bits, i, product) -> float:
    """Flip bit i of a BitVector's caches, with row = q_i; returns its gain.

    Writes q_i * twice into the caller's row product, then updates gains,
    twice and bits in place but not the cached value; the caller adds the
    returned gain. The one copy of the flip arithmetic, shared by
    flip_delta_and_update and tabu_search.
    """
    delta, t = gains.item(i), twice.item(i)
    np.multiply(row, twice, out=product)
    if t > 0.0:
        np.add(gains, product, out=gains)
    else:
        np.subtract(gains, product, out=gains)
    gains[i] = -delta
    twice[i] = -t
    bits[i] = 1.0 - bits.item(i)
    return delta


# ---------------------------------------------------------------------------
# neighbor lists


def build_neighbor_lists(inst: TspInstance, k: int) -> list[list[int]]:
    """The k (at most n - 1) nearest other cities of every city, by edge cost then index.

    Row c lists city c's candidates as nested Python lists, for the
    scalar-indexed LK loops.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    idx = np.arange(inst.n)
    rows = []
    for city in range(inst.n):
        order = np.lexsort((idx, inst.costs[city]))
        rows.append(order[order != city][:k].tolist())
    return rows


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


def random_tsp_instance(n: int, seed: int) -> TspInstance:
    """Random EUC_2D instance on a 1000 x 1000 box, for oracles and demos."""
    rng = np.random.default_rng(np.random.SeedSequence([0x7359, seed]))
    coords = rng.uniform(0.0, 1000.0, size=(n, 2))
    return TspInstance(name=f"rand{n}-{seed}", n=n, costs=_euc_2d_costs(coords))


def random_qubo_instance(n: int, seed: int, density: float = 0.1) -> QuboInstance:
    """Random symmetric UBQP in the OR-Library style (uniform integers in [-100, 100])."""
    rng = np.random.default_rng(np.random.SeedSequence([0x9B05, seed]))
    iu, ju = np.triu_indices(n)
    mask = rng.random(iu.shape[0]) < density
    vals = rng.integers(-100, 101, size=iu.shape[0]).astype(np.float64)
    return _qubo_from_cells(f"randq{n}-{seed}", n, iu[mask], ju[mask], vals[mask])


def brute_force_tsp(inst: TspInstance) -> float:
    """Exact optimum of a symmetric TSP over all (n-1)!/2 tours (small n only)."""
    best = None
    for perm in itertools.permutations(range(1, inst.n)):
        if perm[0] > perm[-1]:
            continue  # each direction once
        cost = tour_cost(inst, np.asarray((0,) + perm))
        if best is None or cost < best:
            best = cost
    return best


def brute_force_qubo(inst: QuboInstance) -> float:
    """Exact optimum of a UBQP over all 2^n bit vectors (vectorized, small n only)."""
    n = inst.n
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    return float(np.einsum("ij,jk,ik->i", bits, inst.q, bits).max())


def synthetic_orlib_text(n: int, seed: int, density: float = 0.1) -> str:
    """OR-Library-format text for a random UBQP; exercises the sparse parser."""
    iu, ju, q = random_qubo_instance(n, seed, density).units
    lines = [f"{n} {iu.shape[0]}"]
    lines += [f"{i + 1} {j + 1} {int(v)}" for i, j, v in zip(iu, ju, q)]
    return "\n".join(lines) + "\n"
