import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import half_split, make_tour
from sumparts.decomposition import SplitParams, sample_split
from sumparts.instances import (
    EVAL_REL_TOL,
    ParseError,
    QuboInstance,
    TspInstance,
    _convert_indices,
    build_neighbor_lists,
    flip_delta_and_update,
    make_bitvector,
    parse_orlib_bqp,
    parse_tsplib,
    qubo_value,
    random_qubo_instance,
    random_tsp_instance,
    synthetic_orlib_text,
    tour_cost,
    two_opt_delta,
)
from sumparts.search import (
    Budget,
    FlipNeighborhood,
    TwoOptNeighborhood,
    random_flip_perturbation,
    tabu_search,
)

UNIT_SQUARE = """NAME : square
TYPE : TSP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 0
3 1 1
4 0 1
EOF
"""

# same square scaled by 10 so the diagonal stays longer than the sides
SQUARE10 = UNIT_SQUARE.replace("1 0\n", "10 0\n").replace("1 1\n", "10 10\n").replace("0 1\n", "0 10\n")

EXPLICIT4 = """NAME: m
DIMENSION: 4
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 2 3 4
2 0 5 6
3 5 0 7
4 6 7 0
EOF
"""


class TestParseTsplib:
    def test_eil51_dimensions(self, eil51):
        assert eil51.n == 51
        assert eil51.costs.shape == (51, 51)

    def test_unit_square_rounding(self):
        # sides are 1; the sqrt(2) diagonal rounds down to 1 under the
        # nearest-integer convention
        inst = parse_tsplib(UNIT_SQUARE)
        assert inst.costs[0][1] == 1
        assert inst.costs[0][2] == 1
        assert inst.costs[1][3] == 1

    def test_two_city_file_rejected(self):
        text = UNIT_SQUARE.replace("DIMENSION : 4", "DIMENSION : 2")
        text = "\n".join(text.splitlines()[:7]) + "\nEOF\n"
        with pytest.raises(ValueError):
            parse_tsplib(text)

    def test_unsupported_weight_type_named(self):
        with pytest.raises(ParseError, match="GEO"):
            parse_tsplib(UNIT_SQUARE.replace("EUC_2D", "GEO"))

    def test_malformed_coordinate_reports_line(self):
        bad = UNIT_SQUARE.replace("3 1 1", "3 one 1")
        with pytest.raises(ParseError, match="line 8"):
            parse_tsplib(bad)

    def test_explicit_full_matrix(self):
        inst = parse_tsplib(EXPLICIT4)
        assert inst.costs[2][3] == 7
        assert tour_cost(inst, np.arange(4)) == 2 + 5 + 7 + 4

    def test_asymmetric_explicit_rejected(self):
        text = """DIMENSION: 4
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 2 3 4
9 0 5 6
3 5 0 7
4 6 7 0
"""
        with pytest.raises(ValueError, match="symmetric"):
            parse_tsplib(text)

    @pytest.mark.parametrize("base, text, error", [
        (UNIT_SQUARE, UNIT_SQUARE.replace("2 1 0\n", "2 1 0\n\n  \n"), None),
        (UNIT_SQUARE, UNIT_SQUARE.replace("2 1 0\n", "2 1 0\n\n").replace("3 1 1", "3 one 1"),
         "malformed coordinate line 9: '3 one 1'"),
        (EXPLICIT4, EXPLICIT4.replace("4 6 7 0\n", "4 6 7\neof\n0\n"), "found 15"),
        (EXPLICIT4, EXPLICIT4 + "not a weight\n", None),
        (UNIT_SQUARE, UNIT_SQUARE.replace("EOF", "DISPLAY_DATA_SECTION\n1 0 0\nEOF"), None),
        (UNIT_SQUARE, UNIT_SQUARE.replace("DIMENSION : 4", "DIMENSION 4"), None),
        (UNIT_SQUARE, UNIT_SQUARE.replace("3 1 1", "2 1 1"),
         "duplicate coordinate index 2 at line 8"),
        (UNIT_SQUARE, UNIT_SQUARE.replace("3 1 1", "3 nan 1"), "non-finite coordinate line 8: '3 nan 1'"),
        (UNIT_SQUARE, UNIT_SQUARE.replace("3 1 1", "9 1 -inf"), "non-finite coordinate line 8: '9 1 -inf'"),
        (UNIT_SQUARE, UNIT_SQUARE.replace("3 1 1", "3 1e400 1"), "non-finite coordinate line 8: '3 1e400 1'"),
        (EXPLICIT4, EXPLICIT4.replace("3 5 0 7", "3 5 0 inf"), "non-finite weight line 8: '3 5 0 inf'"),
        (EXPLICIT4, EXPLICIT4.replace("3 5 0 7", "3 nan x 7"), "malformed weight line 8: '3 nan x 7'"),
        (UNIT_SQUARE, UNIT_SQUARE.replace("DIMENSION : 4", "DIMENSION : four"),
         "bad DIMENSION value: 'four'"),
    ], ids=["blank-lines-in-section", "line-numbers-count-blank-lines", "eof-ends-weights",
            "text-after-eof-ignored", "lines-after-last-coordinate-ignored",
            "header-without-colon", "duplicate-index-line", "nan-coordinate",
            "non-finite-before-index-range", "overflowing-coordinate", "inf-weight",
            "malformed-before-non-finite-weight", "bad-dimension"])
    def test_line_scan(self, base, text, error):
        if error is None:
            assert np.array_equal(parse_tsplib(text).costs, parse_tsplib(base).costs)
        else:
            with pytest.raises(ParseError, match=re.escape(error)):
                parse_tsplib(text)


class TestParseOrlib:
    def test_single_diagonal_term(self):
        inst = parse_orlib_bqp("2 1\n1 1 5\n")
        assert inst.n == 2
        assert qubo_value(inst, [1, 0]) == 5.0
        assert qubo_value(inst, [0, 1]) == 0.0

    def test_three_triples_against_enumeration(self):
        inst = parse_orlib_bqp("2 3\n1 1 1\n2 2 1\n1 2 2\n")
        # brute force over all four bit vectors; off-diagonal counts twice
        expected = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 6.0}
        for bits, val in expected.items():
            assert qubo_value(inst, list(bits)) == val

    def test_synthetic_bqp1000_profile(self):
        text = synthetic_orlib_text(1000, seed=1)
        inst = parse_orlib_bqp(text)
        assert inst.n == 1000
        assert np.array_equal(inst.q, inst.q.T)
        density = np.count_nonzero(np.triu(inst.q)) / (1000 * 1001 / 2)
        assert 0.08 < density < 0.12

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of"):
            parse_orlib_bqp("2 1\n3 1 5\n")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_orlib_bqp("3 2\n1 2 5\n2 1 4\n")

    def test_name(self):
        assert parse_orlib_bqp("2 1\n1 1 5\n").name == "orlib_bqp"
        assert parse_orlib_bqp("2 1\n1 1 5\n", name="bqp2").name == "bqp2"

    @pytest.mark.parametrize("text, error", [
        ("3 2\n4 1 5\n1 x 2\n", "triple #1 index out of [1, 3]: (4, 1)"),
        ("3 2\n1 x 2\n4 1 5\n", "malformed triple #1: ('1', 'x', '2')"),
        ("3 3\n1 2 5\n2 1 4\n1 x 2\n", "duplicate triple for pair (2, 1)"),
        ("3 3\n1 2 5\n4 1 4\n2 1 2\n", "triple #2 index out of [1, 3]: (4, 1)"),
        ("3 3\n1 2 5\n2 1 nan\n2 1 2\n", "non-finite value in triple #2: ('2', '1', 'nan')"),
        ("3 2\n1 2 inf\n1 x 2\n", "non-finite value in triple #1: ('1', '2', 'inf')"),
        ("3 1\n4 x inf\n", "malformed triple #1: ('4', 'x', 'inf')"),
        ("3 1\n4 1 1e400\n", "non-finite value in triple #1: ('4', '1', '1e400')"),
        ("3 1\n1 2 -inf\n", "non-finite value in triple #1: ('1', '2', '-inf')"),
        ("3 2\n1 1 1\n-4 1 x\n", "malformed triple #2: ('-4', '1', 'x')"),
        (f"3 2\n1 1 1\n{10**30} 1 5\n", f"triple #2 index out of [1, 3]: ({10**30}, 1)"),
        (f"3 2\n1 1 1\n1 {2**63} 5\n", f"triple #2 index out of [1, 3]: (1, {2**63})"),
        (f"3 2\n-{10**30} 1 5\n1 1 x\n", f"triple #1 index out of [1, 3]: (-{10**30}, 1)"),
    ], ids=["range-before-malformed", "malformed-before-range", "duplicate-first",
            "range-before-duplicate", "non-finite-before-duplicate", "non-finite-before-malformed",
            "malformed-within-triple", "non-finite-before-range-within-triple", "minus-inf",
            "malformed-value", "huge-index", "int64-overflow-index", "huge-negative-index"])
    def test_first_failing_triple_reported(self, text, error):
        for parse in (parse_orlib_bqp, reference_parse_orlib_bqp):
            with pytest.raises(ParseError, match=re.escape(error) + "$"):
                parse(text)

    def test_shuffled_and_mirrored_file_matches_reference(self):
        rng = np.random.default_rng(5)
        triples = _shuffled_and_mirrored_bqp300(rng)
        text = "\n".join([f"300 {len(triples)}"] + [" ".join(t) for t in triples])
        inst, ref = parse_orlib_bqp(text), reference_parse_orlib_bqp(text)
        assert inst.q.tobytes() == ref.q.tobytes()
        # mirrored copies of many triples, appended in another order: the
        # first copy is reported, named as it was written
        copies = [triples[k] for k in rng.permutation(len(triples))[:500]]
        header = f"300 {len(triples) + len(copies)}"
        late = "\n".join([header] + [" ".join(t) for t in triples]
                         + [f"{j} {i} 1" for i, j, _ in copies])
        i, j, _ = copies[0]
        message = f"duplicate triple for pair ({int(j)}, {int(i)})"
        for parse in (parse_orlib_bqp, reference_parse_orlib_bqp):
            with pytest.raises(ParseError, match=re.escape(message) + "$"):
                parse(late)

    def test_huge_header_with_a_bad_triple_allocates_no_matrix(self):
        # a 10**6-variable Q would take 7.3 TiB: the triple must be refused first
        with pytest.raises(ParseError, match=re.escape("malformed triple #1: ('1', '1', 'x')") + "$"):
            parse_orlib_bqp("1000000 1\n1 1 x\n")
        n = 2**30 - 1  # the largest n numpy can shape as float64
        with pytest.raises(ParseError, match=re.escape(f"triple #1 index out of [1, {n}]: (0, 1)")):
            parse_orlib_bqp(f"{n} 1\n0 1 5\n")

    @pytest.mark.parametrize("n", [2**30, 2**63, 10**30])
    def test_shape_numpy_refuses_is_refused_before_the_triples(self, n):
        with pytest.raises(ValueError) as want:
            np.zeros((n, n))
        with pytest.raises(ValueError, match=re.escape(str(want.value)) + "$"):
            parse_orlib_bqp(f"{n} 1\n1 1 x\n")

    def test_synthetic_texts_are_unchanged(self):
        # the benchmark reads these texts: their bytes must stay as they are
        for (n, seed), digest in {
            (1000, 1): "da3f17689561ce19cb69f264845e651477130a78bc6b17ebd68df251e88847a1",
            (300, 3): "fecf91ea94d0921791f9d61d56b9e7153106d5f092cd539a9fb6cf89739ab2ed",
        }.items():
            assert hashlib.sha256(synthetic_orlib_text(n, seed).encode()).hexdigest() == digest

    def test_parsed_units_cost_no_allocation(self):
        inst = parse_orlib_bqp(synthetic_orlib_text(1000, seed=1))
        tracemalloc.start()
        try:
            units = inst.units
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert units[0].shape == (49744,)
        assert peak < 1024  # recomputing them from q peaks near 3 MB


def _shuffled_and_mirrored_bqp300(rng):
    """The triples of synthetic_orlib_text(300, 3), about half of them listed
    as (j, i), in an order drawn from rng."""
    triples = [line.split() for line in synthetic_orlib_text(300, seed=3).splitlines()[1:]]
    for t in triples:
        if rng.random() < 0.5:
            t[0], t[1] = t[1], t[0]
    return [triples[k] for k in rng.permutation(len(triples))]


def reference_parse_orlib_bqp(text: str) -> QuboInstance:
    """parse_orlib_bqp as it was, one triple at a time, plus the non-finite
    rule: the oracle its whole-column passes must match."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ParseError("missing header (n, nonzero count)")
    try:
        n, nnz = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"bad header tokens: {tokens[:2]}") from None
    if n < 1:
        raise ParseError(f"bad variable count {n}")
    if nnz < 0:
        raise ParseError(f"bad nonzero count {nnz}")
    if len(tokens) != 2 + 3 * nnz:
        raise ParseError(f"expected {3 * nnz} triple tokens, found {len(tokens) - 2}")
    q = np.zeros((n, n), dtype=np.float64)
    filled = set()
    for k in range(nnz):
        si, sj, sv = tokens[2 + 3 * k: 5 + 3 * k]
        try:
            i, j, v = int(si), int(sj), float(sv)
        except ValueError:
            raise ParseError(f"malformed triple #{k + 1}: {(si, sj, sv)}") from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value in triple #{k + 1}: {(si, sj, sv)}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"triple #{k + 1} index out of [1, {n}]: ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in filled:
            raise ParseError(f"duplicate triple for pair ({i}, {j})")
        filled.add(key)
        q[i - 1, j - 1] = v
        q[j - 1, i - 1] = v
    return QuboInstance(name="orlib_bqp", n=n, q=q)


def _parse_outcome(parse, text):
    """(n, q) of a parse, or the type and message of what it raised."""
    try:
        inst = parse(text)
    except ValueError as err:
        return type(err), str(err)
    return inst.n, inst.q


# tokens a mutation writes over any token: indices at and past the bounds,
# spellings Python's int reads (or refuses) and values that are not finite
_MUTANTS = ["0", "-1", "+3", "03", "1_0", "0_1", "1.0", "\u0663", str(10**30), f"-{10**30}",
            str(2**63), "x", "nan", "inf", "-inf", "1e400", "-0", "2.5", "1e3"]


@st.composite
def _mutated_orlib_texts(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          unique_by=lambda p: (min(p), max(p)), min_size=1, max_size=7))
    tokens = [str(n), str(len(pairs))]
    for i, j in pairs:
        tokens += [str(i), str(j), draw(st.sampled_from(["1", "-7", "0", "0.5", "-0"]))]
    mutants = _MUTANTS + [str(n), str(n + 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not tokens:
            break
        kind = draw(st.sampled_from(["replace"] * 3 + ["drop", "duplicate"] + ["mirror"] * 2))
        pos = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        if kind == "replace":
            tokens[pos] = draw(st.sampled_from(mutants))
        elif kind == "drop":
            del tokens[pos]
        elif kind == "duplicate":
            tokens.insert(pos, tokens[pos])
        elif len(tokens) >= 5:  # append a listed pair again, in the other order
            k = 2 + 3 * (pos % ((len(tokens) - 2) // 3))
            tokens += [tokens[k + 1], tokens[k], draw(st.sampled_from(["3", "nan"]))]
    if draw(st.integers(min_value=0, max_value=3)) and len(tokens) >= 2:
        tokens[1] = str((len(tokens) - 2) // 3)  # most texts keep a matching count
    return draw(st.sampled_from([" ", "\n", "\t "])).join(tokens)


@settings(max_examples=600, deadline=None)
@given(_mutated_orlib_texts())
def test_parse_orlib_matches_scalar_reference(text):
    got, want = _parse_outcome(parse_orlib_bqp, text), _parse_outcome(reference_parse_orlib_bqp, text)
    if isinstance(want[1], str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[1].tobytes() == want[1].tobytes()


def assert_units_match_q(inst):
    """inst.units, however the instance got them, equal a pass over its q."""
    iu, ju = np.nonzero(np.triu(inst.q != 0.0))
    for got, want in zip(inst.units, (iu, ju, inst.q[iu, ju]), strict=True):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_mutated_orlib_texts())
@example("3 5\n2 1 5\n3 3 -0\n1 1 0\n3 2 -7\n2 2 0.5\n")  # (j, i), zeros, diagonal
@example("1 1\n1 1 -0\n")
@example("4 0\n")
def test_parsed_units_match_q(text):
    try:
        inst = parse_orlib_bqp(text)
    except ValueError:  # a ParseError, or numpy refusing a huge n's shape
        return
    assert_units_match_q(inst)


def test_shuffled_and_mirrored_file_units_match_q():
    triples = _shuffled_and_mirrored_bqp300(np.random.default_rng(5))
    inst = parse_orlib_bqp("\n".join([f"300 {len(triples)}"] + [" ".join(t) for t in triples]))
    assert_units_match_q(inst)
    assert inst.units[0].shape[0] == len(triples)  # synthetic texts list no zeros


@pytest.mark.parametrize("n, seed, density", [
    (1, 0, 1.0), (2, 4, 0.5), (7, 3, 0.0), (30, 1, 0.1), (50, 2, 1.0), (150, 2, 0.1)])
def test_random_qubo_units_match_q(n, seed, density):
    assert_units_match_q(random_qubo_instance(n, seed, density))


def _sequential_int_prefix(tokens):
    """int of each token up to the first it refuses, one call per token."""
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            break
    return values


@pytest.mark.parametrize("tokens", [
    [],
    ["1", "2", "1", "1", "3", "2"],
    ["1_0", "10", "+3", "3", "03", "\u0663", "1_0", "\u0663"],
    [str(10**30), f"-{10**30}", str(2**63), "-1", "0", str(10**30)],
    ["x", "1", "1"],
    ["1", "2", "1", "x", "2", "y"],
    ["1", "1.0", "1"],
    ["\u0663", "1__0", "\u0663"],
], ids=["empty", "repeats", "spellings", "beyond-int64", "refused-first",
        "refused-after-valid", "float-spelling", "bad-underscore"])
def test_index_memo_matches_sequential_int(tokens):
    # three copies hold at most a third distinct tokens, so they take the memo
    for column in (tokens, tokens * 3):
        got = _convert_indices(column)
        want = _sequential_int_prefix(column)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_refused_before_symmetry(bad):
    costs = random_tsp_instance(5, seed=0).costs.copy()
    costs[1, 2] = bad  # no longer symmetric either
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        TspInstance(name="bad", n=5, costs=costs)
    q = np.zeros((3, 3))
    q[0, 1] = bad
    with pytest.raises(ValueError, match="Q must be finite"):
        QuboInstance(name="bad", n=3, q=q)


def _costs_with(i, j, value):
    """A 5-city cost matrix with its entries (i, j) and (j, i) set to value."""
    costs = random_tsp_instance(5, seed=0).costs.copy()
    costs[i, j] = costs[j, i] = value
    return costs


@pytest.mark.parametrize("make, error", [
    (lambda: TspInstance(name="bad", n=5, costs=np.zeros((5, 4))),
     r"cost matrix shape \(5, 4\) != \(5, 5\)"),
    (lambda: TspInstance(name="bad", n=5, costs=_costs_with(2, 2, 1.0)),
     "cost matrix diagonal must be zero"),
    (lambda: TspInstance(name="bad", n=5, costs=_costs_with(1, 3, -1.0)),
     "edge costs must be non-negative"),
    (lambda: QuboInstance(name="bad", n=0, q=np.zeros((0, 0))), "UBQP needs n >= 1"),
    (lambda: QuboInstance(name="bad", n=3, q=np.zeros((3, 2))), r"Q shape \(3, 2\) != \(3, 3\)"),
    (lambda: QuboInstance(name="bad", n=3, q=np.triu(np.ones((3, 3)))),
     "Q must be stored symmetric"),
], ids=["tsp-shape", "tsp-diagonal", "tsp-negative-cost", "ubqp-empty", "ubqp-shape",
        "ubqp-asymmetric"])
def test_malformed_matrix_refused(make, error):
    with pytest.raises(ValueError, match=error):
        make()


class TestTourCost:
    def test_identity_tour_unit_square(self):
        inst = parse_tsplib(UNIT_SQUARE)
        assert tour_cost(inst, np.arange(4)) == 4.0

    def test_half_split_halves(self, eil51):
        split = half_split(eil51)
        t = make_tour(eil51, np.arange(51))
        f1, f2 = tour_cost(eil51, t, split)
        assert f1 == pytest.approx(t.cached_cost / 2, rel=1e-12)
        assert f2 == pytest.approx(t.cached_cost / 2, rel=1e-12)

    def test_sum_preservation_100_random_tours(self, eil51):
        split = sample_split(eil51, SplitParams(a=-3.0, seed=2))
        rng = np.random.default_rng(0)
        for _ in range(100):
            order = rng.permutation(51)
            f = tour_cost(eil51, order)
            f1, f2 = tour_cost(eil51, order, split)
            assert abs(f1 + f2 - f) <= 1e-9 * abs(f)


class TestTwoOptDelta:
    def test_degenerate_moves_zero(self, eil51):
        t = make_tour(eil51, np.arange(51))
        assert two_opt_delta(eil51, t, 3, 4) == 0.0
        assert two_opt_delta(eil51, t, 0, 50) == 0.0

    def test_matches_full_recomputation(self, eil51):
        rng = np.random.default_rng(7)
        t = make_tour(eil51, rng.permutation(51))
        for _ in range(200):
            i, j = sorted(rng.choice(51, size=2, replace=False))
            delta = two_opt_delta(eil51, t, int(i), int(j))
            order = t.order.copy()
            order[i + 1: j + 1] = order[i + 1: j + 1][::-1]
            full = tour_cost(eil51, order)
            assert delta == pytest.approx(full - t.cached_cost, abs=1e-9)

    def test_eil51_neighborhood_size(self, eil51):
        assert TwoOptNeighborhood(eil51).size == 1224

    @pytest.mark.parametrize("i, j", [(-1, 3), (3, 3), (4, 2), (0, 51)])
    def test_out_of_range_positions_rejected(self, eil51, i, j):
        t = make_tour(eil51, np.arange(51))
        with pytest.raises(ValueError, match=rf"need 0 <= i < j <= n-1, got \({i}, {j}\)"):
            two_opt_delta(eil51, t, i, j)

    @pytest.mark.parametrize("n", [5, 17, 42, 100])
    def test_move_count_formula(self, n):
        inst = random_tsp_instance(n, seed=0)
        assert TwoOptNeighborhood(inst).size == n * (n - 3) // 2

    def test_split_delta_pair(self, eil51):
        split = sample_split(eil51, SplitParams(a=2.0, seed=4))
        view = TwoOptNeighborhood(eil51, split)
        t = make_tour(eil51, np.random.default_rng(1).permutation(51))
        k = int(np.flatnonzero((view.p == 5) & (view.q == 20))[0])
        d, d1, d2 = view.split_deltas(t)
        assert d[k] == two_opt_delta(eil51, t, 5, 20)
        assert d1[k] + d2[k] == pytest.approx(d[k], abs=1e-9)
        moved = t.copy()
        view.apply(moved, k, d[k])
        f1, f2 = tour_cost(eil51, t, split)
        g1, g2 = tour_cost(eil51, moved, split)
        assert d1[k] == pytest.approx(g1 - f1, abs=1e-9)
        assert d2[k] == pytest.approx(g2 - f2, abs=1e-9)


class TestFlipDelta:
    def test_involution(self):
        inst = random_qubo_instance(20, seed=3, density=0.5)
        bv = make_bitvector(inst, np.zeros(20))
        before = bv.cached_value
        flip_delta_and_update(inst, bv, 7)
        flip_delta_and_update(inst, bv, 7)
        assert bv.cached_value == pytest.approx(before, abs=1e-9)
        assert bv.bits[7] == 0.0

    def test_delta_matches_full_recomputation(self):
        inst = random_qubo_instance(20, seed=5, density=0.6)
        rng = np.random.default_rng(2)
        bv = make_bitvector(inst, rng.integers(0, 2, 20).astype(float))
        for _ in range(100):
            i = int(rng.integers(20))
            before = qubo_value(inst, bv.bits)
            delta = flip_delta_and_update(inst, bv, i)
            after = qubo_value(inst, bv.bits)
            assert delta == pytest.approx(after - before, abs=1e-9)
            assert bv.cached_value == pytest.approx(after, abs=1e-9)

    @pytest.mark.parametrize("bits", [[0, 1, 2], [0.5, 0, 1], [0, 1]], ids=["two", "half", "short"])
    def test_bits_not_a_zero_one_vector_rejected(self, bits):
        inst = random_qubo_instance(3, seed=3, density=0.5)
        with pytest.raises(ValueError, match="bits must be a 0/1 vector of length n"):
            make_bitvector(inst, bits)

    @pytest.mark.parametrize("i", [-1, 20])
    def test_out_of_range_flip_rejected(self, i):
        inst = random_qubo_instance(20, seed=3, density=0.5)
        bv = make_bitvector(inst, np.zeros(20))
        with pytest.raises(ValueError, match=f"bit index {i} out of range"):
            flip_delta_and_update(inst, bv, i)
        assert bv.cached_value == 0.0 and not bv.bits.any()

    def test_neighborhood_size_is_n(self):
        text = synthetic_orlib_text(1000, seed=1)
        inst = parse_orlib_bqp(text)
        bv = make_bitvector(inst, np.zeros(1000))
        assert bv.gains.shape == (1000,)

    def test_gains_after_1000_random_flips(self):
        inst = random_qubo_instance(30, seed=9, density=0.3)
        rng = np.random.default_rng(4)
        bv = make_bitvector(inst, rng.integers(0, 2, 30).astype(float))
        for _ in range(1000):
            flip_delta_and_update(inst, bv, int(rng.integers(30)))
        fresh = make_bitvector(inst, bv.bits)
        np.testing.assert_allclose(bv.gains, fresh.gains, atol=1e-8)
        assert bv.cached_value == pytest.approx(fresh.cached_value, abs=1e-8)


class TestNeighborLists:
    def test_full_lists(self):
        inst = random_tsp_instance(9, seed=0)
        nl = build_neighbor_lists(inst, k=8)
        for city in range(9):
            assert sorted(nl[city]) == [c for c in range(9) if c != city]

    def test_square_side_adjacency(self):
        inst = parse_tsplib(SQUARE10)
        nl = build_neighbor_lists(inst, k=2)
        side = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}
        for city, expect in side.items():
            assert set(nl[city]) == expect

    def test_eil51_k20(self, eil51):
        nl = build_neighbor_lists(eil51, k=20)
        assert np.shape(nl) == (51, 20)
        for city in range(51):
            row = nl[city]
            assert len(set(row)) == 20
            costs = eil51.costs[city, row]
            assert np.all(np.diff(costs) >= 0)

    def test_k_below_two_rejected(self, eil51):
        with pytest.raises(ValueError):
            build_neighbor_lists(eil51, k=1)

    def test_tie_break_by_index(self):
        inst = parse_tsplib(UNIT_SQUARE)  # all costs tie at 1
        nl = build_neighbor_lists(inst, k=2)
        assert nl[0] == [1, 2]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=5, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_cumulative_two_opt_deltas_match_full_eval(n, seed):
    inst = random_tsp_instance(n, seed=seed % 17)
    rng = np.random.default_rng(seed)
    t = make_tour(inst, rng.permutation(n))
    for _ in range(20):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        i, j = int(i), int(j)
        delta = two_opt_delta(inst, t, i, j)
        t.order[i + 1: j + 1] = t.order[i + 1: j + 1][::-1]
        t.cached_cost += delta
    assert t.cached_cost == pytest.approx(tour_cost(inst, t), rel=1e-9)
    assert sorted(t.order.tolist()) == list(range(n))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=10_000))
def test_cumulative_flip_deltas_match_full_eval(n, seed):
    inst = random_qubo_instance(n, seed=seed % 13, density=0.5)
    rng = np.random.default_rng(seed)
    bv = make_bitvector(inst, rng.integers(0, 2, n).astype(float))
    for _ in range(30):
        flip_delta_and_update(inst, bv, int(rng.integers(n)))
    assert bv.cached_value == pytest.approx(qubo_value(inst, bv.bits), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(min_value=0, max_value=10_000),
       steps=st.lists(st.one_of(st.integers(min_value=0, max_value=10**6),
                                st.sampled_from(["kick", "tabu"])), max_size=300))
def test_split_deltas_after_any_flip_sequence(n, seed, steps):
    """After any mix of flips, kicks and tabu moves, the caches match a rebuild
    and a split-aware view's (f, f1, f2) gains match each flip's full change."""
    rng = np.random.default_rng(seed)
    q = rng.integers(1, 101, (n, n)) * rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.5, 1.5, (n, n))
    inst = QuboInstance(name="dense", n=n, q=np.triu(q) + np.triu(q, 1).T)
    split = sample_split(inst, SplitParams(a=0.0, seed=seed))
    view = FlipNeighborhood(inst, split)
    bv = make_bitvector(inst, rng.integers(0, 2, n).astype(float))
    for step in steps:
        if step == "kick":
            bv = random_flip_perturbation(inst, bv, float(rng.uniform(1 / n, 1.0)), rng)
        elif step == "tabu":
            bv = tabu_search(inst, bv, rng, Budget(max_fe=int(rng.integers(0, 40)) * n))
        else:
            gain = float(bv.gains[step % n])
            assert flip_delta_and_update(inst, bv, step % n) == gain
    assert np.array_equal(bv.twice, 2.0 - 4.0 * bv.bits)
    fresh = make_bitvector(inst, bv.bits.copy())
    scale = EVAL_REL_TOL * np.abs(inst.q).sum()
    np.testing.assert_allclose(bv.gains, fresh.gains, rtol=0, atol=scale)
    assert bv.cached_value == pytest.approx(fresh.cached_value, rel=0, abs=scale)
    d0, d1, d2 = view.split_deltas(bv)
    assert np.array_equal(d0, bv.gains)
    for mat, d in ((split.mat1, d1), (inst.q - split.mat1, d2)):
        before = bv.bits @ mat @ bv.bits
        flipped = (np.where(np.arange(n) == i, 1.0 - bv.bits, bv.bits) for i in range(n))
        change = [z @ mat @ z - before for z in flipped]
        np.testing.assert_allclose(d, change, rtol=0, atol=EVAL_REL_TOL * np.abs(mat).sum())
    copy = bv.copy()
    for name in ("bits", "gains", "twice"):
        assert not np.shares_memory(getattr(copy, name), getattr(bv, name))
