import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    Box,
    DistanceSpace,
    ElementwiseOperator,
    LambdaFamily,
    MultiOperator,
    ParseError,
    ProductKind,
    coupled_preset,
)
from multifix.problemfile import _header, load_problem, make_family_operator, parse_problem
from multifix.spaces import abs_distance

from helpers import from_matrix_violation, reference_dist_rows, reference_operator_entries

FINITE_CHAIN = """\
# three-point chain with the absolute-difference metric
points: 0 1 2
dist:
0 1 2
1 0 1
2 1 0
order:
0 <= 1
1 <= 2
lambda: coupled
F:
0,0 -> 1
0,1 -> 1
0,2 -> 1
1,0 -> 1
1,1 -> 1
1,2 -> 1
2,0 -> 1
2,1 -> 1
2,2 -> 1
L: 1
start: 0 2
tol: 1e-9
"""

CONTINUOUS = """\
space: box -10 10
# a closed box: complete, as every carrier is
family: linear-coupled 0.25 1
L: 1
delta linear 1.0
start: 0 0
tol: 1e-9
max_iter: 500
rounds: 50
metric: sum
"""


class TestFiniteParsing:
    def test_full_finite_problem(self):
        pf = parse_problem(FINITE_CHAIN)
        assert pf.space.is_finite and len(pf.space.points) == 3
        assert pf.space.dist("0", "2") == 2
        assert pf.order.leq("0", "2")  # transitive closure of the listed pairs
        assert pf.family == coupled_preset()
        assert pf.operator("2", "0") == "1"
        assert pf.lset.members == frozenset({1})
        assert pf.start == ("0", "2")
        assert pf.tol == 1e-9

    def test_comments_and_blank_lines_ignored(self):
        noisy = FINITE_CHAIN.replace("order:", "\n# noise\norder:  # trailing\n")
        pf = parse_problem(noisy)
        assert pf.order.leq("0", "1")

    def test_labels_named_like_block_headers_stay_in_their_block(self):
        # "f <= l" and "l <= a" read like the F and L headers; only a
        # "name:" line or a "delta linear|const" line opens a block.
        text = (
            "points: a f l\ndist:\n0 1 2\n1 0 1\n2 1 0\n"
            "order:\na <= f\nf <= l\ndelta linear 0.5\n"
        )
        pf = parse_problem(text)
        assert pf.order.leq("a", "l")
        assert pf.delta(2.0) == 1.0

    def test_labels_with_a_colon_stay_in_their_block(self):
        # An order line holds "<=" and an F entry "->": "l:y <= a" and
        # "f:x -> a" read like the L and F headers, but stay block lines.
        text = (
            "points: a f:x l:y\ndist:\n0 1 2\n1 0 1\n2 1 0\n"
            "order:\nl:y <= a\nf:x <= l:y\nF:\nf:x -> a\nl:y -> f:x\na -> a\nL: 1\n"
            "lambda:\n1\n"
        )
        pf = parse_problem(text)
        assert pf.order.leq("f:x", "a")
        assert [pf.operator(p) for p in ("a", "f:x", "l:y")] == ["a", "a", "f:x"]
        assert pf.lset.members == frozenset({1})

    def test_explicit_lambda_rows(self):
        text = FINITE_CHAIN.replace("lambda: coupled", "lambda:\n1 2\n2 1")
        pf = parse_problem(text)
        assert pf.family == LambdaFamily(2, ((1, 2), (2, 1)))

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "chain.prob"
        path.write_text(FINITE_CHAIN)
        pf = load_problem(str(path))
        assert pf.space is not None and pf.operator is not None


class TestContinuousParsing:
    def test_full_continuous_problem(self):
        pf = parse_problem(CONTINUOUS)
        assert not pf.space.is_finite
        assert pf.space.contains(3.5) and not pf.space.contains(11.0)
        assert pf.order.leq(-1.0, 2.0)
        assert pf.operator(4.0, 0.0) == 0.25 * 4.0 + 1
        assert pf.family == coupled_preset()
        assert pf.delta(2.0) == 2.0
        assert pf.start == (0.0, 0.0)
        assert pf.max_iter == 500 and pf.rounds == 50
        assert pf.metric is ProductKind.SUM

    def test_delta_const(self):
        pf = parse_problem(CONTINUOUS.replace("delta linear 1.0", "delta const 0.5"))
        assert pf.delta(100.0) == 0.5

    def test_tripled_family_defaults_lambda(self):
        pf = parse_problem("space: box 0 1\nfamily: linear-tripled 0.125 1\n")
        assert pf.family.m == 3
        assert pf.operator(1.0, 0.0, 1.0) == 0.125 * 2 + 1

    def test_a_one_point_box_is_a_carrier(self):
        assert parse_problem("space: box 0.5 0.5\n").space.box == Box(0.5, 0.5)


class TestParseErrors:
    def test_bad_distance_row_carries_line_number(self):
        with pytest.raises(ParseError, match="line 4") as err:
            parse_problem("points: a b\ndist:\n0 1\nx 0\n")
        assert err.value.line == 4

    def test_wrong_row_width(self):
        with pytest.raises(ParseError, match="expected 2"):
            parse_problem("points: a b\ndist:\n0 1 2\n1 0 1\n")

    def test_points_without_dist(self):
        with pytest.raises(ParseError, match="dist"):
            parse_problem("points: a b\n")

    @pytest.mark.parametrize("rest", ["dist:\n0 1\n1 0\n", ""])
    def test_duplicate_labels_are_refused_at_the_points_line(self, rest):
        with pytest.raises(ParseError, match="labels must be distinct") as err:
            parse_problem("# two labels a\npoints: a a\n" + rest)
        assert err.value.line == 2

    def test_dist_before_points(self):
        with pytest.raises(ParseError, match="follow points"):
            parse_problem("dist:\n0 1\n1 0\n")

    def test_unknown_block(self):
        with pytest.raises(ParseError, match="unknown block"):
            parse_problem("bogus: 1\n")

    def test_unknown_lambda_preset(self):
        with pytest.raises(ParseError, match="preset"):
            parse_problem("lambda: quadrupled\n")

    def test_bad_order_line(self):
        with pytest.raises(ParseError, match="a <= b"):
            parse_problem("points: a b\ndist:\n0 1\n1 0\norder:\na < b\n")

    def test_l_without_lambda(self):
        with pytest.raises(ParseError, match="lambda"):
            parse_problem("L: 1\n")

    def test_operator_lambda_arity_mismatch(self):
        text = FINITE_CHAIN.replace("lambda: coupled", "lambda: tripled")
        with pytest.raises(ParseError, match="arity"):
            parse_problem(text)

    def test_bad_metric(self):
        with pytest.raises(ParseError, match="sup or sum"):
            parse_problem("metric: max\n")

    def test_operator_value_outside_carrier_carries_line_number(self):
        text = FINITE_CHAIN.replace("0,1 -> 1\n", "0,1 -> 9\n")
        line = text.splitlines().index("0,1 -> 9") + 1
        with pytest.raises(ParseError, match="'9' is not a point") as err:
            parse_problem(text)
        assert err.value.line == line

    def test_operator_key_outside_carrier_carries_line_number(self):
        text = FINITE_CHAIN.replace("2,2 -> 1\n", "2,2 -> 1\n7,7 -> 1\n")
        line = text.splitlines().index("7,7 -> 1") + 1
        with pytest.raises(ParseError, match="'7' is not a point") as err:
            parse_problem(text)
        assert err.value.line == line

    def test_duplicate_operator_key_carries_line_number(self):
        text = FINITE_CHAIN.replace("0,0 -> 1\n", "0,0 -> 1\n0,0 -> 0\n")
        line = text.splitlines().index("0,0 -> 0") + 1
        with pytest.raises(ParseError, match="duplicate operator entry for '0,0'") as err:
            parse_problem(text)
        assert err.value.line == line

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_distance_carries_line_number(self, entry):
        with pytest.raises(ParseError, match="not finite") as err:
            parse_problem(f"points: a b\ndist:\n0 1\n{entry} 0\n")
        assert err.value.line == 4

    # A bad token wins over a short row, and a short row over a non-finite
    # one.
    @pytest.mark.parametrize(
        "points, rows, message",
        [
            ("a b c", "0 1 1\n1 x\n1 1 0\n", "bad distance row '1 x'"),
            ("a b c", "0 1 1\n1 inf\n1 1 0\n", "distance row has 2 entries, expected 3"),
            ("a b", "0 1\nnan 0 1\n", "distance row has 3 entries, expected 2"),
        ],
    )
    def test_dist_row_refusals_keep_their_order(self, points, rows, message):
        with pytest.raises(ParseError) as err:
            parse_problem(f"points: {points}\ndist:\n{rows}")
        assert str(err.value) == f"line 4: {message}"
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("tol: 1e-9", "tol: abc", 7, "tol must be a number, got 'abc'"),
            ("tol: 1e-9", "tol: nan", 7, "tol must be finite"),
            ("delta linear 1.0", "delta linear x", 5, "delta linear value must be a number"),
            ("delta linear 1.0", "delta linear nan", 5, "delta linear value must be finite"),
            ("delta linear 1.0", "delta const inf", 5, "delta const value must be finite"),
            ("delta linear 1.0", "delta linear -1", 5, "positive finite coefficient"),
            ("L: 1", "L: x", 4, "L index must be an integer, got 'x'"),
            ("L: 1", "L: 3", 4, "L must be a subset of 1..2"),
            ("max_iter: 500", "max_iter: 1.5", 8, "max_iter must be an integer, got '1.5'"),
            ("rounds: 50", "rounds: z", 9, "rounds must be an integer, got 'z'"),
            ("start: 0 0", "start: 0 q", 6, "start coordinate must be a number, got 'q'"),
            ("start: 0 0", "start: 0 inf", 6, "start coordinate must be finite"),
            ("box -10 10", "box -inf 10", 1, "box bound must be finite"),
            ("box -10 10", "box 10 -10", 1, "box bounds need LO <= HI, got 10 > -10"),
            ("linear-coupled 0.25 1", "linear-coupled nan 1", 3, "family parameter must be finite"),
            ("# a closed box: complete, as every carrier is", "complete: yes", 2,
             "unknown block 'complete'"),
        ],
    )
    def test_bad_header_value_carries_line_number(self, old, new, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_problem(CONTINUOUS.replace(old, new))
        assert err.value.line == line

    def test_incomplete_operator_table(self):
        text = FINITE_CHAIN.replace("0,1 -> 1\n", "")
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_a_fault_in_the_table_build_is_not_a_parse_error(self, monkeypatch):
        def broken(*args):
            raise TypeError("a fault, not an input error")

        monkeypatch.setattr(MultiOperator, "from_table", broken)
        with pytest.raises(TypeError, match="a fault"):
            parse_problem(FINITE_CHAIN)

    @pytest.mark.parametrize(
        "name, block",
        [
            ("space", "'points' and 'dist', or 'space'"),
            ("operator", "'F' or 'family'"),
            ("family", "'lambda'"),
            ("order", "'order'"),
            ("delta", "'delta'"),
            ("start", "'start'"),
        ],
    )
    def test_require_names_missing_block(self, name, block):
        pf = parse_problem("metric: sup\n")
        with pytest.raises(ParseError) as err:
            pf.require(name)
        assert str(err.value) == f"problem file is missing the {block} block"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (
                "points: a b\ndist:\n0 1\n1 0\nfamily: linear-coupled 0.5 0\n",
                5,
                "operator families need a box carrier",
            ),
            (
                CONTINUOUS.replace("L: 1", "F:\n0,0 -> 0\nL: 1"),
                4,
                "the operator is given twice: 'F' here and 'family' on line 3",
            ),
            (
                FINITE_CHAIN + "family: linear-coupled 0.25 1\n",
                24,
                "the operator is given twice: 'family' here and 'F' on line 11",
            ),
            (
                FINITE_CHAIN + "space: box 0 1\n",
                24,
                "the carrier is given twice: 'space' here and 'points' on line 2",
            ),
            (
                "space: box 0 1\n" + FINITE_CHAIN,
                3,
                "the carrier is given twice: 'points' here and 'space' on line 1",
            ),
        ],
        ids=[
            "family-over-points", "F-after-family", "family-after-F",
            "space-after-points", "points-after-space",
        ],
    )
    def test_mixed_carriers_or_operators_carry_line_number(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


class TestEachBlockOnce:
    """A block the file gives is read or refused, never dropped: a repeat,
    an order over a box and a line no block opens are errors at their line."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("space: box 0 0.5\n" + CONTINUOUS, 2,
             "the 'space' block is given twice: here and on line 1"),
            (CONTINUOUS + "L: 2\n", 11, "the 'L' block is given twice: here and on line 4"),
            (CONTINUOUS + "delta const 0.5\n", 11,
             "the 'delta' block is given twice: here and on line 5"),
            (FINITE_CHAIN + "order:\n2 <= 0\n", 24,
             "the 'order' block is given twice: here and on line 7"),
            (FINITE_CHAIN + "F:\n0,0 -> 2\n", 24,
             "the 'F' block is given twice: here and on line 11"),
            (CONTINUOUS + "order:\n5 <= 1\n", 11, "order blocks need a finite carrier"),
            ("order:\na <= b\n", 1, "order blocks need a finite carrier"),
            (CONTINUOUS.replace("tol: 1e-9", "tol 1e-3"), 7,
             "expected a block header 'name: ...', got 'tol 1e-3'"),
            ("points: a\ndist:\n0\nlambda coupled\n", 4,
             "expected a block header 'name: ...', got 'lambda coupled'"),
            (FINITE_CHAIN.replace("lambda: coupled", "lambda coupled"), 10,
             "expected 'a <= b', got 'lambda coupled'"),
        ],
        ids=[
            "space-twice", "L-twice", "delta-twice", "order-twice", "F-twice",
            "order-over-box", "order-without-carrier", "colon-less-top-level",
            "colon-less-after-dist", "colon-less-after-order",
        ],
    )
    def test_refused_at_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    # Text after these headers used to be dropped: "order: a <= b" left a
    # and b incomparable, and "F: a -> b" lost its entry.
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("points: a b\ndist: 0 1\n0 1\n1 0\n", 2,
             "the 'dist:' header takes no text on its line, got '0 1'"),
            ("points: a b\ndist:\n0 1\n1 0\norder: a <= b\n", 5,
             "the 'order:' header takes no text on its line, got 'a <= b'"),
            ("points: a b\ndist:\n0 1\n1 0\nF: a -> b\na -> a\nb -> b\n", 5,
             "the 'F:' header takes no text on its line, got 'a -> b'"),
        ],
        ids=["dist", "order", "F"],
    )
    def test_text_after_a_block_header_is_refused(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


class TestFamilyCatalog:
    def test_linear_coupled(self):
        F, m = make_family_operator("linear-coupled", [0.5, 2.0])
        assert m == 2 and F(3.0, 1.0) == 0.5 * 2 + 2.0

    def test_linear_tripled(self):
        F, m = make_family_operator("linear-tripled", [1.0, 0.0])
        assert m == 3 and F(1.0, 2.0, 3.0) == 1.0 - 4.0 + 3.0

    def test_affine_coupled(self):
        F, m = make_family_operator("affine-coupled", [0.0, 0.5, 0.25])
        assert m == 2 and F(9.0, 1.0) == 0.75

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            make_family_operator("mystery", [])

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="alpha beta"):
            make_family_operator("linear-coupled", [1.0])


# Floats of like magnitude with full mantissas, whose sums round
# differently when the terms are added in another order.
MODERATE = st.integers(0, 2**32).map(lambda seed: random.Random(seed).uniform(-10, 10))
# The family formulas' parameters: finite, up to the largest magnitudes, so
# that products overflow to inf and inf - inf gives NaN.
PARAMETERS = MODERATE | st.floats(-1e308, 1e308) | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
# Their arguments: any float, with the edge cases drawn often.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
     float("inf"), float("-inf"), float("nan")]
)
ARGUMENTS = MODERATE | EDGE_FLOATS | st.floats()
PARAMETER_COUNTS = {"linear-coupled": 2, "linear-tripled": 2, "affine-coupled": 3}


@st.composite
def float_columns(draw, count):
    """``count`` lists of Python floats, all of one length."""
    n = draw(st.integers(1, 8))
    return [draw(st.lists(ARGUMENTS, min_size=n, max_size=n)) for _ in range(count)]


class TestElementwiseContract:
    """What a problem file builds for a box, called once on float64 arrays,
    gives element by element the floats of per-element calls."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PARAMETER_COUNTS)), st.data())
    def test_family_formula(self, name, data):
        count = PARAMETER_COUNTS[name]
        params = data.draw(st.lists(PARAMETERS, min_size=count, max_size=count))
        F, m = make_family_operator(name, params)
        assert isinstance(F, ElementwiseOperator)
        args = data.draw(float_columns(m))
        with np.errstate(all="ignore"):
            got = F._func(*(np.array(column, dtype=float) for column in args))
        assert [repr(v) for v in got.tolist()] == [repr(F(*xs)) for xs in zip(*args)]

    @settings(max_examples=300, deadline=None)
    @given(float_columns(2))
    def test_abs_distance(self, args):
        xs, ys = args
        with np.errstate(all="ignore"):
            got = abs_distance(np.array(xs, dtype=float), np.array(ys, dtype=float))
        assert [repr(v) for v in got.tolist()] == [repr(abs_distance(x, y)) for x, y in zip(xs, ys)]
        assert DistanceSpace.reals(0, 1).dist is abs_distance


class TestHeader:
    @pytest.mark.parametrize(
        "line, want",
        [
            ("delta linear 1.0", ("delta", "linear 1.0")),
            ("DELTA Const 2", ("delta", "Const 2")),
            ("Delta\tlinear 1", ("delta", "linear 1")),
            ("deltas linear 1", None),
            ("delta power 2", None),
            ("delta", None),
            ("0,1 -> 1", None),
            ("a <= b", None),
            ("Points: a b", ("points", "a b")),
        ],
    )
    def test_lines_that_open_a_block(self, line, want):
        assert _header(line) == want


class TestDistRows:
    @pytest.mark.parametrize(
        "rows, want",
        [
            # Python's float() grammar: '1_0' is 10, '-0' keeps its sign.
            ("0 1_0\n1 0\n", [[0.0, 10.0], [1.0, 0.0]]),
            ("-0 1\n1 -0\n", [[-0.0, 1.0], [1.0, -0.0]]),
        ],
    )
    def test_accepted_rows_keep_their_values(self, rows, want):
        D = parse_problem(f"points: a b\ndist:\n{rows}").space.matrix()
        assert D.tolist() == want
        assert np.array_equal(np.signbit(D), np.signbit(want))

    def test_row_whose_sum_overflows_is_accepted(self):
        # 1e308 + 1e308 is inf, but every entry is finite.
        text = "points: a b c\ndist:\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n"
        assert parse_problem(text).space.dist("a", "c") == 1e308


# Entries that pass and fail each of from_matrix's checks.
TABLE_ENTRIES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1e308, float("inf"), float("nan")])


def from_matrix_outcome(labels, matrix):
    """The table from_matrix keeps, or the type and text of its refusal."""
    try:
        return DistanceSpace.from_matrix(labels, matrix).matrix()
    except ValueError as exc:
        return (type(exc), str(exc))


class TestFromMatrixArray:
    # The parser hands from_matrix one float64 array; it must give what the
    # list of rows gives, including the shape check and signed zeros.
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(TABLE_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
                st.integers(max(1, n - 1), n + 1),
            )
        )
    )
    def test_array_gives_what_the_rows_give(self, drawn):
        matrix, size = drawn
        labels = "abcde"[:size]
        array = np.array(matrix)
        want = from_matrix_outcome(labels, matrix)
        got = from_matrix_outcome(labels, array)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            assert not np.shares_memory(got, array)


def content_lines(text):
    """The (line number, text) lines a problem file's blocks read, for a
    text without comments."""
    numbered = enumerate(text.splitlines(), 1)
    return [(number, line) for number, raw in numbered if (line := raw.strip())]


def parse_outcome(text, read):
    """``read(parse_problem(text))``, or the text and line of its ParseError."""
    try:
        return read(parse_problem(text))
    except ParseError as exc:
        return (str(exc), exc.line)


DIST_TOKENS = ["0", "1.5", "-0", "5e-324", "1e400", "nan", "+inf", "x", "1_0", "\uff11"]
# Off-diagonal pools: tokens numpy's reader takes, tokens only float() takes
# ('1_0' and the fullwidth '1'), and every token.
DIST_POOLS = [["1.5", "5e-324"], ["1.5", "5e-324", "1_0", "\uff11"], DIST_TOKENS]
# Each block draws its separators from one of these; '\x0c' also ends a
# line, for the parser and for str.splitlines alike.
DIST_SEPARATORS = [[" "], [" ", "\t"], ["\xa0", " "], ["\x0c"], [" ", "\t", "\x0c", "\xa0"]]


@st.composite
def dist_blocks(draw):
    """(n, text): a points line and a dist block of up to n rows, each row
    of n - 1 to n + 1 drawn tokens with drawn separators."""
    n = draw(st.integers(1, 5))
    pool = draw(st.sampled_from(DIST_POOLS))
    separator = st.sampled_from(draw(st.sampled_from(DIST_SEPARATORS)))
    separators = st.text(separator, min_size=1, max_size=2)
    rows = []
    for i in range(draw(st.just(n) | st.integers(0, n))):
        width = draw(st.just(n) | st.integers(max(n - 1, 0), n + 1))
        tokens = [
            draw(st.sampled_from(["0", "-0"] if j == i and pool is not DIST_TOKENS else pool))
            for j in range(width)
        ]
        row = tokens[0] if tokens else ""
        for token in tokens[1:]:
            row += draw(separators) + token
        rows.append(row + "\n")
    labels = " ".join(f"p{i}" for i in range(n))
    return n, f"points: {labels}\ndist:\n" + "".join(rows)


class TestDistDifferential:
    """The parsed table, or the refusal and its line, is what reading the
    block row by row with float() gives."""

    @settings(max_examples=400, deadline=None)
    @given(dist_blocks())
    def test_parse_matches_the_row_reference(self, drawn):
        n, text = drawn
        after = content_lines(text)[2:]
        want = reference_dist_rows(after, n, 2)
        if isinstance(want, list):
            if len(after) > n:
                # A '\x0c' made more lines than rows; the first extra one
                # opens no block.
                number, line = after[n]
                message = f"expected a block header 'name: ...', got {line!r}"
                want = (f"line {number}: {message}", number)
            elif violation := from_matrix_violation([f"p{i}" for i in range(n)], want):
                want = (f"line 2: {violation}", 2)
            else:
                want = (want, [[math.copysign(1.0, v) < 0 for v in row] for row in want])
        else:
            want = (f"line {want[1]}: {want[0]}", want[1])

        def table(pf):
            D = pf.space.matrix()
            return D.tolist(), np.signbit(D).tolist()

        assert parse_outcome(text, table) == want


OPERATOR_LABELS = ["a", "b", "f", "l", "delta"]
COMMAS = st.sampled_from([",", " , ", ", ", " ,"])
ARROWS = st.sampled_from(["->", " -> ", "  ->", "-> "])
NOT_POINTS = st.sampled_from(["z", "F", "A", ""])
OPERATOR_FAULTS = ["arrow", "token", "repeat", "drop", "arity"]


@st.composite
def operator_blocks(draw):
    """(labels, text): a carrier of labels that read like headers, and a
    complete F table over it, shuffled, with up to two faults: an entry
    without '->', a token that is not a point, a repeated or dropped entry,
    or one more or one fewer argument."""
    labels = draw(
        st.lists(st.sampled_from(OPERATOR_LABELS), min_size=1, max_size=3, unique=True)
    )
    m = draw(st.integers(1, 2))
    entries = [
        [list(key), draw(st.sampled_from(labels)), True]
        for key in itertools.product(labels, repeat=m)
    ]
    entries = draw(st.permutations(entries))
    for fault in draw(st.lists(st.sampled_from(OPERATOR_FAULTS), max_size=2)):
        k = draw(st.integers(0, len(entries) - 1))
        key, value, arrow = entries[k]
        if fault == "arrow":
            entries[k] = [key, value, False]
        elif fault == "token":
            tokens = key + [value]
            tokens[draw(st.integers(0, len(key)))] = draw(NOT_POINTS)
            entries[k] = [tokens[:-1], tokens[-1], arrow]
        elif fault == "repeat":
            repeat = [key, draw(st.sampled_from(labels)), arrow]
            entries.insert(draw(st.integers(k + 1, len(entries))), repeat)
        elif fault == "drop" and len(entries) > 1:
            del entries[k]
        elif fault == "arity":
            entries[k] = [key[:-1] if len(key) > 1 else key * 2, value, arrow]
    lines = [
        draw(COMMAS).join(key) + (draw(ARROWS) if arrow else " ") + value
        for key, value, arrow in entries
    ]
    n = len(labels)
    dist = "".join(" ".join("0" if i == j else "1" for j in range(n)) + "\n" for i in range(n))
    text = f"points: {' '.join(labels)}\ndist:\n{dist}F:\n" + "".join(f"{line}\n" for line in lines)
    return labels, text


class TestOperatorDifferential:
    """The parsed F table, or the refusal and its line, is what reading the
    block entry by entry gives."""

    @settings(max_examples=400, deadline=None)
    @given(operator_blocks())
    def test_parse_matches_the_entry_reference(self, drawn):
        labels, text = drawn
        f_line = 3 + len(labels)
        want = reference_operator_entries(content_lines(text)[f_line:], set(labels))
        if isinstance(want, dict):
            arities = {len(key) for key in want}
            if len(arities) > 1:
                want = ("operator table rows have inconsistent arity", f_line)
            else:
                (m,) = arities
                missing = [k for k in itertools.product(labels, repeat=m) if k not in want]
                if missing:
                    want = (f"operator table missing entry for {missing[0]}", f_line)
        if isinstance(want, tuple):
            want = (f"line {want[1]}: {want[0]}", want[1])

        def table(pf):
            m = pf.operator.m
            return {key: pf.operator(*key) for key in itertools.product(labels, repeat=m)}

        assert parse_outcome(text, table) == want
