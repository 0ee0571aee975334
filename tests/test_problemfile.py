import pytest

from multifix import (
    LambdaFamily,
    ParseError,
    ProductKind,
    coupled_preset,
)
from multifix.problemfile import load_problem, make_family_operator, parse_problem

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
complete: yes
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
        assert pf.space.is_finite and len(pf.space) == 3
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
            ("linear-coupled 0.25 1", "linear-coupled nan 1", 3, "family parameter must be finite"),
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

    def test_require_names_missing_block(self):
        pf = parse_problem("space: box 0 1\n")
        with pytest.raises(ParseError, match="operator"):
            pf.require("operator")


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
