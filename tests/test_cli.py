import ast
import csv
import gc
import importlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import multifix
from multifix import cli
from multifix.cli import main

CONSTANT_CHAIN = """\
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
"""

SWAP_ANTICHAIN = """\
points: a b
dist:
0 1
1 0
order:
lambda: coupled
F:
a,a -> b
a,b -> b
b,a -> a
b,b -> a
L: 1
"""

# No point a has a <=_L lambdaF(a) with L = {2}, and (0,1) is the first with
# lambdaF(a) <=_L a, so the auto start search takes its descending branch.
DESCENDING_START = """\
points: 0 1
dist:
0 1
1 0
order:
0 <= 1
lambda: coupled
F:
0,0 -> 1
0,1 -> 1
1,0 -> 0
1,1 -> 0
L: 2
"""

CONTRACTION = """\
space: box -10 10
family: linear-coupled 0.25 1
L: 1
delta linear 1.0
start: 0 0
"""

EXPANSION = """\
space: box -1e12 1e12
family: linear-coupled 1.1 0
L: 1
delta linear 1.0
start: 1 0
"""

# CONTRACTION with an expanding family: sampled mk-op fails.
SAMPLED_EXPANSION = CONTRACTION.replace("0.25 1", "1.1 0")

# CONTRACTION on a reversed box: an empty carrier, refused when parsed.
REVERSED_BOX = CONTRACTION.replace("box -10 10", "box 10 -10")

# CONTRACTION on a box F does not map into itself: the fixed point (1, 1) of
# the iteration from (0, 0) lies outside [-10, 0.5]^2.
BOX_ESCAPE = CONTRACTION.replace("box -10 10", "box -10 0.5")

# CONTRACTION on a box whose width hi - lo overflows: sampled mk-op is
# refused, since every sampled point would be inf.
WIDE_BOX = CONTRACTION.replace("box -10 10", "box -1e308 1e308")

# CONTRACTION on a box of width the float maximum: sampled steps past it
# round to inf and clip to the box without a numpy warning.
EDGE_BOX = CONTRACTION.replace("box -10 10", "box 0 1.7976931348623157e308")

GAME_DEMO = """\
space: box 0 1
family: affine-coupled 0 0.5 0.25
start: 0 0
tol: 1e-8
rounds: 200
"""

# A tripled family whose solve reads the file's sum metric: the iteration
# from (3, 0, 1) converges to (1, 1, 1).
TRIPLED_SUM = """\
space: box -10 10
family: linear-tripled 0.1 1
metric: sum
L: 1 3
delta linear 1.0
start: 3 0 1
"""


# CONSTANT_CHAIN with d(0, 2) = d(1, 2) = 1e308: the symmetric sums the checks
# form overflow, so the parser refuses the table at its dist line.
OVERFLOW_TABLE = CONSTANT_CHAIN.replace(
    "0 1 2\n1 0 1\n2 1 0", "0 1 1e308\n1 0 1e308\n1e308 1e308 0"
)


def table_file(header, points, value, footer, m=3):
    """A problem file whose operator table maps each argument m-tuple of the
    carrier to ``value(tuple)``."""
    table = [
        f"{','.join(key)} -> {value(key)}"
        for key in itertools.product(points.split(), repeat=m)
    ]
    return "\n".join([header.strip(), "F:", *table, footer.strip()]) + "\n"


# Failing checks whose first witness sits deep in canonical pair order.
# Outputs are pinned as printed before the exhaustive checks moved onto the
# integer kernel: witness order and the repr of r must not change.
GOLDEN_IMAGE_ORDER = table_file(
    """
points: x0 b1 y2
dist:
0 0.5 2.5
0.2 0 2.5
1 1 0
order:
x0 <= b1
b1 <= y2
lambda:
1 1 2
2 3 1
1 2 2
""",
    "x0 b1 y2",
    lambda key: "b1" if key == ("y2", "y2", "y2") else "x0",
    "L: 2\ndelta linear 0.25",
)

GOLDEN_CONTRACTION = table_file(
    """
points: y0 c1 u2
dist:
0 3 0.5
1.25 0 0.7
0.7 0.5 0
order:
u2 <= y0
y0 <= c1
lambda: tripled
""",
    "y0 c1 u2",
    lambda key: "y0" if key == ("c1", "c1", "c1") else "u2",
    "L:\ndelta const 0.15",
)

GOLDEN_SUM_ROUNDING = table_file(
    """
points: v0 u1 22
dist:
0 2 2
2.5 0 2.5
0.7 0.3 0
order:
v0 <= u1
u1 <= 22
lambda:
1 2 3
1 3 1
2 1 2
""",
    "v0 u1 22",
    lambda key: min(key, key="v0 u1 22".split().index),
    "L:\ndelta linear 0.25",
)


def coupled_file(header, points, footer):
    """A coupled problem file with F(x, y) the later of x, y in the points
    line."""
    later = points.split().index
    return table_file(header, points, lambda key: max(key, key=later), footer, m=2)


# Failing order clauses, first witnesses pinned as printed while the clauses
# still looped over labels with order.leq.
GOLDEN_LATTICE = coupled_file(
    """
points: w u 7 l f
dist:
0 1 3 1 1
0.5 0 3 1 1
3 1.5 0 3 1
1.5 1.5 1 0 1
1.5 1.5 3 0.5 0
order:
l <= u
l <= 7
f <= u
u <= 7
7 <= w
lambda: coupled
""",
    "w u 7 l f",
    "L: 1\ndelta linear 0.5",
)

GOLDEN_COMPAT = coupled_file(
    """
points: l f 7 w u
dist:
0 0.5 3 3 3
0.5 0 1 3 2
2 1.5 0 3 1
3 2 1 0 1.5
2 2 1 1 0
order:
u <= w
w <= 7
7 <= f
f <= l
lambda: coupled
""",
    "l f 7 w u",
    "L: 1\ndelta linear 1.0",
)

GOLDEN_BOUNDS = coupled_file(
    """
points: w l f u 7
dist:
0 1.5 0.5 1.5 1
1.5 0 1.5 1.5 3
1 0.5 0 3 2
1.5 1.5 3 0 2
1.5 3 1.5 1.5 0
order:
u <= l
7 <= l
l <= w
w <= f
lambda: coupled
""",
    "w l f u 7",
    "L: 1\ndelta linear 0.5",
)

GOLDEN_MK_SPACE = coupled_file(
    """
points: w l u f 7
dist:
0 3 1.5 1.5 2
2 0 1 0.5 0.5
2 1.5 0 1 1
3 1 2 0 0.5
1 2 1.5 1 0
order:
l <= u
u <= 7
7 <= f
f <= w
lambda: coupled
""",
    "w l u f 7",
    "L: 1\ndelta linear 0.25",
)


# The geometric chain p0 <= ... <= p5 under d(pi, pj) = |2^-i - 2^-j| and
# the coupled shift F(x, y) = x + 1, clamped at p5: lambdaF keeps <=_L and
# at most halves the sup distance of a comparable pair, so the MK operator
# condition holds for delta linear 1 and mk1 confirms the fixed point (p5, p5).
GEOMETRIC_CHAIN = table_file(
    """
points: p0 p1 p2 p3 p4 p5
dist:
0 0.5 0.75 0.875 0.9375 0.96875
0.5 0 0.25 0.375 0.4375 0.46875
0.75 0.25 0 0.125 0.1875 0.21875
0.875 0.375 0.125 0 0.0625 0.09375
0.9375 0.4375 0.1875 0.0625 0 0.03125
0.96875 0.46875 0.21875 0.09375 0.03125 0
order:
p0 <= p1
p1 <= p2
p2 <= p3
p3 <= p4
p4 <= p5
lambda: coupled
""",
    "p0 p1 p2 p3 p4 p5",
    lambda key: f"p{min(int(key[0][1:]) + 1, 5)}",
    "L: 1\ndelta linear 1",
    m=2,
)


# d(p, q) = 1 with p <= q and images at d(r, s) = 0.6 under delta linear 1:
# r = 0.55 meets the premise 1 < r + r but not 0.6 < r, so mk-op fails,
# though no r of the default grid {1} shows it.
MK_ALL_R_PROBE = """\
points: p q r s
dist:
0 1 1 1
1 0 1 1
1 1 0 0.6
1 1 0.6 0
order:
p <= q
lambda:
1
F:
p -> r
q -> s
r -> r
s -> s
L: 1
delta linear 1
"""


# d(a, b) = 0 with a <= b: every comparable pair has distance 0, so the MK
# conditions pass, but a lies in both zero-sets, so the space is no
# H-distance and verify's MK theorems do not apply.
GOLDEN_NOT_H = """\
points: a b
dist:
0 0
1 0
order:
a <= b
lambda: coupled
F:
a,a -> a
a,b -> a
b,a -> a
b,b -> a
L: 1
delta linear 1.0
"""


# A label with a double quote, which the game and trace CSVs must quote as
# csv.writer does ("a""b"); the game moves from (a"b, a"b) to (c, c).
QUOTED_LABELS = """\
points: a"b c
dist:
0 1
1 0
order:
a"b <= c
lambda: coupled
F:
a"b,a"b -> c
a"b,c -> c
c,a"b -> c
c,c -> c
L: 1
delta linear 1.0
start: a"b a"b
"""


@pytest.fixture
def prob(tmp_path):
    def write(text, name="problem.prob"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestClassify:
    def test_chain_metric(self, prob, capsys):
        assert main(["classify", prob(CONSTANT_CHAIN)]) == 0
        out = capsys.readouterr().out
        assert "symmetric: yes" in out
        assert "quasimetric: yes" in out
        assert "metric: yes" in out
        assert "s: 1" in out
        assert "h_distance: yes" in out

    def test_asymmetric_two_point(self, prob, capsys):
        text = "points: a b\ndist:\n0 1\n2 0\nlambda: coupled\n"
        assert main(["classify", prob(text)]) == 0
        out = capsys.readouterr().out
        assert "symmetric: no" in out
        assert "quasimetric: yes" in out
        assert "metric: no" in out

    def test_sums_above_the_float_maximum_leave_stderr_empty(self, prob):
        # Run as its own process, where a numpy overflow warning would be
        # printed, not raised as under this suite's warning filter.
        text = "points: a b c\ndist:\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n"
        env = dict(os.environ, PYTHONPATH=str(Path(multifix.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "multifix.cli", "classify", prob(text)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            "symmetric: yes\nquasimetric: yes\nmetric: yes\nn_distance: yes\n"
            "f_distance: yes\ns: 1\nh_distance: yes\n"
        )


class TestCheck:
    def test_omega1_constant_passes(self, prob, capsys):
        code = main(["check", prob(CONSTANT_CHAIN), "--condition", "omega1"])
        assert code == 0
        assert "PASS (exhaustive)" in capsys.readouterr().out

    def test_mk_operator_sampled_pass(self, prob, capsys):
        code = main(
            ["check", prob(CONTRACTION), "--condition", "mk-op",
             "--seed", "7", "--samples", "2000"]
        )
        assert code == 0
        assert "SAMPLED-PASS seed=7 n=2000" in capsys.readouterr().out

    def test_metric_header_is_read_as_solve_reads_it(self, prob, capsys):
        # TRIPLED_SUM says "metric: sum"; --metric overrides the header.
        check = ["check", prob(TRIPLED_SUM), "--condition", "mk-op"]
        assert main(check) == 1
        header = capsys.readouterr().out
        assert header.startswith("FAIL clause: MK operator condition")
        assert main([*check, "--metric", "sum"]) == 1
        assert capsys.readouterr().out == header
        assert main([*check, "--metric", "sup"]) == 0
        assert capsys.readouterr().out == "SAMPLED-PASS seed=0 n=10000\n"

    def test_metric_header_is_no_usage_error(self, prob, capsys):
        text = CONSTANT_CHAIN + "metric: sum\n"
        assert main(["check", prob(text), "--condition", "omega1"]) == 0
        assert capsys.readouterr() == ("PASS (exhaustive)\n", "")

    def test_mk_operator_expansion_fails(self, prob, capsys):
        code = main(
            ["check", prob(EXPANSION), "--condition", "mk-op",
             "--seed", "3", "--samples", "500"]
        )
        assert code == 1
        assert "FAIL clause:" in capsys.readouterr().out

    def test_mk_operator_pair_beyond_every_threshold_holds(self, prob, capsys):
        # image distances overflow to inf, but every sampled distance is at
        # or above 0.5 + delta(0.5) = 1, so no r binds
        text = CONTRACTION.replace("0.25 1", "1e308 1")
        code = main(
            ["check", prob(text), "--condition", "mk-op", "--samples", "50",
             "--seed", "1", "--r-grid", "0.5"]
        )
        assert code == 0
        assert capsys.readouterr().out == "SAMPLED-PASS seed=1 n=50\n"

    @pytest.mark.parametrize(
        "text, code, out",
        [
            (CONTRACTION, 0, "SAMPLED-PASS seed=0 n=2000"),
            (CONTRACTION.replace("linear-coupled 0.25 1", "affine-coupled 0.25 -0.25 1"),
             0, "SAMPLED-PASS seed=0 n=2000"),
            (SAMPLED_EXPANSION, 1,
             "FAIL clause: MK operator condition; witness: ((6.888437030500963, "
             "-1.5885683833831), (10.0, -2.8831521348479168), 4.846761393060239)"),
            (TRIPLED_SUM, 1,
             "FAIL clause: MK operator condition; witness: ((8.995297464642412, "
             "-0.9887378673768961, 9.925156787071455), (10.0, -4.289964760488841, 10.0), "
             "2.397585792595912)"),
        ],
        ids=["linear-coupled", "affine-coupled", "expansion", "linear-tripled"],
    )
    def test_mk_operator_on_a_family_file_makes_no_per_element_call(
        self, prob, capsys, text, code, out
    ):
        # The file's operator and box distance are evaluated on whole columns.
        path = prob(text)
        with mock.patch("numpy.frompyfunc", side_effect=AssertionError("per-element call")):
            assert main(["check", path, "--condition", "mk-op", "--samples", "2000"]) == code
        assert capsys.readouterr() == (out + "\n", "")

    def test_mk_operator_negative_sample_count_is_a_usage_error(self, prob, capsys):
        code = main(["check", prob(CONTRACTION), "--condition", "mk-op", "--samples", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: no comparable pairs to check\n"

    @pytest.mark.parametrize("grid", ["nan", "inf", "1e400", "abc", "0", "0.5,-1", "0.5,", ""])
    def test_r_grid_outside_positive_finite_is_a_usage_error(self, prob, capsys, grid):
        # a factor-10 expansion, which fails mk-op with no grid
        path = prob(CONTRACTION.replace("0.25 1", "5 1"))
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--condition", "mk-op", "--r-grid", grid])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: multifix check ")
        assert err.endswith(
            f"error: --r-grid takes 'auto' or positive finite numbers, got {grid!r}\n"
        )

    def test_unread_option_is_a_usage_error(self, prob, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", prob(GOLDEN_CONTRACTION), "--condition", "omega1", "--metric", "sum"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: multifix check ")
        assert err.endswith("error: --metric is not read by --condition omega1\n")

    def test_mk1_requires_delta_block(self, prob, capsys):
        text = CONSTANT_CHAIN  # no delta block
        code = main(["check", prob(text), "--condition", "mk1"])
        assert code == 2
        assert "delta" in capsys.readouterr().err


class TestSolve:
    def test_continuous_contraction_converges(self, prob, capsys):
        code = main(["solve", prob(CONTRACTION)])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=converged" in out
        residual = float(out.split("residual=")[1].splitlines()[0])
        assert residual < 1e-8

    def test_trace_csv(self, prob, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["solve", prob(CONTRACTION), "--trace", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "residual"]
        residuals = [float(r[1]) for r in rows[1:]]
        assert residuals == sorted(residuals, reverse=True)

    def test_auto_start_on_chain(self, prob, capsys):
        code = main(["solve", prob(CONSTANT_CHAIN), "--start", "auto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "direction=" in out
        assert "status=converged" in out

    def test_auto_start_descending(self, prob, capsys):
        main(["solve", prob(DESCENDING_START), "--start", "auto"])
        assert capsys.readouterr().out.startswith("start=(0,1) direction=descending\n")

    def test_no_monotone_start_exit_four(self, prob, capsys):
        code = main(["solve", prob(SWAP_ANTICHAIN), "--start", "auto"])
        assert code == 4
        assert "no monotone start" in capsys.readouterr().out

    def test_expansion_exits_one(self, prob, capsys):
        code = main(["solve", prob(EXPANSION)])
        assert code == 1
        assert "status=diverged" in capsys.readouterr().out

    def test_cycle_exits_one(self, prob, capsys):
        code = main(["solve", prob(SWAP_ANTICHAIN + "start: a a\n")])
        assert code == 1
        out = capsys.readouterr().out
        assert "status=cycle\n" in out and "cycle=2\n" in out

    def test_explicit_start_override(self, prob, capsys):
        code = main(["solve", prob(CONTRACTION), "--start", "5,-5"])
        assert code == 0
        assert "status=converged" in capsys.readouterr().out

    @pytest.mark.parametrize("start", ["x,y", "1,", "1,nope"])
    def test_non_numeric_start_on_a_box_is_a_usage_error(self, prob, capsys, start):
        with pytest.raises(SystemExit) as exc:
            main(["solve", prob(CONTRACTION), "--start", start])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: multifix solve ")
        assert err.endswith(
            f"error: --start takes 'auto' or comma-separated numbers, got {start!r}\n"
        )


class TestEnumerate:
    def test_constant_chain_single_point(self, prob, capsys):
        assert main(["enumerate", prob(CONSTANT_CHAIN)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "1" in lines[0]

    def test_swap_has_no_fixed_points(self, prob, capsys):
        assert main(["enumerate", prob(SWAP_ANTICHAIN)]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_a_file_without_an_order_is_enumerated(self, prob, capsys):
        # The oracle reads no order; verify's condition check needs one.
        path = prob(
            "points: a b\ndist:\n0 1\n1 0\nlambda: coupled\n"
            "F:\na,a -> a\na,b -> a\nb,a -> b\nb,b -> b\n"
        )
        assert main(["enumerate", path]) == 0
        assert capsys.readouterr() == ("(a,a)\n(a,b)\n(b,a)\n(b,b)\n", "")
        assert main(["verify", path]) == 2
        assert capsys.readouterr() == (
            "", "parse error: problem file is missing the 'order' block\n"
        )

    def test_capacity_exit_three(self, prob, capsys, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "3")
        code = main(["enumerate", prob(CONSTANT_CHAIN)])
        assert code == 3
        assert "capacity error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_cap_must_be_a_positive_integer(self, prob, capsys, monkeypatch, value):
        monkeypatch.setenv("MULTIFIX_CAP", value)
        assert main(["enumerate", prob(CONSTANT_CHAIN)]) == 2
        assert capsys.readouterr().err == (
            f"error: MULTIFIX_CAP must be a positive integer, got '{value}'\n"
        )


class TestVerify:
    def test_constant_chain_confirmed(self, prob, capsys):
        code = main(["verify", prob(CONSTANT_CHAIN), "--condition", "omega1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("THEOREM CONFIRMED, unique fixed point")
        assert "(1,1)" in out

    def test_labels_with_a_colon(self, prob, capsys):
        # "l:y <= a" and "f:x,a -> a" read like the L and F headers.
        labels = ["a", "f:x", "l:y"]
        entries = "".join(f"{p},{q} -> a\n" for p in labels for q in labels)
        text = (
            "points: a f:x l:y\ndist:\n0 1 1\n1 0 2\n1 2 0\n"
            f"order:\nl:y <= a\na <= f:x\nlambda: coupled\nF:\n{entries}L: 1\n"
        )
        assert main(["verify", prob(text)]) == 0
        assert capsys.readouterr().out == "THEOREM CONFIRMED, unique fixed point (a,a)\n"

    def test_min_operator_informational(self, prob, capsys):
        text = CONSTANT_CHAIN
        for a in "012":
            for b in "012":
                text = text.replace(f"{a},{b} -> 1", f"{a},{b} -> {min(a, b)}")
        code = main(["verify", prob(text), "--condition", "omega1"])
        assert code == 0
        assert "INFORMATIONAL" in capsys.readouterr().out

    def test_swap_hypothesis_unmet_or_informational(self, prob, capsys):
        code = main(["verify", prob(SWAP_ANTICHAIN), "--condition", "omega1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HYPOTHESIS UNMET" in out or "INFORMATIONAL" in out


class TestGame:
    def test_demo_terminates_optimal(self, prob, capsys):
        code = main(["game", prob(GAME_DEMO)])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal=yes" in out
        assert "final=(0.5" in out or "final=(0.49999" in out

    def test_out_csv(self, prob, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(["game", prob(GAME_DEMO), "--out", str(out_csv)])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "player", "position", "nonconvenience"]
        assert len(rows) > 2

    def test_round_cap_exits_one(self, prob, capsys):
        code = main(["game", prob(GAME_DEMO), "--rounds", "2"])
        assert code == 1
        assert "optimal=no" in capsys.readouterr().out

    def test_diverged_game_stops(self, prob, capsys):
        # The third round's selection maps to inf: the play ends there, not
        # after the 200000 rounds the file allows.
        text = (
            "space: box 0 1\nfamily: affine-coupled 0 1e308 0.25\n"
            "start: 0 0\nrounds: 200000\n"
        )
        assert main(["game", prob(text)]) == 1
        assert capsys.readouterr() == ("optimal=no rounds=3 final=(2.5e+307,2.5e+307)\n", "")


class TestOutFile:
    """A CSV is written whole or not at all, as open(path, "w") would leave
    it."""

    @pytest.mark.parametrize("command, flag", [("game", "--out"), ("solve", "--trace")])
    def test_refused_run_leaves_an_existing_file_alone(self, prob, tmp_path, capsys, command, flag):
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept\r\n")
        assert main([command, prob(BOX_ESCAPE), flag, str(out)]) == 2
        assert capsys.readouterr().err == "error: point 1.0 is not in the carrier\n"
        assert out.read_bytes() == b"kept\r\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "problem.prob"]

    @pytest.mark.parametrize("command, flag", [("game", "--out"), ("solve", "--trace")])
    def test_missing_directory_names_the_path(self, prob, tmp_path, capsys, command, flag):
        out = tmp_path / "missing" / "out.csv"
        assert main([command, prob(GAME_DEMO), flag, str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["problem.prob"]

    def test_mode_is_that_of_open(self, prob, tmp_path, capsys):
        reference = tmp_path / "reference.csv"
        open(reference, "w").close()
        out = tmp_path / "new.csv"
        assert main(["game", prob(GAME_DEMO), "--out", str(out)]) == 0
        assert out.stat().st_mode == reference.stat().st_mode
        # open(path, "w") keeps the mode of a file it truncates.
        kept = tmp_path / "kept.csv"
        kept.write_text("old")
        kept.chmod(0o604)
        assert main(["game", prob(GAME_DEMO), "--out", str(kept)]) == 0
        assert kept.stat().st_mode & 0o777 == 0o604
        assert kept.read_bytes().startswith(b"round,player")
        assert sorted(os.listdir(tmp_path)) == [
            "kept.csv", "new.csv", "problem.prob", "reference.csv"
        ]


def traced_peak(argv) -> int:
    """Peak bytes traced while ``main(argv)`` runs in process."""
    tracemalloc.start()
    try:
        assert main(argv) in (0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Memory grows with neither the game's rounds nor the samples."""

    # Two players swap positions forever, (0, 1) -> (1, 0) -> (0, 1), so the
    # game plays every round it is given.  Kept off the module level, where
    # the golden corpus would run it.
    swap_forever = "space: box -10 10\nfamily: affine-coupled 0 1 0\nstart: 0 1\n"

    def test_game_out_does_not_grow_with_rounds(self, prob, tmp_path, capsys):
        path, out = prob(self.swap_forever), str(tmp_path / "game.csv")
        main(["game", path, "--rounds", "10", "--out", out])  # first-call caches
        small = traced_peak(["game", path, "--rounds", "2000", "--out", out])
        large = traced_peak(["game", path, "--rounds", "20000", "--out", out])
        assert "rounds=20000" in capsys.readouterr().out
        assert large - small < 1 << 20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_sampled_mk_op_does_not_grow_with_samples(self, prob):
        # The peak RSS of a process of its own: tracemalloc would slow the
        # 10^5 evaluations about tenfold, and a child's ru_maxrss starts at
        # this process's peak, while VmHWM starts afresh at exec.
        env = dict(os.environ, PYTHONPATH=str(Path(multifix.__file__).parents[1]))
        code = (
            "import sys\nfrom multifix.cli import main\nmain(sys.argv[1:])\n"
            "print(next(s for s in open('/proc/self/status') if s.startswith('VmHWM:')))"
        )

        def peak_kib(samples: int) -> int:
            argv = ["check", prob(CONTRACTION), "--condition", "mk-op", "--samples", str(samples)]
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
            )
            assert done.stdout.startswith(f"SAMPLED-PASS seed=0 n={samples}\n")
            return int(done.stdout.split()[-2])  # "VmHWM:  35000 kB"

        assert (peak_kib(100_000) - peak_kib(10_000)) * 1024 < 1 << 20


def test_numpy_loads_only_for_a_finite_carrier(prob, tmp_path):
    # A process of its own: this suite's interpreter has numpy loaded.
    env = dict(os.environ, PYTHONPATH=str(Path(multifix.__file__).parents[1]))
    code = (
        "import sys\nfrom multifix.cli import main\n"
        "box, finite, trace, out = sys.argv[1:]\n"
        "assert main(['solve', box, '--trace', trace]) == 0\n"
        "assert main(['game', box, '--out', out]) == 0\n"
        "continuous = 'numpy._core' in sys.modules\n"
        "assert main(['enumerate', finite]) == 0\n"
        "print(continuous, 'numpy._core' in sys.modules)\n"
    )
    argv = [prob(CONTRACTION, "box.prob"), prob(CONSTANT_CHAIN, "chain.prob")]
    argv += [str(tmp_path / "trace.csv"), str(tmp_path / "game.csv")]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "False True"


class TestZeroValuedHeaders:
    """A header set to 0 is read as 0, never replaced by the default."""

    @pytest.mark.parametrize(
        "command, text, stdout, stderr, code",
        [
            # tol 0: a zero residual, an exact fixed point, converges.
            (
                "solve",
                CONTRACTION + "tol: 0\nmax_iter: 50\n",
                "status=converged\niters=2\npoint=(1.0,1.0)\nresidual=0\n",
                "",
                0,
            ),
            (
                "game",
                GAME_DEMO.replace("tol: 1e-8", "tol: 0"),
                "optimal=yes rounds=55 final=(0.5,0.5)\n",
                "",
                0,
            ),
            ("solve", CONTRACTION + "max_iter: 0\n", "", "error: max_iter must be at least 1\n", 2),
            (
                "game",
                GAME_DEMO.replace("rounds: 200", "rounds: 0"),
                "",
                "error: rounds must be at least 1\n",
                2,
            ),
        ],
        ids=["solve-tol", "game-tol", "solve-max-iter", "game-rounds"],
    )
    def test_output_and_exit_code(self, prob, capsys, command, text, stdout, stderr, code):
        assert main([command, prob(text)]) == code
        assert capsys.readouterr() == (stdout, stderr)


class TestGoldenFailures:
    @pytest.mark.parametrize(
        "text, args, stdout, code",
        [
            (
                GOLDEN_IMAGE_ORDER,
                ["check", "--condition", "omega1"],
                "FAIL clause: image order; witness: "
                "(('y2', 'x0', 'x0'), ('y2', 'y2', 'x0'))\n",
                1,
            ),
            (
                GOLDEN_IMAGE_ORDER,
                ["verify", "--condition", "omega1"],
                "INFORMATIONAL (conditions fail: image order); fixed points: [(x0,x0,x0)]\n",
                0,
            ),
            (GOLDEN_IMAGE_ORDER, ["check", "--condition", "mk-op", "--metric", "sum"],
             "PASS (exhaustive)\n", 0),
            (
                GOLDEN_CONTRACTION,
                ["check", "--condition", "omega1"],
                "FAIL clause: strict contraction; witness: "
                "(('c1', 'c1', 'y0'), ('c1', 'u2', 'y0'))\n",
                1,
            ),
            (
                GOLDEN_CONTRACTION,
                ["check", "--condition", "mk-op", "--metric", "sum"],
                "FAIL clause: MK operator condition; witness: "
                "(('c1', 'c1', 'c1'), ('y0', 'c1', 'c1'), 1.5)\n",
                1,
            ),
            (
                GOLDEN_CONTRACTION,
                ["check", "--condition", "mk-op", "--metric", "sum", "--r-grid", "0.25,1"],
                "FAIL clause: MK operator condition; witness: "
                "(('c1', 'c1', 'c1'), ('c1', 'c1', 'u2'), 1.0)\n",
                1,
            ),
            (
                GOLDEN_SUM_ROUNDING,
                ["check", "--condition", "mk-op", "--metric", "sum"],
                "FAIL clause: MK operator condition; witness: "
                "(('u1', 'v0', 'u1'), ('v0', 'v0', 'u1'), 2.5)\n",
                1,
            ),
            (
                GOLDEN_SUM_ROUNDING,
                ["check", "--condition", "mk-op", "--metric", "sum", "--r-grid", "0.5"],
                "FAIL clause: MK operator condition; witness: "
                "(('22', '22', '22'), ('u1', 'u1', '22'), 0.5)\n",
                1,
            ),
            (
                GOLDEN_LATTICE,
                ["check", "--condition", "omega1"],
                "FAIL clause: lattice; witness: ('l', 'f', 'meet')\n",
                1,
            ),
            (
                GOLDEN_LATTICE,
                ["verify", "--condition", "mk1"],
                "INFORMATIONAL (conditions fail: pair bounds); "
                "fixed points: [(w,w), (u,u), (7,7), (l,l), (f,f)]\n",
                0,
            ),
            (
                GOLDEN_COMPAT,
                ["check", "--condition", "omega1"],
                "FAIL clause: order-distance compatibility; witness: ('u', 'w', '7')\n",
                1,
            ),
            (
                GOLDEN_COMPAT,
                ["verify", "--condition", "mk1"],
                "INFORMATIONAL (conditions fail: image order); "
                "fixed points: [(l,l), (f,f), (7,7), (w,w), (u,u)]\n",
                0,
            ),
            (
                GOLDEN_BOUNDS,
                ["check", "--condition", "mk1"],
                "FAIL clause: pair bounds; witness: ('u', '7', 'lower')\n",
                1,
            ),
            (
                GOLDEN_BOUNDS,
                ["verify", "--condition", "mk1"],
                "INFORMATIONAL (conditions fail: pair bounds); "
                "fixed points: [(w,w), (l,l), (f,f), (u,u), (7,7)]\n",
                0,
            ),
            (
                GOLDEN_MK_SPACE,
                ["check", "--condition", "mk1"],
                "FAIL clause: image order; witness: (('w', 'w'), ('w', 'l'))\n",
                1,
            ),
            (
                GOLDEN_MK_SPACE,
                ["verify", "--condition", "mk1"],
                "INFORMATIONAL (conditions fail: image order); "
                "fixed points: [(w,w), (l,l), (u,u), (f,f), (7,7)]\n",
                0,
            ),
            (
                GOLDEN_SUM_ROUNDING,
                ["check", "--condition", "mk1"],
                "FAIL clause: MK operator condition; witness: "
                "(('u1', 'v0', 'u1'), ('v0', 'v0', 'v0'), 2.5)\n",
                1,
            ),
            (
                GEOMETRIC_CHAIN,
                ["verify", "--condition", "mk1"],
                "THEOREM CONFIRMED, unique fixed point (p5,p5)\n",
                0,
            ),
            # Every condition name through both commands, pinned before the
            # name -> checker dispatch moved into one table.
            (GOLDEN_NOT_H, ["check", "--condition", "mk1"], "PASS (exhaustive)\n", 0),
            (GOLDEN_NOT_H, ["check", "--condition", "mk2"], "PASS (exhaustive)\n", 0),
            (
                GOLDEN_NOT_H,
                ["verify", "--condition", "mk1"],
                "INFORMATIONAL (conditions fail: H-distance base space); "
                "fixed points: [(a,a)]\n",
                0,
            ),
            (
                GOLDEN_NOT_H,
                ["verify", "--condition", "mk2"],
                "INFORMATIONAL (conditions fail: H-distance base space); "
                "fixed points: [(a,a)]\n",
                0,
            ),
            (
                GOLDEN_CONTRACTION,
                ["check", "--condition", "omega2"],
                "FAIL clause: image order; witness: "
                "(('c1', 'c1', 'y0'), ('y0', 'y0', 'y0'))\n",
                1,
            ),
            (
                GOLDEN_CONTRACTION,
                ["check", "--condition", "omega3"],
                "FAIL clause: strict contraction; witness: "
                "(('c1', 'c1', 'y0'), ('c1', 'u2', 'y0'))\n",
                1,
            ),
            (
                GOLDEN_IMAGE_ORDER,
                ["check", "--condition", "omega4"],
                "FAIL clause: image order; witness: "
                "(('y2', 'x0', 'y2'), ('y2', 'y2', 'y2'))\n",
                1,
            ),
            (
                GOLDEN_MK_SPACE,
                ["check", "--condition", "mk2"],
                "FAIL clause: image order; witness: (('w', 'w'), ('w', 'l'))\n",
                1,
            ),
            (
                GOLDEN_CONTRACTION,
                ["verify", "--condition", "omega2"],
                "INFORMATIONAL (conditions fail: image order); fixed points: [(u2,u2,u2)]\n",
                0,
            ),
            (
                GOLDEN_CONTRACTION,
                ["verify", "--condition", "omega3"],
                "INFORMATIONAL (conditions fail: strict contraction); "
                "fixed points: [(u2,u2,u2)]\n",
                0,
            ),
            (
                GOLDEN_NOT_H,
                ["verify", "--condition", "omega4"],
                "THEOREM CONFIRMED, unique fixed point (a,a)\n",
                0,
            ),
            # A sampled failure over an explicit grid, pinned before the
            # sampled pairs moved onto column arrays: the witness prints
            # Python floats.
            (
                SAMPLED_EXPANSION,
                ["check", "--condition", "mk-op", "--seed", "3", "--samples", "500",
                 "--r-grid", "0.5,2"],
                "FAIL clause: MK operator condition; witness: "
                "((-5.240707458162173, -2.6008966690384145), "
                "(-2.5195613316824135, -5.620496862019387), 2.0)\n",
                1,
            ),
            (
                SAMPLED_EXPANSION,
                ["check", "--condition", "mk-op", "--seed", "3", "--samples", "500",
                 "--r-grid", "1"],
                "FAIL clause: MK operator condition; witness: "
                "((7.577333206760834, -7.280622795986622), "
                "(8.06460475541522, -8.365557502152308), 1.0)\n",
                1,
            ),
            # mk-op over every r > 0: the first failing pair's image distance
            # is the witness r; an explicit grid only bounds the pass.
            (
                MK_ALL_R_PROBE,
                ["check", "--condition", "mk-op"],
                "FAIL clause: MK operator condition; witness: (('p',), ('q',), 0.6)\n",
                1,
            ),
            (
                MK_ALL_R_PROBE,
                ["check", "--condition", "mk-op", "--r-grid", "1"],
                "PASS (exhaustive pairs, r in grid)\n",
                0,
            ),
            (
                SAMPLED_EXPANSION,
                ["check", "--condition", "mk-op", "--seed", "3", "--samples", "500"],
                "FAIL clause: MK operator condition; witness: "
                "((-5.240707458162173, -2.6008966690384145), "
                "(-2.5195613316824135, -5.620496862019387), 6.314820951406805)\n",
                1,
            ),
            # check refuses an option the chosen condition set never reads.
            (GOLDEN_CONTRACTION, ["check", "--condition", "omega1", "--metric", "sum"], "", 2),
            (GOLDEN_CONTRACTION, ["check", "--condition", "omega3", "--r-grid", "auto"], "", 2),
            (GOLDEN_MK_SPACE, ["check", "--condition", "mk1", "--metric", "sup"], "", 2),
            (GOLDEN_MK_SPACE, ["check", "--condition", "mk2", "--seed", "0"], "", 2),
            (GOLDEN_MK_SPACE, ["check", "--condition", "mk1", "--samples", "10"], "", 2),
            (GOLDEN_NOT_H, ["check", "--condition", "mk1", "--r-grid", "0.5"], "PASS (exhaustive)\n", 0),
            (GOLDEN_NOT_H, ["check", "--condition", "mk-op"], "PASS (exhaustive)\n", 0),
            # mk-op samples only a continuous carrier
            (GOLDEN_NOT_H, ["check", "--condition", "mk-op", "--seed", "1"], "", 2),
            (GOLDEN_NOT_H, ["check", "--condition", "mk-op", "--samples", "5"], "", 2),
            # verify grades no theorem for the operator form: argparse refuses it.
            (GOLDEN_NOT_H, ["verify", "--condition", "mk-op"], "", 2),
        ],
    )
    def test_stdout_and_exit_code(self, prob, capsys, text, args, stdout, code):
        try:
            got = main([args[0], prob(text), *args[1:]])
        except SystemExit as exc:  # argparse usage errors exit directly
            got = exc.code
        assert got == code
        assert capsys.readouterr().out == stdout


class TestUsageErrors:
    def test_parse_error_exit_two(self, prob, capsys):
        code = main(["classify", prob("points: a b\ndist:\n0 1\nx 0\n")])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "line 4" in err

    def test_nan_distance_exit_two(self, prob, capsys):
        code = main(["classify", prob("points: a b\ndist:\n0 nan\n1 0\n")])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "line 3" in err

    @pytest.mark.parametrize("header", ["tol: abc", "delta linear nan", "max_iter: 1.5"])
    def test_bad_header_exit_two_with_line(self, prob, capsys, header):
        code = main(["solve", prob(CONTRACTION + header + "\n")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 6: ")

    @pytest.mark.parametrize("name", ["no-such.txt", "."])
    def test_unreadable_path_exit_two(self, tmp_path, capsys, name):
        path = str(tmp_path / name)
        assert main(["check", path, "--condition", "omega1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and path in err

    @pytest.mark.parametrize("command", ["solve", "game"])
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exit_two(self, prob, capsys, command, tol):
        assert main([command, prob(CONTRACTION), "--tol", tol]) == 2
        assert capsys.readouterr() == ("", "error: tol must be finite and nonnegative\n")

    def test_missing_block_exit_two(self, prob, capsys):
        code = main(["solve", prob("space: box 0 1\n")])
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    def test_verify_missing_delta_is_the_check_parse_error(self, prob, capsys):
        path = prob(CONSTANT_CHAIN)  # no delta block
        assert main(["check", path, "--condition", "mk1"]) == 2
        check_err = capsys.readouterr().err
        assert main(["verify", path, "--condition", "mk1"]) == 2
        assert capsys.readouterr().err == check_err
        assert check_err == "parse error: problem file is missing the 'delta' block\n"


class TestOverflowingTable:
    """A table whose symmetric sums over a product point overflow is refused
    where it is read, before any check adds its entries."""

    @pytest.mark.parametrize(
        "command",
        [
            ["check", "--condition", "omega1"],
            ["check", "--condition", "omega3"],
            ["verify", "--condition", "omega1"],
        ],
    )
    def test_parse_error_at_the_dist_line(self, prob, capsys, command):
        assert main([command[0], prob(OVERFLOW_TABLE), *command[1:]]) == 2
        assert capsys.readouterr() == (
            "",
            "parse error: line 2: distance 1e+308 is too large for arity 2: "
            "2 * 2 * 1e+308 overflows\n",
        )

    def test_the_bound_grows_with_the_arity(self, prob, capsys):
        # 2 * 2 * 4e307 is finite and 2 * 3 * 4e307 is not.
        text = OVERFLOW_TABLE.replace("1e308", "4e307")
        assert main(["check", prob(text), "--condition", "omega3"]) == 0
        assert capsys.readouterr() == ("PASS (exhaustive)\n", "")
        tripled = table_file(
            text.split("F:")[0].replace("lambda: coupled", "lambda: tripled"),
            "0 1 2",
            lambda key: "1",
            "L: 1",
        )
        assert main(["check", prob(tripled), "--condition", "omega3"]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 2: distance 4e+307 is too large for arity 3: "
            "2 * 3 * 4e+307 overflows\n"
        )


# Lines 1-12: points, dist (2), order (5), lambda (7), F (8).
TWO_POINTS = """\
points: a b
dist:
0 1
1 0
order:
a <= b
lambda: coupled
F:
a,a -> a
a,b -> a
b,a -> b
b,b -> b
"""


class TestAssemblyErrorLines:
    """Errors found once the whole file is read name the block they concern."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (TWO_POINTS.replace("a <= b", "a <= b\nb <= a"), 5, "not antisymmetric"),
            (TWO_POINTS.replace("a <= b", "a <= c"), 5, "unknown point 'c'"),
            ("points: a b\norder:\na <= b\n", 1, "without a dist block"),
            (TWO_POINTS.replace("points: a b", "points: a a"), 1, "must be distinct"),
            (TWO_POINTS.replace("0 1\n", "0 -1\n"), 2, "is negative"),
            (TWO_POINTS.replace("lambda: coupled", "lambda:\n1 3\n2 1"), 7, "outside 1..2"),
            (TWO_POINTS.replace("lambda: coupled", "lambda: tripled"), 7, "does not match"),
            (TWO_POINTS.replace("a,a -> a", "a -> a"), 8, "inconsistent arity"),
            (TWO_POINTS.replace("b,b -> b\n", ""), 8, "missing entry"),
            ("space: box 0 1\nfamily: linear-coupled 1\n", 2, "takes: alpha beta"),
            ("space: box 0 1\nfamily: nope 1\n", 2, "unknown operator family"),
        ],
    )
    def test_parse_error_names_the_block_line(self, prob, capsys, text, line, message):
        assert main(["check", prob(text), "--condition", "omega1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line {line}: ") and message in err


class TestMixedBlocks:
    """A file gives its carrier one way and its operator one way; a second
    way is refused at its block's line, not dropped or run into a crash."""

    @pytest.mark.parametrize("command", [["solve"], ["check", "--condition", "omega1"]])
    @pytest.mark.parametrize(
        "text, line, message",
        [
            (
                TWO_POINTS.split("F:")[0] + "family: linear-coupled 0.5 0\nstart: a b\n",
                8,
                "operator families need a box carrier",
            ),
            (
                TWO_POINTS + "family: linear-coupled 0.5 0\n",
                13,
                "the operator is given twice: 'family' here and 'F' on line 8",
            ),
            (
                TWO_POINTS + "space: box 0 1\n",
                13,
                "the carrier is given twice: 'space' here and 'points' on line 1",
            ),
            (
                "space: box 0 0.5\n" + CONTRACTION,
                2,
                "the 'space' block is given twice: here and on line 1",
            ),
            (CONTRACTION + "L: 2\n", 6, "the 'L' block is given twice: here and on line 3"),
            (CONTRACTION + "order:\n5 <= 1\n", 6, "order blocks need a finite carrier"),
            (
                CONTRACTION + "tol 1e-3\n",
                6,
                "expected a block header 'name: ...', got 'tol 1e-3'",
            ),
        ],
        ids=[
            "family-over-points", "F-and-family", "points-and-space",
            "space-twice", "L-twice", "order-over-box", "colon-less-header",
        ],
    )
    def test_parse_error_exit_two(self, prob, capsys, command, text, line, message):
        assert main([command[0], prob(text), *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"parse error: line {line}: {message}\n")

    @pytest.mark.parametrize(
        "text, block",
        [
            ("family: linear-coupled 0.25 1\nstart: 0 0\n", "'points' and 'dist', or 'space'"),
            ("space: box 0 1\nstart: 0 0\n", "'F' or 'family'"),
            (TWO_POINTS.replace("lambda: coupled\n", "") + "start: a b\n", "'lambda'"),
        ],
        ids=["no-carrier", "no-operator", "no-lambda"],
    )
    def test_missing_block_names_the_block_to_add(self, prob, capsys, text, block):
        assert main(["solve", prob(text)]) == 2
        err = f"parse error: problem file is missing the {block} block\n"
        assert capsys.readouterr() == ("", err)


def run_in_process(argv, capsys) -> tuple:
    """(stdout, stderr, exit code) of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


class TestProcessEntry:
    """``python -m multifix.cli`` exits through ``cli.run``, which freezes the
    collector once ``main`` is done; a process gives what ``main`` gives in
    process, CSV files included."""

    @pytest.mark.parametrize(
        "text, command, cap, code",
        [
            (CONSTANT_CHAIN, ["check", "--condition", "omega1"], None, 0),
            (GOLDEN_CONTRACTION, ["check", "--condition", "omega1"], None, 1),
            (REVERSED_BOX, ["solve"], None, 2),
            (GOLDEN_CONTRACTION, ["check", "--condition", "omega1", "--metric", "sum"], None, 2),
            (CONSTANT_CHAIN, ["enumerate"], "3", 3),
            (SWAP_ANTICHAIN, ["solve", "--start", "auto"], None, 4),
            (CONTRACTION, ["solve", "--trace"], None, 0),
            (GAME_DEMO, ["game", "--out"], None, 0),
        ],
        ids=["pass", "fail", "parse-error", "usage-error", "capacity", "no-start",
             "solve-trace", "game-out"],
    )
    def test_process_matches_main_in_process(
        self, prob, tmp_path, capsys, monkeypatch, text, command, cap, code
    ):
        if cap is not None:
            monkeypatch.setenv("MULTIFIX_CAP", cap)
        path = prob(text)
        writes_csv = command[-1] in ("--trace", "--out")

        def argv(csv_name):
            return [command[0], path, *command[1:], *([str(tmp_path / csv_name)] * writes_csv)]

        frozen = gc.get_freeze_count()
        expected = run_in_process(argv("main.csv"), capsys)
        assert gc.get_freeze_count() == frozen
        assert expected[2] == code
        env = dict(os.environ, PYTHONPATH=str(Path(multifix.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "multifix.cli", *argv("process.csv")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.stdout, done.stderr, done.returncode) == expected
        if writes_csv:
            assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_console_script_is_the_entry_of_the_main_block(self):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["multifix"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        tree = ast.parse(Path(cli.__file__).read_text())
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        (statement,) = block.body
        call = statement.value
        assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        assert not call.args and not call.keywords
        assert getattr(cli, call.func.id) is entry
