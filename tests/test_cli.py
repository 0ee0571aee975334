import csv
import itertools

import pytest

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

GAME_DEMO = """\
space: box 0 1
family: affine-coupled 0 0.5 0.25
start: 0 0
tol: 1e-8
rounds: 200
"""




def tripled_file(header, points, value, footer):
    """A problem file whose operator table maps each argument tuple of the
    carrier to ``value(tuple)``."""
    table = [
        f"{','.join(key)} -> {value(key)}"
        for key in itertools.product(points.split(), repeat=3)
    ]
    return "\n".join([header.strip(), "F:", *table, footer.strip()]) + "\n"


# Failing checks whose first witness sits deep in canonical pair order.
# Outputs are pinned as printed before the exhaustive checks moved onto the
# integer kernel: witness order and the repr of r must not change.
GOLDEN_IMAGE_ORDER = tripled_file(
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

GOLDEN_CONTRACTION = tripled_file(
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

GOLDEN_SUM_ROUNDING = tripled_file(
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

    def test_mk_operator_negative_sample_count_is_a_usage_error(self, prob, capsys):
        code = main(["check", prob(CONTRACTION), "--condition", "mk-op", "--samples", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: no comparable pairs to check\n"

    def test_mk_operator_nan_radius_is_a_usage_error(self, prob, capsys):
        code = main(["check", prob(CONTRACTION), "--condition", "mk-op", "--r-grid", "nan"])
        assert code == 2
        assert capsys.readouterr().err == "error: modulus is only defined for positive r\n"

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

    def test_no_monotone_start_exit_four(self, prob, capsys):
        code = main(["solve", prob(SWAP_ANTICHAIN), "--start", "auto"])
        assert code == 4
        assert "no monotone start" in capsys.readouterr().out

    def test_expansion_exits_one(self, prob, capsys):
        code = main(["solve", prob(EXPANSION)])
        assert code == 1
        assert "status=diverged" in capsys.readouterr().out

    def test_explicit_start_override(self, prob, capsys):
        code = main(["solve", prob(CONTRACTION), "--start", "5,-5"])
        assert code == 0
        assert "status=converged" in capsys.readouterr().out


class TestEnumerate:
    def test_constant_chain_single_point(self, prob, capsys):
        assert main(["enumerate", prob(CONSTANT_CHAIN)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "1" in lines[0]

    def test_swap_has_no_fixed_points(self, prob, capsys):
        assert main(["enumerate", prob(SWAP_ANTICHAIN)]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_capacity_exit_three(self, prob, capsys, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "3")
        code = main(["enumerate", prob(CONSTANT_CHAIN)])
        assert code == 3
        assert "capacity error" in capsys.readouterr().err


class TestVerify:
    def test_constant_chain_confirmed(self, prob, capsys):
        code = main(["verify", prob(CONSTANT_CHAIN), "--condition", "omega1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("THEOREM CONFIRMED, unique fixed point")
        assert "(1,1)" in out

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
                "(('c1', 'c1', 'c1'), ('y0', 'c1', 'c1'), 1.2)\n",
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
                "(('u1', 'v0', 'u1'), ('v0', 'v0', 'u1'), 2.0999999999999996)\n",
                1,
            ),
            (
                GOLDEN_SUM_ROUNDING,
                ["check", "--condition", "mk-op", "--metric", "sum", "--r-grid", "0.5"],
                "FAIL clause: MK operator condition; witness: "
                "(('22', '22', '22'), ('u1', 'u1', '22'), 0.5)\n",
                1,
            ),
        ],
    )
    def test_stdout_and_exit_code(self, prob, capsys, text, args, stdout, code):
        assert main([args[0], prob(text), *args[1:]]) == code
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

    def test_missing_block_exit_two(self, prob, capsys):
        code = main(["solve", prob("space: box 0 1\n")])
        assert code == 2
        assert "parse error" in capsys.readouterr().err
