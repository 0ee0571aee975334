import collections
import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    CarrierError,
    DistanceSpace,
    GameConfig,
    LambdaFamily,
    MultiOperator,
    Play,
    ProductKind,
    SolveConfig,
    apply_lambda_f,
    coupled_preset,
    is_multiple_fixed_point,
    picard_solve,
)
from multifix import game as game_module
from multifix.cli import write_trace_csv
from multifix.game import Round, write_trajectory_csv
from helpers import (
    int_chain,
    lopsided_chain,
    random_table_operator,
    reference_simulate,
)


@pytest.fixture
def demo_game():
    # two players on [0, 1], correction F(x, y) = y/2 + 1/4
    space = DistanceSpace.reals(0, 1)
    F = MultiOperator(2, lambda x, y: y / 2 + 0.25)
    return GameConfig(space=space, F=F, family=coupled_preset(), rounds=200, tol=1e-8)


def play(game, start):
    """The rounds of a game played from ``start`` and whether the last was
    optimal."""
    played = Play(game, start)
    rounds = list(played)
    return rounds, played.optimal


class TestCorrection:
    def test_demo_first_correction(self, demo_game):
        assert apply_lambda_f(demo_game.F, demo_game.family, (0.0, 0.0)) == (0.25, 0.25)
        first = play(demo_game, (0.0, 0.0))[0][0]
        assert first.nonconvenience == (0.25, 0.25)

    def test_optimal_point_is_stationary(self, demo_game):
        assert apply_lambda_f(demo_game.F, demo_game.family, (0.5, 0.5)) == (0.5, 0.5)
        first = play(demo_game, (0.5, 0.5))[0][0]
        assert first.nonconvenience == (0.0, 0.0)

    def test_constant_correction(self):
        F = MultiOperator.constant(2, 0.75)
        assert apply_lambda_f(F, coupled_preset(), (0.1, 0.9)) == (0.75, 0.75)


class TestOptimalSelection:
    def test_solved_fixed_point(self, demo_game):
        # oracle: x = y/2 + 1/4, y = x/2 + 1/4 has the unique solution (1/2, 1/2)
        cert = is_multiple_fixed_point(demo_game.space, demo_game.F, demo_game.family, (0.5, 0.5))
        assert cert.accepted

    def test_origin_is_not_optimal(self, demo_game):
        cert = is_multiple_fixed_point(
            demo_game.space, demo_game.F, demo_game.family, (0.0, 0.0), tol=1e-6
        )
        assert not cert.accepted

    def test_constant_diagonal(self):
        space = DistanceSpace.reals(0, 1)
        game = GameConfig(
            space=space, F=MultiOperator.constant(2, 0.3), family=coupled_preset()
        )
        assert is_multiple_fixed_point(game.space, game.F, game.family, (0.3, 0.3)).accepted

    def test_play_stops_where_the_sum_distance_says(self):
        # Non-convenience (1, 1e-16, 1e-16) adds to 1 left to right, as
        # sum_distance adds; the builtin sum gives 1 + 2e-16 from Python 3.12 on.
        space = DistanceSpace.from_matrix(
            "pqrs", [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1e-16], [1, 1, 1e-16, 0]]
        )
        game = GameConfig(
            space=space,
            F=MultiOperator(3, lambda a, b, c: {"p": "q", "r": "s"}.get(a, a)),
            family=LambdaFamily(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2))),
            tol=1.0,
        )
        start = ("p", "r", "r")
        assert is_multiple_fixed_point(game.space, game.F, game.family, start, game.tol).accepted
        rounds, optimal = play(game, start)
        assert rounds[0].nonconvenience == (1.0, 1e-16, 1e-16)
        assert optimal and len(rounds) == 1


class TestPlay:
    def test_demo_converges_to_half(self, demo_game):
        rounds, optimal = play(demo_game, (0.0, 0.0))
        assert optimal
        assert max(abs(c - 0.5) for c in rounds[-1].selection) < 1e-7
        # non-convenience shrinks to below tol
        assert sum(rounds[-1].nonconvenience) <= demo_game.tol

    def test_start_at_optimum_single_round(self, demo_game):
        rounds, optimal = play(demo_game, (0.5, 0.5))
        assert optimal
        assert len(rounds) == 1

    def test_expansive_correction_hits_round_cap(self):
        space = DistanceSpace.reals(-1e9, 1e9)
        game = GameConfig(
            space=space,
            F=MultiOperator(2, lambda x, y: 2 * x),
            family=coupled_preset(),
            rounds=20,
            tol=1e-8,
        )
        rounds, optimal = play(game, (1.0, 0.0))
        assert not optimal
        assert len(rounds) == 20

    def test_optimal_selection_outside_the_box_is_refused(self):
        game = GameConfig(
            space=DistanceSpace.reals(-10, 0.5),
            F=MultiOperator(2, lambda x, y: (x - y) / 4 + 1),  # fixes (1, 1)
            family=coupled_preset(),
        )
        with pytest.raises(CarrierError, match="point 1.0 is not in the carrier"):
            play(game, (0.0, 0.0))

    def test_replay_from_final_selection_is_stable(self, demo_game):
        rounds, _ = play(demo_game, (0.0, 0.0))
        cert = is_multiple_fixed_point(
            demo_game.space, demo_game.F, demo_game.family, rounds[-1].selection, demo_game.tol
        )
        assert cert.accepted

    def test_matches_picard_dynamics(self, demo_game):
        rounds, _ = play(demo_game, (0.0, 0.0))
        # same stepping with the matching symmetric-sum threshold
        report = picard_solve(
            demo_game.space,
            demo_game.F,
            demo_game.family,
            (0.0, 0.0),
            SolveConfig(kind=ProductKind.SUM, tol=2 * demo_game.tol),
        )
        assert report.status == "converged"
        assert max(
            abs(a - b) for a, b in zip(report.final, rounds[-1].selection)
        ) <= 1e-12

    def test_sup_nonconvenience_nonincreasing(self, demo_game):
        rounds, _ = play(demo_game, (0.0, 0.9))
        sups = [max(r.nonconvenience) for r in rounds]
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))


class TestTrajectoryCsv:
    def test_round_player_rows(self, demo_game, tmp_path):
        rounds, _ = play(demo_game, (0.0, 0.0))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(rounds, str(out))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "player", "position", "nonconvenience"]
        assert len(rows) - 1 == 2 * len(rounds)
        # non-convenience column decreases below tol by the last round
        last = float(rows[-1][3])
        assert last <= demo_game.tol


class Reading(float):
    """A float subclass whose repr needs csv quoting."""

    def __repr__(self):
        return f'Reading("{float(self)!r}", m)'


SPECIAL_FLOATS = [-0.0, float("nan"), float("inf"), 5e-324, 1e16, 1e-5]
FIELD_FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats() | st.floats().map(Reading)
LABELS = st.sampled_from(['a"b', "x,y", "(1, 2)", (1, 2), "", "c"]) | st.integers()


def csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestRowWriters:
    """csv.writer is the referee for the bytes of both CSV files, across
    blocks of every size."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.lists(
                st.tuples(
                    st.tuples(*[FIELD_FLOATS | LABELS | st.just(np.float64(0.1))] * m),
                    st.tuples(*[FIELD_FLOATS] * m),
                ),
                max_size=12,
            )
        ),
        st.integers(1, 5),
    )
    def test_trajectory_bytes_equal_csv_writer(self, tmp_path_factory, rounds, block):
        directory = tmp_path_factory.mktemp("traj")
        with mock.patch.object(game_module, "CSV_BLOCK_LINES", block):
            write_trajectory_csv((Round(s, n) for s, n in rounds), str(directory / "got.csv"))
        want = csv_writer_bytes(
            directory / "want.csv",
            ["round", "player", "position", "nonconvenience"],
            (
                (r, i, pos, nc)
                for r, (selection, nonconv) in enumerate(rounds, start=1)
                for i, (pos, nc) in enumerate(zip(selection, nonconv), start=1)
            ),
        )
        assert (directory / "got.csv").read_bytes() == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FIELD_FLOATS, max_size=12), st.integers(1, 5))
    def test_trace_bytes_equal_csv_writer(self, tmp_path_factory, trace, block):
        directory = tmp_path_factory.mktemp("trace")
        with mock.patch.object(game_module, "CSV_BLOCK_LINES", block):
            write_trace_csv(trace, str(directory / "got.csv"))
        want = csv_writer_bytes(
            directory / "want.csv",
            ["iteration", "residual"],
            ((i, f"{r:.12g}") for i, r in enumerate(trace, start=1)),
        )
        assert (directory / "got.csv").read_bytes() == want


def assert_play_matches_reference(game, start):
    """A play's rounds and optimal flag are the checked loop's, and a
    streamed play ends with their count and last round."""
    rounds, optimal = reference_simulate(game, start)
    assert [repr(r) for r in play(game, start)[0]] == [repr(r) for r in rounds]
    streamed = Play(game, start)
    collections.deque(streamed, maxlen=0)
    assert (streamed.count, repr(streamed.last), streamed.optimal) == (
        len(rounds), repr(rounds[-1]), optimal
    )


class TestPlayDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(-1.5, 1.5),
        st.floats(-2, 2),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        st.integers(1, 300),
        st.sampled_from([0.0, 1e-9, 1e-3]),
        st.booleans(),
    )
    def test_continuous_matches_checked_loop(self, a, b, start, rounds, tol, nan_far):
        def f(x, y):
            if nan_far and abs(x) > 20:
                return float("nan")
            return a * (x - y) + b

        game = GameConfig(
            space=DistanceSpace.reals(-10, 10), F=MultiOperator(2, f),
            family=coupled_preset(), rounds=rounds, tol=tol,
        )
        assert_play_matches_reference(game, start)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 5),
        st.randoms(use_true_random=False),
        st.integers(1, 30),
        st.sampled_from([int_chain, lopsided_chain]),
    )
    def test_finite_table_matches_checked_loop(self, n, rnd, rounds, chain):
        # the lopsided chain's d(x, next) and d(next, x) differ
        space, _ = chain(n)
        F = random_table_operator(rnd, space, 2)
        game = GameConfig(space=space, F=F, family=coupled_preset(), rounds=rounds)
        start = (rnd.randrange(n), rnd.randrange(n))
        assert_play_matches_reference(game, start)

    def test_arity_error_matches_apply_lambda_f(self, demo_game):
        with pytest.raises(ValueError, match="operator 2, family 2, point 3"):
            Play(demo_game, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="operator 2, family 2, point 3"):
            apply_lambda_f(demo_game.F, demo_game.family, (0.0, 0.0, 0.0))
