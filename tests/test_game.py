import csv

import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    DistanceSpace,
    GameConfig,
    MultiOperator,
    ProductKind,
    SolveConfig,
    coupled_preset,
    is_optimal_selection,
    picard_solve,
    simulate,
    step,
)
from multifix.game import write_trajectory_csv
from helpers import (
    field_reprs,
    int_chain,
    lopsided_line,
    random_table_operator,
    reference_simulate,
)


@pytest.fixture
def demo_game():
    # two players on [0, 1], correction F(x, y) = y/2 + 1/4
    space = DistanceSpace.reals(0, 1)
    F = MultiOperator(2, lambda x, y: y / 2 + 0.25)
    return GameConfig(space=space, F=F, family=coupled_preset(), rounds=200, tol=1e-8)


class TestStep:
    def test_demo_first_step(self, demo_game):
        nxt, nonconv = step(demo_game, (0.0, 0.0))
        assert nxt == (0.25, 0.25)
        assert nonconv == (0.25, 0.25)

    def test_optimal_point_is_stationary(self, demo_game):
        nxt, nonconv = step(demo_game, (0.5, 0.5))
        assert nxt == (0.5, 0.5)
        assert nonconv == (0.0, 0.0)

    def test_constant_correction(self):
        space = DistanceSpace.reals(0, 1)
        game = GameConfig(
            space=space,
            F=MultiOperator.constant(2, 0.75),
            family=coupled_preset(),
        )
        nxt, _ = step(game, (0.1, 0.9))
        assert nxt == (0.75, 0.75)


class TestOptimalSelection:
    def test_solved_fixed_point(self, demo_game):
        # oracle: x = y/2 + 1/4, y = x/2 + 1/4 has the unique solution (1/2, 1/2)
        assert is_optimal_selection(demo_game, (0.5, 0.5), tol=0.0)

    def test_origin_is_not_optimal(self, demo_game):
        assert not is_optimal_selection(demo_game, (0.0, 0.0), tol=1e-6)

    def test_constant_diagonal(self):
        space = DistanceSpace.reals(0, 1)
        game = GameConfig(
            space=space, F=MultiOperator.constant(2, 0.3), family=coupled_preset()
        )
        assert is_optimal_selection(game, (0.3, 0.3), tol=0.0)


class TestSimulate:
    def test_demo_converges_to_half(self, demo_game):
        traj = simulate(demo_game, (0.0, 0.0))
        assert traj.terminated_optimal
        assert max(abs(c - 0.5) for c in traj.final_selection) < 1e-7
        # non-convenience shrinks to below tol
        assert sum(traj.rounds[-1].nonconvenience) <= demo_game.tol

    def test_start_at_optimum_single_round(self, demo_game):
        traj = simulate(demo_game, (0.5, 0.5))
        assert traj.terminated_optimal
        assert len(traj.rounds) == 1

    def test_expansive_correction_hits_round_cap(self):
        space = DistanceSpace.reals(-1e9, 1e9)
        game = GameConfig(
            space=space,
            F=MultiOperator(2, lambda x, y: 2 * x),
            family=coupled_preset(),
            rounds=20,
            tol=1e-8,
        )
        traj = simulate(game, (1.0, 0.0))
        assert not traj.terminated_optimal
        assert len(traj.rounds) == 20

    def test_replay_from_final_selection_is_stable(self, demo_game):
        traj = simulate(demo_game, (0.0, 0.0))
        _, nonconv = step(demo_game, traj.final_selection)
        assert sum(nonconv) <= demo_game.tol

    def test_matches_picard_dynamics(self, demo_game):
        traj = simulate(demo_game, (0.0, 0.0))
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
            abs(a - b) for a, b in zip(report.final, traj.final_selection)
        ) <= 1e-12

    def test_sup_nonconvenience_nonincreasing(self, demo_game):
        traj = simulate(demo_game, (0.0, 0.9))
        sups = [max(r.nonconvenience) for r in traj.rounds]
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))


class TestTrajectoryCsv:
    def test_round_player_rows(self, demo_game, tmp_path):
        traj = simulate(demo_game, (0.0, 0.0))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(out))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "player", "position", "nonconvenience"]
        assert len(rows) - 1 == 2 * len(traj.rounds)
        # non-convenience column decreases below tol by the last round
        last = float(rows[-1][3])
        assert last <= demo_game.tol


class TestSimulateDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(-1.5, 1.5),
        st.floats(-2, 2),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        st.integers(1, 300),
        st.sampled_from([0.0, 1e-9, 1e-3]),
        st.booleans(),
        st.booleans(),
    )
    def test_continuous_matches_checked_loop(self, a, b, start, rounds, tol, nan_far, lopsided):
        def f(x, y):
            if nan_far and abs(x) > 20:
                return float("nan")
            return a * (x - y) + b

        space = lopsided_line(-10, 10) if lopsided else DistanceSpace.reals(-10, 10)
        game = GameConfig(
            space=space, F=MultiOperator(2, f),
            family=coupled_preset(), rounds=rounds, tol=tol,
        )
        assert field_reprs(simulate(game, start)) == field_reprs(reference_simulate(game, start))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.randoms(use_true_random=False), st.integers(1, 30))
    def test_finite_table_matches_checked_loop(self, n, rnd, rounds):
        space, order = int_chain(n)
        F = random_table_operator(rnd, space, 2)
        game = GameConfig(space=space, F=F, family=coupled_preset(), order=order, rounds=rounds)
        start = (rnd.randrange(n), rnd.randrange(n))
        assert field_reprs(simulate(game, start)) == field_reprs(reference_simulate(game, start))

    def test_arity_error_matches_apply_lambda_f(self, demo_game):
        for call in (simulate, step):
            with pytest.raises(ValueError, match="operator 2, family 2, point 3"):
                call(demo_game, (0.0, 0.0, 0.0))
