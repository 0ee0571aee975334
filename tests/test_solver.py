import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    DistanceSpace,
    LambdaFamily,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    ProductKind,
    SolveConfig,
    chain_order,
    compare_L,
    coupled_preset,
    enumerate_fixed_points,
    find_monotone_start,
    apply_lambda_f,
    picard_solve,
    tripled_preset,
    verify_uniqueness,
)
from helpers import (
    field_reprs,
    int_chain,
    lopsided_line,
    random_table_operator,
    reference_picard_solve,
)


@pytest.fixture
def reals():
    return DistanceSpace.reals()


class TestMonotoneStart:
    def test_constant_operator_on_chain(self):
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        lset = LSet.of(2, 1)
        found = find_monotone_start(space, order, F, coupled_preset(), lset)
        assert found is not None
        a, tag = found
        image = apply_lambda_f(F, coupled_preset(), a)
        if tag == "ascending":
            assert compare_L(order, lset, a, image)
        else:
            assert compare_L(order, lset, image, a)

    def test_identity_map_every_point_qualifies(self):
        space, order = int_chain(2)
        F = MultiOperator(2, lambda x, y: x)  # induced map is the identity
        lset = LSet.of(2, 1)
        for a in itertools.product(space.points, repeat=2):
            found = find_monotone_start(
                space, order, F, coupled_preset(), lset, candidates=[a]
            )
            assert found == (a, "ascending")  # reflexivity: both tags hold

    def test_swap_on_antichain_has_none(self):
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]])
        order = OrderRelation.from_pairs(["a", "b"], [])
        F = MultiOperator(2, lambda x, y: "b" if x == "a" else "a")
        found = find_monotone_start(
            space, order, F, coupled_preset(), LSet.of(2, 1)
        )
        assert found is None


class TestPicard:
    def test_coupled_linear_regression(self, reals):
        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        report = picard_solve(reals, F, coupled_preset(), (0.0, 0.0))
        assert report.status == "converged"
        assert report.iterations <= 100
        assert report.final == (1.0, 1.0)

    def test_constant_converges_fast(self, reals):
        F = MultiOperator.constant(2, 3.0)
        report = picard_solve(reals, F, coupled_preset(), (9.0, -9.0))
        assert report.status == "converged"
        assert report.iterations <= 2
        assert report.final == (3.0, 3.0)

    def test_expansion_diverges(self, reals):
        F = MultiOperator(2, lambda x, y: 2 * x)
        report = picard_solve(reals, F, coupled_preset(), (1.0, 0.0))
        assert report.status == "diverged"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_residual_diverges(self, reals, value):
        F = MultiOperator(2, lambda x, y: value)
        report = picard_solve(reals, F, coupled_preset(), (0.0, 0.0))
        assert report.status == "diverged"
        assert report.iterations == 1

    def test_trace_length_matches_iterations(self, reals):
        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        report = picard_solve(reals, F, coupled_preset(), (5.0, -3.0))
        assert len(report.trace) == report.iterations

    def test_finite_cycle_detection(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator(2, lambda x, y: 1 - x)  # induced map is a 2-cycle swap
        report = picard_solve(bits, F, coupled_preset(), (0, 0))
        assert report.status == "max_iter_exceeded"
        assert report.cycle_length == 2

    def test_finite_exact_convergence(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator.constant(2, 0)
        report = picard_solve(bits, F, coupled_preset(), (1, 1))
        assert report.status == "converged"
        assert report.final == (0, 0)

    def test_monotone_start_flag(self):
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        lset = LSet.of(2, 1)
        report = picard_solve(
            space, F, coupled_preset(), (0, 2), order=order, lset=lset
        )
        assert report.monotone_start_verified
        assert report.start_direction == "ascending"

    def test_monotone_trajectory_is_nondecreasing(self):
        # ascending start + isotone induced map => every step moves up in <=_L
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        lset = LSet.of(2, 1)
        fam = coupled_preset()
        x = (0, 2)
        for _ in range(5):
            nxt = apply_lambda_f(F, fam, x)
            assert compare_L(order, lset, x, nxt)
            x = nxt


class TestEnumerate:
    def test_projection_fixes_everything(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator(2, lambda x, y: x)
        assert len(enumerate_fixed_points(bits, F, coupled_preset())) == 4

    def test_constant_zero(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator.constant(2, 0)
        assert enumerate_fixed_points(bits, F, coupled_preset()) == [(0, 0)]

    def test_negation_has_no_fixed_point(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator(2, lambda x, y: 1 - x)
        assert enumerate_fixed_points(bits, F, coupled_preset()) == []

    def test_canonical_order(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator(2, lambda x, y: x)
        points = enumerate_fixed_points(bits, F, coupled_preset())
        assert points == sorted(points)


class TestOracleAgreement:
    def test_converged_endpoint_is_enumerated(self):
        rng = random.Random(17)
        space, _ = int_chain(3)
        for _ in range(30):
            F = random_table_operator(rng, space, 2)
            fps = set(enumerate_fixed_points(space, F, coupled_preset()))
            for start in itertools.product(space.points, repeat=2):
                report = picard_solve(
                    space, F, coupled_preset(), start, SolveConfig(tol=0.0)
                )
                if report.status == "converged":
                    assert report.final in fps

    def test_residual_ratio_for_linear_family(self, reals):
        # |2 alpha| bounds the per-step contraction in the sup metric;
        # dyadic alpha keeps every iterate exact in double precision
        alpha, beta = 0.25, 1.0
        F = MultiOperator(2, lambda x, y: alpha * (x - y) + beta)
        report = picard_solve(reals, F, coupled_preset(), (8.0, -5.0))
        assert report.status == "converged"
        for prev, cur in zip(report.trace, report.trace[1:]):
            if prev > 0:
                assert cur / prev <= 2 * alpha + 1e-9


class TestVerifyUniqueness:
    def test_constant_confirmed(self):
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        report = verify_uniqueness(
            space, order, F, coupled_preset(), LSet.of(2, 1), "omega1"
        )
        assert report.verdict == "confirmed"
        assert report.fixed_points == [(1, 1)]

    def test_min_is_informational_with_two_fixed_points(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        order = chain_order([0, 1])
        F = MultiOperator(2, min)
        report = verify_uniqueness(
            bits, order, F, coupled_preset(), LSet.of(2, 1, 2), "omega1"
        )
        assert report.verdict == "informational"
        assert report.fixed_points == [(0, 0), (1, 1)]

    def test_hypothesis_unmet_when_no_fixed_point(self):
        # strictly shrinking two-chain swap: conditions hold, no fixed point
        space, order = int_chain(2)
        F = MultiOperator.from_table(
            2, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}, space.points
        )
        report = verify_uniqueness(
            space, order, F, coupled_preset(), LSet.of(2, 1), "omega1"
        )
        assert report.verdict in ("hypothesis-unmet", "informational")
        if report.condition_report.passed:
            assert report.fixed_points == []

    def test_mk_confirmed_with_h_space(self):
        space, order = int_chain(2)
        F = MultiOperator.constant(2, 0)
        report = verify_uniqueness(
            space, order, F, coupled_preset(), LSet.of(2, 1),
            condition="mk1",
            delta=MeirKeelerModulus.const(1.0),
            r_grid=[2.0],
        )
        assert report.verdict == "confirmed"
        assert any(c.name == "H-distance base space" and c.ok
                   for c in report.condition_report.clauses)

    def test_mk_requires_modulus(self):
        space, order = int_chain(2)
        F = MultiOperator.constant(2, 0)
        with pytest.raises(ValueError, match="modulus"):
            verify_uniqueness(
                space, order, F, coupled_preset(), LSet.of(2, 1), "mk1"
            )

    def test_tripled_constant_confirmed(self):
        space, order = int_chain(3)
        F = MultiOperator.constant(3, 2)
        report = verify_uniqueness(
            space, order, F, tripled_preset(), LSet.of(3, 1, 3), "omega1"
        )
        assert report.verdict == "confirmed"
        assert report.fixed_points == [(2, 2, 2)]


def continuous_operator(m, a, b, blow_up):
    """a * (alternating sum of the arguments) + b; NaN once the first
    argument leaves [-blow_up, blow_up] when ``blow_up`` is set."""

    def f(*args):
        if blow_up is not None and abs(args[0]) > blow_up:
            return float("nan")
        return a * sum(v if k % 2 == 0 else -v for k, v in enumerate(args)) + b

    return MultiOperator(m, f)


FAMILIES = {1: LambdaFamily.identity(1), 2: coupled_preset(), 3: tripled_preset()}


class TestPicardDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.floats(-1.5, 1.5),
        st.floats(-2, 2),
        st.none() | st.floats(1, 50),
        st.data(),
        st.sampled_from(list(ProductKind)),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
        st.integers(1, 300),
        st.booleans(),
        st.booleans(),
    )
    def test_continuous_matches_checked_loop(
        self, m, a, b, blow_up, data, kind, tol, max_iter, with_order, lopsided
    ):
        space = lopsided_line(-100, 100) if lopsided else DistanceSpace.reals(-100, 100)
        F = continuous_operator(m, a, b, blow_up)
        start = data.draw(st.tuples(*[st.floats(-100, 100)] * m))
        config = SolveConfig(kind=kind, tol=tol, max_iter=max_iter)
        extra = {}
        if with_order:
            members = data.draw(st.sets(st.integers(1, m)))
            extra = dict(order=OrderRelation.numeric(), lset=LSet(m, frozenset(members)))
        got = picard_solve(space, F, FAMILIES[m], start, config, **extra)
        want = reference_picard_solve(space, F, FAMILIES[m], start, config, **extra)
        assert field_reprs(got) == field_reprs(want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 5),
        st.sampled_from([1, 2, 3]),
        st.randoms(use_true_random=False),
        st.integers(1, 40),
        st.sampled_from(list(ProductKind)),
        st.booleans(),
    )
    def test_finite_table_matches_checked_loop(self, n, m, rnd, max_iter, kind, with_order):
        space, order = int_chain(n)
        F = random_table_operator(rnd, space, m)
        family = LambdaFamily(m, tuple(tuple(rnd.randint(1, m) for _ in range(m)) for _ in range(m)))
        start = tuple(rnd.randrange(n) for _ in range(m))
        config = SolveConfig(kind=kind, max_iter=max_iter)
        extra = dict(order=order, lset=LSet(m, frozenset([1]))) if with_order else {}
        got = picard_solve(space, F, family, start, config, **extra)
        want = reference_picard_solve(space, F, family, start, config, **extra)
        assert field_reprs(got) == field_reprs(want)

    def test_arity_errors_match_the_checked_loop(self, reals):
        F = MultiOperator(2, lambda x, y: x)
        for start in [(0.0,), (0.0, 1.0, 2.0), ()]:
            with pytest.raises(ValueError) as want:
                reference_picard_solve(reals, F, coupled_preset(), start, SolveConfig())
            with pytest.raises(ValueError) as got:
                picard_solve(reals, F, coupled_preset(), start)
            assert str(got.value) == str(want.value)
