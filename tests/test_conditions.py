import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    DistanceSpace,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    ProductKind,
    chain_order,
    check_bounds_exist,
    check_lattice,
    check_mk,
    check_mk_operator,
    check_mk_space,
    check_omega,
    check_order_distance_compat,
    coupled_preset,
    sample_comparable_pairs,
)
from multifix.conditions import _binding_r
from helpers import (
    int_chain,
    random_table_operator,
    reference_first_failure,
    reference_sample_comparable_pairs,
)


@pytest.fixture
def chain3():
    return int_chain(3)


class TestLattice:
    def test_chain_is_lattice(self):
        order = chain_order([0, 1, 2])
        report = check_lattice(order)
        assert report.is_lattice
        assert report.join[(0, 2)] == 2
        assert report.meet[(1, 2)] == 1

    def test_two_atoms_without_top(self):
        order = OrderRelation.from_pairs("oab", [("o", "a"), ("o", "b")])
        report = check_lattice(order)
        assert not report.is_lattice
        a, b, kind = report.counterexample
        assert {a, b} == {"a", "b"} and kind == "join"

    def test_boolean_square(self):
        points = list(itertools.product([0, 1], repeat=2))
        pairs = [
            (p, q)
            for p in points
            for q in points
            if p[0] <= q[0] and p[1] <= q[1]
        ]
        order = OrderRelation.from_pairs(points, pairs)
        report = check_lattice(order)
        assert report.is_lattice
        assert report.join[((0, 1), (1, 0))] == (1, 1)
        assert report.meet[((0, 1), (1, 0))] == (0, 0)


class TestBounds:
    def test_lattice_has_bounds(self):
        assert check_bounds_exist(chain_order([0, 1, 2])).passed

    def test_incomparable_pair_without_bounds(self):
        order = OrderRelation.from_pairs([0, 1], [])
        report = check_bounds_exist(order)
        assert report.verdict == "fail"

    def test_diamond(self):
        order = OrderRelation.from_pairs(
            "oabt", [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")]
        )
        assert check_bounds_exist(order).passed


class TestOrderDistanceCompat:
    def test_abs_chain_passes(self, chain3):
        space, order = chain3
        assert check_order_distance_compat(space, order).passed

    def test_bulging_middle_fails(self):
        space = DistanceSpace.from_matrix(
            [0, 1, 2], [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
        )
        order = chain_order([0, 1, 2])
        report = check_order_distance_compat(space, order)
        assert report.verdict == "fail"
        assert report.counterexample == (0, 1, 2)

    def test_antichain_vacuous(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 3], [3, 0]])
        order = OrderRelation.from_pairs([0, 1], [])
        assert check_order_distance_compat(space, order).passed


class TestOmega:
    def test_constant_operator_passes(self, chain3):
        space, order = chain3
        F = MultiOperator.constant(2, 1)
        report = check_omega(space, order, F, coupled_preset(), LSet.of(2, 1), 1)
        assert report.verdict == "pass"

    def test_min_operator_fails_strict_contraction(self, chain3):
        space, order = chain3
        F = MultiOperator(2, min)
        report = check_omega(space, order, F, coupled_preset(), LSet.of(2, 1, 2), 1)
        assert report.verdict == "fail"
        clause = report.failing_clause()
        assert clause.name == "strict contraction"
        assert clause.witness == ((0, 0), (1, 1))

    def test_non_lattice_fails_first_clause(self):
        space = DistanceSpace.from_matrix("oab", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        order = OrderRelation.from_pairs("oab", [("o", "a"), ("o", "b")])
        F = MultiOperator.constant(2, "o")
        report = check_omega(space, order, F, coupled_preset(), LSet.of(2, 1), 1)
        assert report.verdict == "fail"
        assert report.failing_clause().name == "lattice"

    def test_variant34_surjectivity_clause(self, chain3):
        space, order = chain3
        F = MultiOperator.constant(2, 1)
        collapsing = __import__("multifix").LambdaFamily(2, ((1, 1), (1, 1)))
        report = check_omega(space, order, F, collapsing, LSet.of(2, 1), 3)
        assert report.verdict == "fail"
        assert report.failing_clause().name == "lambda surjectivity"

    def test_duality_variant1_vs_variant2(self, chain3):
        space, order = chain3
        rng = random.Random(13)
        operators = [MultiOperator.constant(2, v) for v in (0, 1, 2)]
        operators += [random_table_operator(rng, space, 2) for _ in range(10)]
        for F in operators:
            for members in ((), (1,), (2,), (1, 2)):
                lset = LSet(2, frozenset(members))
                dual = lset.complement()
                for v1, v2 in ((1, 2), (3, 4)):
                    r1 = check_omega(space, order, F, coupled_preset(), lset, v1)
                    r2 = check_omega(space, order, F, coupled_preset(), dual, v2)
                    assert r1.passed == r2.passed


class TestMeirKeelerSpace:
    def test_zero_comparable_distances_pass(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 0], [1, 0]])
        order = chain_order([0, 1])
        delta = MeirKeelerModulus.linear(1.0)
        assert check_mk_space(space, order, delta, [1.0, 0.5]).passed

    def test_unit_gap_fails_at_three_quarters(self):
        space, order = int_chain(2)
        delta = MeirKeelerModulus.linear(1.0)
        report = check_mk_space(space, order, delta, [0.75])
        assert report.verdict == "fail"
        assert report.counterexample == (0, 1, 0.75)

    def test_antichain_vacuous(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        order = OrderRelation.from_pairs([0, 1], [])
        delta = MeirKeelerModulus.linear(1.0)
        assert check_mk_space(space, order, delta, [1.0]).passed

    def test_modulus_must_be_positive(self):
        delta = MeirKeelerModulus(lambda r: 0.0)
        with pytest.raises(ValueError, match="positive"):
            delta(1.0)

    def test_nan_radius_and_nan_value_are_rejected(self):
        with pytest.raises(ValueError, match="positive r"):
            MeirKeelerModulus.linear(1.0)(float("nan"))
        with pytest.raises(ValueError, match="modulus must be positive"):
            MeirKeelerModulus(lambda r: float("nan"))(1.0)


class TestMeirKeelerOperator:
    L = LSet.of(2, 1)

    def test_lipschitz_half_sampled_pass(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        pairs = sample_comparable_pairs(-10, 10, self.L, 2000, seed=7)
        report = check_mk_operator(
            reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
            MeirKeelerModulus.linear(1.0), ProductKind.SUP, pairs=pairs, seed=7,
        )
        assert report.verdict == "sampled-pass"
        assert report.samples == 2000

    def test_expansion_fails_with_witness(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: 2 * x)
        pairs = sample_comparable_pairs(-10, 10, self.L, 500, seed=3)
        report = check_mk_operator(
            reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
            MeirKeelerModulus.linear(1.0), ProductKind.SUP, pairs=pairs, seed=3,
        )
        assert report.verdict == "fail"
        assert report.counterexample is not None

    def test_constant_passes_exhaustively(self):
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        report = check_mk_operator(
            space, order, F, coupled_preset(), self.L,
            MeirKeelerModulus.linear(1.0), ProductKind.SUP,
        )
        assert report.verdict == "pass"

    @pytest.mark.parametrize("k", [0.25, 0.5, 0.8])
    def test_banach_modulus_passes_below_one(self, k):
        # classical instantiation: delta(r) = r(1-k)/k turns a k-contraction
        # into a Meir-Keeler operator
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (k / 2) * (x - y))
        pairs = sample_comparable_pairs(-10, 10, self.L, 1000, seed=21)
        report = check_mk_operator(
            reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
            MeirKeelerModulus.linear((1 - k) / k), ProductKind.SUP,
            pairs=pairs, seed=21,
        )
        assert report.passed

    def test_banach_modulus_fails_at_or_above_one(self):
        k = 1.2
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (k / 2) * (x - y))
        pairs = sample_comparable_pairs(-10, 10, self.L, 1000, seed=21)
        report = check_mk_operator(
            reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
            MeirKeelerModulus.linear(0.5), ProductKind.SUP, pairs=pairs, seed=21,
        )
        assert report.verdict == "fail"

    def test_deterministic_under_seed(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: 1.1 * (x - y) + 1)
        runs = []
        for _ in range(2):
            pairs = sample_comparable_pairs(-10, 10, self.L, 1000, seed=9)
            runs.append(
                check_mk_operator(
                    reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
                    MeirKeelerModulus.linear(1.0), ProductKind.SUP,
                    pairs=pairs, seed=9,
                )
            )
        assert runs[0].verdict == runs[1].verdict == "fail"
        assert runs[0].counterexample == runs[1].counterexample

    def test_pair_whose_distance_passes_every_threshold_holds_vacuously(self):
        # rho = 20 is at or above every r + delta(r) = 1 of the grid, so no r
        # binds, whatever the (here infinite) image distance
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: 1e308 * (x - y) + 1)
        pairs = [((-10.0, 10.0), (10.0, -10.0))]
        report = check_mk_operator(
            reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
            MeirKeelerModulus.linear(1.0), ProductKind.SUP, pairs=pairs, r_grid=[0.5],
        )
        assert report.verdict == "sampled-pass"

    def test_supplied_pair_arity_is_checked(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: x)
        args = (reals, OrderRelation.numeric(), F, coupled_preset(), self.L,
                MeirKeelerModulus.linear(1.0), ProductKind.SUP)
        with pytest.raises(ValueError, match="arity mismatch: 2 vs 3"):
            check_mk_operator(*args, pairs=[((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0, 2.0))])
        with pytest.raises(ValueError, match="operator 2, family 2, point 3"):
            check_mk_operator(*args, pairs=[((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))])


BOUND = st.floats(-1e6, 1e6, allow_nan=False)


class TestSamplerDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.tuples(st.just(m), st.sets(st.integers(1, m)))
        ),
        BOUND,
        st.floats(0, 1e3) | st.sampled_from([0.25, 1.0, 20.0]),
        st.none() | st.floats(0, 1e3) | st.sampled_from([0.5, 5.0]),
        st.integers(0, 60),
        st.integers(0, 2**32),
    )
    def test_repr_identical_to_uniform_loop(self, m_members, lo, width, max_step, n, seed):
        m, members = m_members
        lset = LSet(m, frozenset(members))
        hi = lo + width
        got = sample_comparable_pairs(lo, hi, lset, n, seed, max_step)
        want = reference_sample_comparable_pairs(lo, hi, lset, n, seed, max_step)
        assert [repr(p) for p in got] == [repr(p) for p in want]

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_no_samples_for_a_non_positive_count(self, n):
        assert sample_comparable_pairs(-10, 10, LSet.of(2, 1), n, 3) == []

    def test_integer_bounds_come_back_as_equal_floats(self):
        # the loop returned the int bound itself on a clipped coordinate
        lset = LSet.of(2, 1)
        got = sample_comparable_pairs(-10, 10, lset, 400, 7, max_step=20)
        want = reference_sample_comparable_pairs(-10, 10, lset, 400, 7, max_step=20)
        assert got == want
        assert all(type(c) is float for x, y in got for c in (*x, *y))


GRID = st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.01, 5.0), min_size=1, max_size=6)
DIST = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0, float("inf")]) | st.floats(0, 10)


class TestBindingRDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        GRID,
        st.sampled_from(
            [MeirKeelerModulus.linear(1.0), MeirKeelerModulus.const(0.5),
             MeirKeelerModulus.linear(1e-4), MeirKeelerModulus(lambda r: 3.0 - r if r < 2.9 else 0.1)]
        ),
        st.lists(st.tuples(DIST, DIST | st.just(float("nan"))), max_size=12),
        st.booleans(),
    )
    def test_matches_grid_scan(self, grid, delta, pairs, table_backed):
        rho = [d for d, _ in pairs]
        image = [d for _, d in pairs]
        got = _binding_r(grid, delta)(np.array(rho), np.array(image), table_backed)
        want = reference_first_failure(grid, delta, rho, image, table_backed)
        assert got == want
        if got is not None:
            assert type(got[1]) is float


class TestCompositeMK:
    def test_pass_with_grid_above_realized_distances(self):
        space, order = int_chain(2)
        F = MultiOperator.constant(2, 0)
        report = check_mk(
            space, order, F, coupled_preset(), LSet.of(2, 1),
            MeirKeelerModulus.const(1.0), 1, r_grid=[2.0],
        )
        assert report.verdict == "pass"

    def test_fail_without_bounds(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        order = OrderRelation.from_pairs([0, 1], [])
        F = MultiOperator.constant(2, 0)
        report = check_mk(
            space, order, F, coupled_preset(), LSet.of(2, 1),
            MeirKeelerModulus.const(1.0), 1,
        )
        assert report.verdict == "fail"
        assert report.failing_clause().name == "pair bounds"

    def test_antitone_variant_rejects_isotone_map(self):
        space, order = int_chain(3)
        # identity-style map is isotone, so the antitone clause must fail
        F = MultiOperator(2, lambda x, y: x)
        report = check_mk(
            space, order, F, coupled_preset(), LSet.of(2, 1, 2),
            MeirKeelerModulus.const(1.0), 2, r_grid=[10.0],
        )
        assert report.verdict == "fail"
        assert report.failing_clause().name == "image order"
