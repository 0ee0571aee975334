import itertools
import math
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from multifix import (
    ConditionReport,
    DistanceSpace,
    ElementwiseOperator,
    Instance,
    LambdaFamily,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    ProductKind,
    UnsupportedInstanceError,
    chain_order,
    check_bounds_exist,
    check_lattice,
    check_order_distance_compat,
    coupled_preset,
    sample_comparable_pairs,
    verify_uniqueness,
)
from multifix import conditions
from multifix.conditions import (
    CONDITIONS,
    Clause,
    _all_r_failure,
    _binding_r,
    _column_distances,
    _first_failure,
    _pair_blocks,
)
from multifix.spaces import COMPUTED_ATOL
from helpers import (
    STRICT_MARGIN,
    closure_reference,
    field_reprs,
    int_chain,
    random_table_operator,
    reference_all_r_failure,
    reference_check_bounds_exist,
    reference_check_lattice,
    reference_check_mk,
    reference_check_mk_operator,
    reference_check_omega,
    reference_check_order_distance_compat,
    reference_first_failure,
    reference_pair_distances,
    reference_sample_comparable_pairs,
)


@pytest.fixture
def chain3():
    return int_chain(3)


class TestReportVerdict:
    """The verdict rule on hand-built clause lists."""

    @pytest.mark.parametrize(
        "seed, samples, verdict",
        [(None, None, "pass"), (0, 10_000, "sampled-pass"), (None, 1, "sampled-pass")],
    )
    def test_all_clauses_hold(self, seed, samples, verdict):
        # A report that carries samples drew its pairs: it passes as sampled.
        clauses = [Clause("a", True), Clause("b", True, "unused")]
        report = ConditionReport(clauses, seed=seed, samples=samples)
        assert (report.verdict, report.passed) == (verdict, True)
        assert (report.failing_clause(), report.counterexample) == (None, None)

    @pytest.mark.parametrize("samples", [None, 10_000])
    def test_first_failing_clause_gives_the_witness(self, samples):
        clauses = [Clause("a", True, "unused"), Clause("b", False, (1, 2)), Clause("c", False, (3,))]
        report = ConditionReport(clauses, samples=samples)
        assert (report.verdict, report.passed) == ("fail", False)
        assert report.failing_clause() is clauses[1]
        assert report.counterexample == (1, 2)

    def test_failing_clause_without_a_witness(self):
        report = ConditionReport([Clause("a", False), Clause("b", False, (1,))])
        assert (report.verdict, report.counterexample) == ("fail", None)


class TestLattice:
    def test_chain_is_lattice(self):
        order = chain_order([0, 1, 2])
        assert check_lattice(order).ok

    def test_two_atoms_without_top(self):
        order = OrderRelation.from_pairs("oab", [("o", "a"), ("o", "b")])
        clause = check_lattice(order)
        assert not clause.ok
        a, b, kind = clause.witness
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
        assert check_lattice(order).ok


@pytest.mark.parametrize(
    "check, name", [(check_lattice, "lattice"), (check_bounds_exist, "bounds")]
)
def test_order_clauses_refuse_a_box(check, name):
    with pytest.raises(UnsupportedInstanceError, match=f"{name} check needs a finite carrier"):
        check(None)


class TestMissingModulus:
    """An MK set refuses a missing modulus before its base clauses run or F
    is called, also where a base clause would fail."""

    @pytest.mark.parametrize("name", ["mk1", "mk2", "mk-op"])
    @pytest.mark.parametrize("shape", ["constant", "projection", "antichain"])
    def test_refused_before_anything_runs(self, name, shape):
        space, order = int_chain(3)
        if shape == "antichain":
            order = OrderRelation.from_pairs(space.points, [])
        calls = []
        value = (lambda x, y: x) if shape == "projection" else (lambda x, y: 1)
        F = MultiOperator(2, lambda x, y: calls.append((x, y)) or value(x, y))
        inst = Instance(space, order, F, coupled_preset(), LSet.of(2, 1))
        with mock.patch.object(conditions, "check_bounds_exist") as bounds:
            with pytest.raises(ValueError, match="needs a Meir-Keeler modulus"):
                CONDITIONS[name].check(inst, kind=ProductKind.SUP)
        assert calls == [] and not bounds.called

    @pytest.mark.parametrize("name", ["mk1", "mk2"])
    def test_verify_refuses_it_too(self, name):
        space, order = int_chain(3)
        inst = Instance(space, order, MultiOperator.constant(2, 1), coupled_preset(), LSet.of(2, 1))
        with pytest.raises(ValueError, match="needs a Meir-Keeler modulus"):
            verify_uniqueness(inst, condition=name)


class TestBounds:
    def test_lattice_has_bounds(self):
        assert check_bounds_exist(chain_order([0, 1, 2])).ok

    def test_incomparable_pair_without_bounds(self):
        order = OrderRelation.from_pairs([0, 1], [])
        assert check_bounds_exist(order) == Clause("pair bounds", False, (0, 1, "upper"))

    def test_diamond(self):
        order = OrderRelation.from_pairs(
            "oabt", [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")]
        )
        assert check_bounds_exist(order).ok


class TestOrderDistanceCompat:
    def test_abs_chain_passes(self, chain3):
        space, order = chain3
        assert check_order_distance_compat(space, order).ok

    def test_bulging_middle_fails(self):
        space = DistanceSpace.from_matrix(
            [0, 1, 2], [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
        )
        order = chain_order([0, 1, 2])
        clause = check_order_distance_compat(space, order)
        assert (clause.ok, clause.witness) == (False, (0, 1, 2))

    def test_antichain_vacuous(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 3], [3, 0]])
        order = OrderRelation.from_pairs([0, 1], [])
        assert check_order_distance_compat(space, order).ok

    def test_table_sums_compare_exactly(self):
        # near = 0.1 + 0.2 rounds above far = 0.3 + 0, and no margin forgives it
        table = DistanceSpace.from_matrix(
            [0, 1, 2], [[0, 0.1, 0.3], [0.2, 0, 0.1], [0, 0.1, 0]]
        )
        order = chain_order([0, 1, 2])
        assert check_order_distance_compat(table, order).witness == (0, 1, 2)


class TestOmega:
    def test_constant_operator_passes(self, chain3):
        space, order = chain3
        F = MultiOperator.constant(2, 1)
        inst = Instance(space, order, F, coupled_preset(), LSet.of(2, 1))
        report = CONDITIONS["omega1"].check(inst)
        assert report.verdict == "pass"

    def test_min_operator_fails_strict_contraction(self, chain3):
        space, order = chain3
        F = MultiOperator(2, min)
        inst = Instance(space, order, F, coupled_preset(), LSet.of(2, 1, 2))
        report = CONDITIONS["omega1"].check(inst)
        assert report.verdict == "fail"
        clause = report.failing_clause()
        assert clause.name == "strict contraction"
        assert clause.witness == ((0, 0), (1, 1))

    def test_non_lattice_fails_first_clause(self):
        space = DistanceSpace.from_matrix("oab", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        order = OrderRelation.from_pairs("oab", [("o", "a"), ("o", "b")])
        F = MultiOperator.constant(2, "o")
        inst = Instance(space, order, F, coupled_preset(), LSet.of(2, 1))
        report = CONDITIONS["omega1"].check(inst)
        assert report.verdict == "fail"
        assert report.failing_clause().name == "lattice"

    def test_variant34_surjectivity_clause(self, chain3):
        space, order = chain3
        F = MultiOperator.constant(2, 1)
        collapsing = __import__("multifix").LambdaFamily(2, ((1, 1), (1, 1)))
        report = CONDITIONS["omega3"].check(Instance(space, order, F, collapsing, LSet.of(2, 1)))
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
                    r1 = CONDITIONS[f"omega{v1}"].check(
                        Instance(space, order, F, coupled_preset(), lset)
                    )
                    r2 = CONDITIONS[f"omega{v2}"].check(
                        Instance(space, order, F, coupled_preset(), dual)
                    )
                    assert r1.passed == r2.passed


class TestConditionSets:
    def test_base_clauses_are_looked_up_when_the_check_runs(self, chain3):
        # A wrapper set on the module attribute, as the benchmark's layer
        # trace sets one, sees every call.
        space, order = chain3
        inst = Instance(space, order, MultiOperator.constant(2, 1), coupled_preset(), LSet.of(2, 1))
        with mock.patch.object(
            conditions, "check_lattice", wraps=check_lattice
        ) as lattice, mock.patch.object(
            conditions, "check_order_distance_compat", wraps=check_order_distance_compat
        ) as compat:
            assert CONDITIONS["omega1"].check(inst).verdict == "pass"
        lattice.assert_called_once_with(order)
        compat.assert_called_once_with(space, order)

    def test_what_each_set_reads_and_needs(self):
        # A set needs a modulus exactly when its pair test is the MK one.
        found = {
            name: (sorted(c.reads), c.mk, c.verifiable)
            for name, c in CONDITIONS.items()
        }
        omega = ([], False, True)
        mk = (["r_grid"], True, True)
        assert found == {
            "omega1": omega, "omega2": omega, "omega3": omega, "omega4": omega,
            "mk1": mk, "mk2": mk, "mk-op": (["metric", "r_grid", "samples", "seed"], True, False),
        }


class TestMeirKeelerSpace:
    def test_modulus_must_be_positive(self):
        # c * r underflows to 0
        with pytest.raises(ValueError, match=r"got delta\(1e-300\) = 0.0"):
            MeirKeelerModulus.linear(1e-300)(1e-300)

    def test_nan_radius_and_nan_value_are_rejected(self):
        with pytest.raises(ValueError, match="positive r"):
            MeirKeelerModulus.linear(1.0)(float("nan"))

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "form, message",
        [("linear", "linear modulus needs a positive finite coefficient"),
         ("const", "constant modulus needs a positive finite value")],
    )
    def test_coefficient_is_validated_on_every_construction(self, c, form, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MeirKeelerModulus(c, form)
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(MeirKeelerModulus, form)(c)

    def test_only_two_forms(self):
        with pytest.raises(ValueError, match="unknown modulus form 'power'"):
            MeirKeelerModulus(1.0, "power")

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["linear", "const"]),
        st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    )
    def test_call_and_values_agree_bit_for_bit(self, form, c, r):
        # The grid thresholds and the closed-form witness read the same floats.
        delta = MeirKeelerModulus(c, form)
        python = c * r if form == "linear" else c
        if not python > 0:
            with pytest.raises(ValueError, match="modulus must be positive"):
                delta(r)
            return
        value = delta(r)
        assert type(value) is float
        assert value.hex() == float(delta.values(np.array([r]))[0]).hex() == python.hex()


class TestMeirKeelerOperator:
    L = LSet.of(2, 1)

    def test_lipschitz_half_sampled_pass(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        report = CONDITIONS["mk-op"].check(
            Instance(reals, None, F, coupled_preset(), self.L),
            MeirKeelerModulus.linear(1.0), kind=ProductKind.SUP, samples=2000, seed=7,
        )
        assert report.verdict == "sampled-pass"
        assert report.samples == 2000

    def test_expansion_fails_with_witness(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: 2 * x)
        report = CONDITIONS["mk-op"].check(
            Instance(reals, None, F, coupled_preset(), self.L),
            MeirKeelerModulus.linear(1.0), kind=ProductKind.SUP, samples=500, seed=3,
        )
        assert report.verdict == "fail"
        assert report.counterexample is not None

    def test_constant_passes_exhaustively(self):
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        report = CONDITIONS["mk-op"].check(
            Instance(space, order, F, coupled_preset(), self.L),
            MeirKeelerModulus.linear(1.0), kind=ProductKind.SUP,
        )
        assert report.verdict == "pass"

    @pytest.mark.parametrize("k", [0.25, 0.5, 0.8])
    def test_banach_modulus_passes_below_one(self, k):
        # classical instantiation: delta(r) = r(1-k)/k turns a k-contraction
        # into a Meir-Keeler operator
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (k / 2) * (x - y))
        report = CONDITIONS["mk-op"].check(
            Instance(reals, None, F, coupled_preset(), self.L),
            MeirKeelerModulus.linear((1 - k) / k), kind=ProductKind.SUP,
            samples=1000, seed=21,
        )
        assert report.passed

    def test_banach_modulus_fails_at_or_above_one(self):
        k = 1.2
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (k / 2) * (x - y))
        report = CONDITIONS["mk-op"].check(
            Instance(reals, None, F, coupled_preset(), self.L),
            MeirKeelerModulus.linear(0.5), kind=ProductKind.SUP, samples=1000, seed=21,
        )
        assert report.verdict == "fail"

    def test_deterministic_under_seed(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: 1.1 * (x - y) + 1)
        runs = []
        for _ in range(2):
            runs.append(
                CONDITIONS["mk-op"].check(
                    Instance(reals, None, F, coupled_preset(), self.L),
                    MeirKeelerModulus.linear(1.0), kind=ProductKind.SUP,
                    samples=1000, seed=9,
                )
            )
        assert runs[0].verdict == runs[1].verdict == "fail"
        assert runs[0].counterexample == runs[1].counterexample

    def test_pair_whose_distance_passes_every_threshold_holds_vacuously(self):
        # rho = 20 is at or above every r + delta(r) = 1 of the grid, so no r
        # binds, whatever the (here infinite) image distance
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: 1e308 * (x - y) + 1)
        pair = np.array([[[-10.0, 10.0], [10.0, -10.0]]])
        rho, image = _column_distances(F, coupled_preset(), ProductKind.SUP, pair)
        assert rho.tolist() == [20.0] and image.tolist() == [float("inf")]
        first_failure = _first_failure(MeirKeelerModulus.linear(1.0), [0.5])
        assert first_failure(rho, image, COMPUTED_ATOL) is None

    def test_defaults_are_seed_zero_and_ten_thousand_samples(self):
        reals = DistanceSpace.reals(-10, 10)
        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        args = (Instance(reals, None, F, coupled_preset(), self.L),
                MeirKeelerModulus.linear(1.0))
        check = CONDITIONS["mk-op"].check
        report = check(*args, kind=ProductKind.SUP)
        assert (report.verdict, report.seed, report.samples) == ("sampled-pass", 0, 10_000)
        again = check(*args, kind=ProductKind.SUP, seed=0, samples=10_000)
        assert field_reprs(report) == field_reprs(again)

    def test_errors_come_in_order_count_arity_width(self):
        args = (None, MultiOperator(2, lambda x, y: x), coupled_preset())
        delta, check = MeirKeelerModulus.linear(1.0), CONDITIONS["mk-op"].check
        wide = DistanceSpace.reals(-1e308, 1e308)
        for samples in (0, -5):
            with pytest.raises(ValueError, match="no comparable pairs to check"):
                check(Instance(wide, *args, LSet.of(3, 1)), delta, kind=ProductKind.SUP,
                      samples=samples)
        with pytest.raises(ValueError, match="operator 2, family 2, point 3"):
            check(Instance(wide, *args, LSet.of(3, 1)), delta, kind=ProductKind.SUP)
        with pytest.raises(UnsupportedInstanceError, match=r"box \[-1e\+308, 1e\+308\]"):
            check(Instance(wide, *args, self.L), delta, kind=ProductKind.SUP)

    @pytest.mark.parametrize("sampling", [{"seed": 0}, {"samples": 5}, {"seed": 1, "samples": 5}])
    def test_a_finite_carrier_is_never_sampled(self, sampling):
        space, order = int_chain(3)
        args = (Instance(space, order, MultiOperator.constant(2, 1), coupled_preset(), self.L),
                MeirKeelerModulus.linear(1.0))
        with pytest.raises(UnsupportedInstanceError, match="checked on every pair"):
            CONDITIONS["mk-op"].check(*args, kind=ProductKind.SUP, **sampling)

    def test_a_sum_over_a_table_keeps_the_computed_margin(self):
        # The images of (0, 1) <=_L (1, 0) are 1e-13 short of r = 1 in the
        # sum distance, inside COMPUTED_ATOL, so the strict test fails them.
        e = 0.5 - 5e-14
        space = DistanceSpace.from_matrix([0, 1], [[0, e], [e, 0]])
        F = MultiOperator(2, lambda x, y: y)
        report = CONDITIONS["mk-op"].check(
            Instance(space, chain_order([0, 1]), F, coupled_preset(), self.L),
            MeirKeelerModulus.const(0.5), kind=ProductKind.SUM, r_grid=[1.0],
        )
        assert report.counterexample == ((0, 1), (1, 0), 1.0)


BOUND = st.floats(-1e6, 1e6, allow_nan=False) | st.floats(allow_nan=False, allow_infinity=False)
# Widths up to the float maximum, subnormal widths and 0.
WIDTH = (
    st.floats(0, 1e3)
    | st.floats(0, 2.2250738585072014e-308)
    | st.floats(0, allow_infinity=False)
    | st.sampled_from([0.25, 1.0, 20.0])
)
HALF_MAX = st.floats(2.0**1023, allow_infinity=False)


class TestSamplerDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.tuples(st.just(m), st.sets(st.integers(1, m)))
        ),
        BOUND,
        WIDTH,
        st.integers(0, 60),
        st.integers(0, 2**32),
    )
    # Boxes of width the float maximum: steps past hi (coordinate 1, on L)
    # and past lo (coordinate 2) round to inf before they are clipped.
    @example((2, {1}), 0.0, sys.float_info.max, 60, 0)
    @example((2, {1}), -sys.float_info.max, sys.float_info.max, 60, 0)
    def test_repr_identical_to_uniform_loop(self, m_members, lo, width, n, seed):
        m, members = m_members
        lset = LSet(m, frozenset(members))
        hi = lo + width
        assume(math.isfinite(hi))
        got = sampled(lo, hi, lset, n, seed)
        want = reference_sample_comparable_pairs(lo, hi, lset, n, seed)
        assert got.shape == (n, 2, m)
        assert repr(got.tolist()) == repr(as_lists(want))

    @given(HALF_MAX, HALF_MAX, st.integers(0, 5))
    def test_a_box_wider_than_the_float_maximum_is_refused(self, a, b, n):
        # -a and b are at least 2**1023 from 0, so hi - lo overflows: every
        # x would be inf.  The refusal comes before any draw, even of none.
        with pytest.raises(UnsupportedInstanceError, match=r"box \[.*\] is too wide to sample"):
            sampled(-a, b, LSet.of(2, 1), n, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.tuples(st.just(m), st.sets(st.integers(1, m)))
        ),
        st.integers(0, 40),
        st.integers(0, 2**32),
        st.integers(1, 8),
    )
    def test_blocks_concatenate_to_one_stream(self, m_members, n, seed, block):
        m, members = m_members
        lset = LSet(m, frozenset(members))
        with mock.patch("multifix.conditions.SAMPLE_BLOCK", block):
            blocks = list(sample_comparable_pairs(-10.0, 10.0, lset, n, seed))
        assert [len(b) for b in blocks] == [min(block, n - k) for k in range(0, n, block)]
        got = np.concatenate(blocks) if blocks else np.empty((0, 2, m))
        want = reference_sample_comparable_pairs(-10.0, 10.0, lset, n, seed)
        assert repr(got.tolist()) == repr(as_lists(want))

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_no_samples_for_a_non_positive_count(self, n):
        assert list(sample_comparable_pairs(-10, 10, LSet.of(2, 1), n, 3)) == []

    def test_integer_bounds_come_back_as_equal_floats(self):
        # the loop returned the int bound itself on a clipped coordinate
        lset = LSet.of(2, 1)
        got = sampled(-10, 10, lset, 400, 7).tolist()
        want = reference_sample_comparable_pairs(-10, 10, lset, 400, 7)
        assert got == as_lists(want)
        assert all(type(c) is float for x, y in got for c in (*x, *y))


def sampled(lo, hi, lset, n, seed):
    """The sampler's blocks as one (n, 2, m) array."""
    return np.concatenate([np.empty((0, 2, lset.m)), *sample_comparable_pairs(lo, hi, lset, n, seed)])


def as_lists(pairs):
    """Pairs of tuples as the nested lists of an array's ``tolist``."""
    return [[list(x), list(y)] for x, y in pairs]


GRID = st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.01, 5.0), min_size=1, max_size=6)
DIST = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0, float("inf")]) | st.floats(0, 10)


class TestBindingRDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        GRID,
        st.sampled_from(
            [MeirKeelerModulus.linear(1.0), MeirKeelerModulus.const(0.5),
             MeirKeelerModulus.linear(1e-4)]
        ),
        st.lists(st.tuples(DIST, DIST | st.just(float("nan"))), max_size=12),
        st.sampled_from([0.0, COMPUTED_ATOL]),
    )
    def test_matches_grid_scan(self, grid, delta, pairs, atol):
        rho = [d for d, _ in pairs]
        image = [d for _, d in pairs]
        got = _binding_r(grid, delta)(np.array(rho), np.array(image), atol)
        want = reference_first_failure(grid, delta, rho, image, atol == 0.0)
        assert got == want
        if got is not None:
            assert type(got[1]) is float


# The two built-in shapes of modulus the closed form covers.
MONOTONE = [MeirKeelerModulus.linear(1.0), MeirKeelerModulus.linear(0.3), MeirKeelerModulus.const(0.2)]
FINITE_DIST = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]) | st.floats(1e-6, 10)


def all_r(delta, rho, image, atol):
    return _all_r_failure(delta)(np.array(rho), np.array(image), atol)


class TestAllRClosedForm:
    """The closed form over every r > 0 against the grid scan."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(MONOTONE),
        st.lists(st.tuples(FINITE_DIST, FINITE_DIST), min_size=1, max_size=12),
        GRID,
    )
    def test_matches_binding_r_on_a_grid_holding_every_image_distance(
        self, delta, pairs, extra
    ):
        rho = [d for d, _ in pairs]
        image = [d for _, d in pairs]
        grid = sorted({*extra, *(d for d in image if d > 0)})
        first = _binding_r(grid, delta)
        for d, d_img in pairs:
            closed = all_r(delta, [d], [d_img], 0.0)
            scanned = first(np.array([d]), np.array([d_img]), 0.0)
            assert (closed is None) == (scanned is None)
            if closed is not None:
                # r = d_img fails, and the grid's binding r is no larger
                assert closed == (0, d_img) and scanned[1] <= d_img
        got = all_r(delta, rho, image, 0.0)
        want = first(np.array(rho), np.array(image), 0.0)
        assert (None if got is None else got[0]) == (None if want is None else want[0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(MONOTONE),
        FINITE_DIST,
        FINITE_DIST | st.floats(0, 1e-9),
        st.floats(-3e-12, 3e-12),
    )
    def test_margin_only_adds_borderline_failures(self, delta, d_img, offset, jitter):
        # rho near img + delta(img): on computed reals the margin may fail the
        # pair, and never passes a pair that fails on exact comparisons
        rho = d_img + delta(d_img) + offset + jitter if d_img > 0 else offset
        exact = all_r(delta, [rho], [d_img], 0.0)
        computed = all_r(delta, [rho], [d_img], COMPUTED_ATOL)
        want = reference_all_r_failure(delta, rho, d_img, False)
        assert computed == (None if want is None else (0, want))
        if exact is not None:
            assert computed == exact
        elif computed is not None:
            k, r = computed
            assert rho >= d_img + delta(d_img)
            assert r == d_img + STRICT_MARGIN and rho < r + delta(r)

    @pytest.mark.parametrize("delta", MONOTONE)
    @pytest.mark.parametrize("atol", [0.0, COMPUTED_ATOL])
    def test_equal_pair_passes(self, delta, atol):
        assert all_r(delta, [0.0], [0.0], atol) is None

    @pytest.mark.parametrize("image", [float("inf"), float("nan")])
    def test_image_beyond_every_r_fails_unless_rho_is_infinite(self, image):
        delta = MeirKeelerModulus.linear(1.0)
        assert all_r(delta, [0.0, 3.0], [image, image], 0.0) == (0, float("inf"))
        assert all_r(delta, [float("inf"), float("nan")], [image, image], 0.0) is None

    def test_probe_fails_between_grid_points(self):
        # d(p, q) = 1 maps to d(r, s) = 0.6: r = 0.55 meets 1 < 2r, not 0.6 < r
        delta = MeirKeelerModulus.linear(1.0)
        assert _binding_r([1.0], delta)(np.array([1.0]), np.array([0.6]), 0.0) is None
        assert all_r(delta, [1.0], [0.6], 0.0) == (0, 0.6)

    def test_equal_pairs_pass_on_computed_reals(self):
        # the sum product distance is a computed real even over a table
        space, order = int_chain(3)
        F = MultiOperator.constant(2, 1)
        args = (Instance(space, order, F, coupled_preset(), LSet.of(2, 1)),
                MeirKeelerModulus.linear(1.0))
        assert CONDITIONS["mk-op"].check(*args, kind=ProductKind.SUM).verdict == "pass"
        reals = DistanceSpace.reals(-10, 10)
        same = np.array([[[1.5, -2.0], [1.5, -2.0]]])
        F = MultiOperator(2, lambda x, y: x - y)
        distances = _column_distances(F, coupled_preset(), ProductKind.SUM, same)
        assert [d.tolist() for d in distances] == [[0.0], [0.0]]
        assert _first_failure(args[1], None)(*distances, COMPUTED_ATOL) is None

    def test_values_checks_like_a_call(self):
        delta = MeirKeelerModulus.linear(0.5)
        assert delta.values(np.array([1.0, 4.0])).tolist() == [0.5, 2.0]
        assert MeirKeelerModulus.const(0.2).values(np.array([1.0, 4.0])).tolist() == [0.2, 0.2]
        with pytest.raises(ValueError, match="positive r"):
            delta.values(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"got delta\(5e-324\) = 0.0"):
            delta.values(np.array([1.0, 5e-324]))


MK_DELTAS = st.sampled_from(MONOTONE)
R_GRIDS = st.none() | st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]), min_size=1, max_size=3)


@st.composite
def continuous_pair_instances(draw):
    """A box under |x - y| with an affine operator that may overflow to inf
    (or, through inf - inf, to NaN), declared elementwise or not, or a
    constant elementwise operator; an L and a sample seed and count."""
    m = draw(st.integers(1, 3))
    family = LambdaFamily(
        m, tuple(tuple(draw(st.integers(1, m)) for _ in range(m)) for _ in range(m))
    )
    a = draw(st.sampled_from([0.25, 0.5, 1.1, 1e308, -1e308]))
    b = draw(st.sampled_from([0.0, 1.0, float("inf")]))
    form = draw(st.sampled_from(["elementwise", "per-element", "constant"]))
    if form == "constant":
        F = ElementwiseOperator.constant(m, draw(st.sampled_from([0.0, -2.5, 1e300])))
    else:
        cls = ElementwiseOperator if form == "elementwise" else MultiOperator
        F = cls(m, lambda *args: a * (args[0] - args[-1]) + b * args[-1])
    lset = LSet(m, frozenset(draw(st.sets(st.integers(1, m)))))
    lo = draw(st.sampled_from([-10.0, -1e300]))
    space = DistanceSpace.reals(lo, -lo)
    return space, F, family, lset, draw(st.integers(0, 99)), draw(st.integers(1, 30))


class TestColumnPathMatchesLoop:
    """mk-op on sampled pairs, drawn and evaluated in blocks of
    any size, against the per-pair loop on the per-pair sampler's pairs."""

    @settings(max_examples=200, deadline=None)
    @given(
        continuous_pair_instances(),
        st.sampled_from(ProductKind),
        MK_DELTAS,
        R_GRIDS,
        st.integers(1, 8),
    )
    def test_values_and_reports(self, instance, kind, delta, r_grid, block):
        space, F, family, lset, seed, n = instance
        lo, hi = space.box.lo, space.box.hi
        loop_pairs = reference_sample_comparable_pairs(lo, hi, lset, n, seed)
        got = _column_distances(F, family, kind, sampled(lo, hi, lset, n, seed))
        want = list(reference_pair_distances(space, F, family, kind, loop_pairs))
        assert [repr(v) for v in got[0].tolist()] == [repr(d) for d, _ in want]
        assert [repr(v) for v in got[1].tolist()] == [repr(d) for _, d in want]
        base = (space, None, F, family, lset)
        with mock.patch("multifix.conditions.SAMPLE_BLOCK", block):
            report = CONDITIONS["mk-op"].check(
                Instance(*base), delta, kind=kind, r_grid=r_grid, seed=seed, samples=n
            )
        assert field_reprs(report) == field_reprs(
            reference_check_mk_operator(
                *base, delta, kind, pairs=loop_pairs, r_grid=r_grid, seed=seed
            )
        )
        for c in report.clauses:
            assert not any(isinstance(v, np.generic) for v in (c.witness or ()))

    def test_only_callables_not_declared_elementwise_run_per_element(self):
        # max on arrays raises, so F can only pass as per-element calls.
        F = MultiOperator(2, lambda x, y: max(x, y))
        space = DistanceSpace.reals(-10, 10)
        family, lset = coupled_preset(), LSet.of(2, 1)
        points = sampled(-10, 10, lset, 200, 5)
        with mock.patch.object(np, "frompyfunc", wraps=np.frompyfunc) as frompyfunc:
            got = _column_distances(F, family, ProductKind.SUP, points)
        per_element = [call.args[0] for call in frompyfunc.call_args_list]
        assert per_element == [F._func]
        loop_pairs = reference_sample_comparable_pairs(-10, 10, lset, 200, 5)
        want = list(reference_pair_distances(space, F, family, ProductKind.SUP, loop_pairs))
        assert [repr(v) for v in got[0].tolist()] == [repr(d) for d, _ in want]
        assert [repr(v) for v in got[1].tolist()] == [repr(d) for _, d in want]


class TestCompositeMK:
    def test_pass_with_grid_above_realized_distances(self):
        space, order = int_chain(2)
        F = MultiOperator.constant(2, 0)
        report = CONDITIONS["mk1"].check(
            Instance(space, order, F, coupled_preset(), LSet.of(2, 1)),
            MeirKeelerModulus.const(1.0), r_grid=[2.0],
        )
        assert report.verdict == "pass"

    def test_fail_without_bounds(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        order = OrderRelation.from_pairs([0, 1], [])
        F = MultiOperator.constant(2, 0)
        report = CONDITIONS["mk1"].check(
            Instance(space, order, F, coupled_preset(), LSet.of(2, 1)),
            MeirKeelerModulus.const(1.0),
        )
        assert report.verdict == "fail"
        assert report.failing_clause().name == "pair bounds"

    def test_antitone_variant_rejects_isotone_map(self):
        space, order = int_chain(3)
        # identity-style map is isotone, so the antitone clause must fail
        F = MultiOperator(2, lambda x, y: x)
        report = CONDITIONS["mk2"].check(
            Instance(space, order, F, coupled_preset(), LSet.of(2, 1, 2)),
            MeirKeelerModulus.const(1.0), r_grid=[10.0],
        )
        assert report.verdict == "fail"
        assert report.failing_clause().name == "image order"


class TestEmptyGrid:
    """An empty r grid is refused, not passed vacuously: the same instance
    fails the MK operator condition over every r > 0."""

    @pytest.fixture
    def inst(self):
        space, order = int_chain(2)
        F = MultiOperator(2, lambda x, y: 1 - x)
        return Instance(space, order, F, coupled_preset(), LSet.of(2, 1))

    def test_mk_operator(self, inst):
        delta = MeirKeelerModulus.linear(1.0)
        assert CONDITIONS["mk-op"].check(inst, delta, kind=ProductKind.SUP).verdict == "fail"
        with pytest.raises(ValueError, match="^r_grid must be nonempty$"):
            CONDITIONS["mk-op"].check(inst, delta, kind=ProductKind.SUP, r_grid=[])

    def test_mk(self, inst):
        delta = MeirKeelerModulus.linear(1.0)
        with pytest.raises(ValueError, match="^r_grid must be nonempty$"):
            CONDITIONS["mk2"].check(inst, delta, r_grid=[])

    @pytest.mark.parametrize("name", ["mk1", "mk2", "mk-op"])
    def test_refused_before_F_is_called(self, name):
        space, order = int_chain(2)
        calls = []
        F = MultiOperator(2, lambda x, y: calls.append((x, y)) or 0)
        inst = Instance(space, order, F, coupled_preset(), LSet.of(2, 1))
        with pytest.raises(ValueError, match="^r_grid must be nonempty$"):
            CONDITIONS[name].check(inst, MeirKeelerModulus.linear(1.0), [], kind=ProductKind.SUP)
        assert calls == []


# Labels of mixed types, some spelled like block headers or separators.
ORDER_LABELS = st.lists(
    st.one_of(
        st.integers(-3, 12),
        st.sampled_from(["f", "l", "F", "L", "<=", "a,b", "->"]),
        st.tuples(st.integers(0, 2), st.sampled_from("fl")),
    ),
    min_size=3,
    max_size=7,
    unique=True,
)


@st.composite
def ordered_spaces(draw):
    """A finite space and an order over its labels, reshuffled: a chain, a
    random poset, or a random poset given a bottom and a top."""
    labels = draw(ORDER_LABELS)
    n = len(labels)
    points = draw(st.permutations(labels))
    shape = draw(st.sampled_from(["chain", "poset", "bounded"]))
    rank = draw(st.permutations(points))
    pairs = [
        (rank[i], rank[j])
        for i, j in itertools.combinations(range(len(rank)), 2)
        if (j == i + 1 if shape == "chain" else draw(st.booleans()))
    ]
    if shape == "bounded" and len(rank) > 1:
        pairs += [(rank[0], p) for p in rank[1:]] + [(p, rank[-1]) for p in rank[:-1]]
        if len(rank) >= 6 and draw(st.booleans()):
            # a bowtie inside: two pairs with two minimal common bounds
            pairs += [(rank[i], rank[j]) for i in (1, 2) for j in (3, 4)]
    order = OrderRelation.from_pairs(points, pairs)
    dist = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 3.0])
    matrix = [[0.0 if i == j else draw(dist) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if matrix[i][j] + matrix[j][i] == 0:
            matrix[i][j] = 0.1
    return DistanceSpace.from_matrix(labels, matrix), order, points, pairs


def same_report(got, want):
    assert got.verdict == want.verdict
    assert [(c.name, c.ok, c.witness) for c in got.clauses] == [
        (c.name, c.ok, c.witness) for c in want.clauses
    ]
    assert got.counterexample == want.counterexample


class TestOrderClausesMatchReference:
    """The order clauses on the closed order matrix against the label loops."""

    @settings(max_examples=300, deadline=None)
    @given(
        ordered_spaces(),
        st.sampled_from([MeirKeelerModulus.linear(0.5), MeirKeelerModulus.const(1.0)]),
    )
    def test_clauses(self, instance, delta):
        space, order, points, pairs = instance
        closure = closure_reference(points, pairs)
        for labels in (points, space.points):
            assert order.matrix(labels).tolist() == [
                [(a, b) in closure for b in labels] for a in labels
            ]

        assert check_lattice(order) == reference_check_lattice(order)
        assert check_bounds_exist(order) == reference_check_bounds_exist(order)
        assert check_order_distance_compat(space, order) == reference_check_order_distance_compat(
            space, order
        )
        F = MultiOperator.constant(1, labels[0])
        family, lset = LambdaFamily.identity(1), LSet.of(1, 1)
        same_report(
            CONDITIONS["omega1"].check(Instance(space, order, F, family, lset)),
            reference_check_omega(space, order, F, family, lset, 1),
        )
        same_report(
            CONDITIONS["mk1"].check(Instance(space, order, F, family, lset), delta),
            reference_check_mk(space, order, F, family, lset, delta, 1),
        )


class TestEqualPairs:
    """The omega conditions walk distinct comparable pairs, their symmetric
    distances summed; mk and mk-op walk equal pairs too, their distances one
    way."""

    def test_only_mk_reads_the_equal_pair(self):
        space = DistanceSpace.from_matrix([0, 1], [[0, 1], [2, 0]])
        F = MultiOperator.constant(1, 1)
        inst = Instance(space, chain_order([0, 1]), F, LambdaFamily.identity(1), LSet.of(1, 1))

        def walk(symmetric):
            blocks = _pair_blocks(inst, ProductKind.SUP, False, symmetric)
            return [
                (x, y, d)
                for xs, ys, _, rho, _ in blocks
                for x, y, d in zip(xs.tolist(), ys.tolist(), rho.tolist())
            ]

        assert walk(symmetric=True) == [(0, 1, 3.0)]
        assert walk(symmetric=False) == [(0, 0, 0.0), (0, 1, 1.0), (1, 1, 0.0)]
        delta = MeirKeelerModulus.linear(0.5)
        for name in ("omega1", "omega4", "mk1", "mk2", "mk-op"):
            with mock.patch.object(conditions, "_pair_blocks", wraps=_pair_blocks) as blocks:
                CONDITIONS[name].check(inst, delta, kind=ProductKind.SUP)
            assert blocks.call_args.kwargs["symmetric"] is name.startswith("omega")
