import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import LSet, OrderRelation, chain_order
from helpers import closure_reference, compare_L, order_instance, unit_space


class TestOrderRelation:
    def test_closure_fills_transitive_pairs(self):
        order = OrderRelation.from_pairs([0, 1, 2], [(0, 1), (1, 2)])
        O = order.matrix([0, 1, 2])
        assert O[0, 2]
        assert O[1, 1]
        assert not O[2, 0]

    def test_antisymmetry_violation_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            OrderRelation.from_pairs([0, 1], [(0, 1), (1, 0)])

    def test_antisymmetry_witness_is_first_pair_in_carrier_order(self):
        # every pair of the 3-cycle c -> b -> a -> c is symmetric once closed
        with pytest.raises(ValueError, match="'a' ~ 'b'"):
            OrderRelation.from_pairs("abc", [("c", "b"), ("b", "a"), ("a", "c")])
        with pytest.raises(ValueError, match="'b' ~ 'd'"):
            OrderRelation.from_pairs("abcd", [("a", "c"), ("d", "b"), ("b", "d")])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
            )
        )
    )
    def test_closure_matches_fixpoint_reference(self, case):
        n, pairs = case
        want = closure_reference(range(n), pairs)
        if any(a != b and (b, a) in want for a, b in want):
            with pytest.raises(ValueError, match="antisymmetric"):
                OrderRelation.from_pairs(range(n), pairs)
        else:
            order = OrderRelation.from_pairs(range(n), pairs)
            assert order.matrix(range(n)).tolist() == [
                [(a, b) in want for b in range(n)] for a in range(n)
            ]

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            OrderRelation.from_pairs([0, 1], [(0, 5)])

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="order labels must be distinct"):
            OrderRelation.from_pairs(["a", "a", "b"], [("a", "b")])

    def test_matrix_of_a_label_outside_the_order_is_refused(self):
        order = chain_order([0, 1, 2])
        assert order.matrix([2, 0]).tolist() == [[True, False], [True, True]]
        with pytest.raises(ValueError, match="label 3 is not in the order"):
            order.matrix([0, 3])


class TestLSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LSet.of(2, 3)

    def test_complement(self):
        assert LSet.of(3, 1).complement() == LSet.of(3, 2, 3)
        assert LSet.of(2).complement() == LSet.of(2, 1, 2)


class TestCompareL:
    """``<=_L``: the per-point reference on label tuples, and the kernel's
    ``leq_L`` on product indices."""

    def test_mixed_direction(self):
        order = chain_order([1, 2, 3, 5])
        assert compare_L(order, LSet.of(2, 1), (1, 5), (2, 3))
        assert not compare_L(order, LSet.of(2, 1, 2), (1, 5), (2, 3))

    def test_reflexive(self):
        order = chain_order([0, 1, 2])
        for lset in (LSet.of(2), LSet.of(2, 1), LSet.of(2, 1, 2)):
            inst = order_instance(unit_space([0, 1, 2]), order, lset)
            points = np.arange(inst.size)
            assert inst.leq_L(points, points).all()

    def test_arity_check(self):
        with pytest.raises(ValueError):
            compare_L(chain_order([1, 2, 3]), LSet.of(2, 1), (1, 2, 3), (1, 2, 3))

    def test_duality_and_reference_exhaustive(self):
        # x <=_L y iff y <=_M x with M the complement, and leq_L agrees with
        # the reference on every pair.
        diamond = OrderRelation.from_pairs(
            "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        chain = chain_order([0, 1, 2])
        for order, carrier in ((diamond, "abcd"), (chain, [0, 1, 2]), (chain, [2, 0, 1])):
            for m in (1, 2, 3):
                space = unit_space(carrier)
                for members in itertools.chain.from_iterable(
                    itertools.combinations(range(1, m + 1), r) for r in range(m + 1)
                ):
                    lset = LSet(m, frozenset(members))
                    inst = order_instance(space, order, lset)
                    dual = order_instance(space, order, lset.complement())
                    xs, ys = np.arange(inst.size)[:, None], np.arange(inst.size)[None, :]
                    points = [inst.point(i) for i in range(inst.size)]
                    got = inst.leq_L(xs, ys)
                    assert np.array_equal(got, dual.leq_L(ys, xs))
                    assert got.tolist() == [
                        [compare_L(order, lset, x, y) for y in points] for x in points
                    ]
