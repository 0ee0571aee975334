import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multifix import (
    CapacityError,
    DistanceSpace,
    LSet,
    ProductKind,
    UnsupportedInstanceError,
    classify_finite,
    sum_distance,
)
from multifix.product import bind_distance, combine, materialization_cap
from helpers import (
    GENERATORS,
    checked_distance,
    order_instance,
    reference_product_matrix,
    reference_product_space,
)


@pytest.fixture
def reals():
    return DistanceSpace.reals()


@pytest.fixture
def two_point():
    return DistanceSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]])


def sup_distance(space, x, y):
    return checked_distance(space, ProductKind.SUP)(x, y)


class TestProductDistances:
    def test_sup(self, reals):
        assert sup_distance(reals, (0, 0), (1, 3)) == 3

    def test_sum(self, reals):
        assert sum_distance(reals, (0, 0), (1, 3)) == 4

    def test_identity_pair(self, two_point):
        x = ("a", "b")
        assert sup_distance(two_point, x, x) == 0
        assert sum_distance(two_point, x, x) == 0

    def test_singleton_arity(self, reals):
        assert sup_distance(reals, (2,), (5,)) == 3
        assert sum_distance(reals, (2,), (5,)) == 3

    def test_arity_mismatch(self, reals):
        with pytest.raises(ValueError, match="arity"):
            sup_distance(reals, (0,), (1, 2))

    def test_sup_keeps_the_first_of_equal_maxima(self):
        # as max does: 0.0 and -0.0 are equal, and the first one stays
        for first, second in [(0.0, -0.0), (-0.0, 0.0)]:
            got = combine(ProductKind.SUP, [np.array([first]), np.array([second])])
            assert np.signbit(got[0]) == np.signbit(max(first, second)) == np.signbit(first)

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=6,
        )
    )
    def test_sandwich_on_real_tuples(self, coords):
        reals = DistanceSpace.reals()
        m = len(coords)
        x = tuple(a for a, _ in coords)
        y = tuple(b for _, b in coords)
        lo = sup_distance(reals, x, y)
        hi = sum_distance(reals, x, y)
        assert lo <= hi <= m * lo


class TestProductSpace:
    """The m-fold product: its points, its kernel and, through the test
    reference, its table classified by ``classify_finite``."""

    def test_metric_product_reclassifies_metric(self, two_point):
        prod = reference_product_space(two_point, 2, ProductKind.SUP)
        assert len(prod.points) == 4
        assert classify_finite(prod).metric

    def test_quasimetric_sum_product(self):
        rng = random.Random(11)
        base = GENERATORS["quasimetric"](rng, 3)
        prod = reference_product_space(base, 2, ProductKind.SUM)
        cls = classify_finite(prod)
        assert cls.quasimetric

    def test_m1_product_matches_base(self, two_point):
        for kind in ProductKind:
            prod = reference_product_space(two_point, 1, kind)
            assert classify_finite(prod) == classify_finite(two_point)
            rho = bind_distance(two_point, kind)
            for x, y in itertools.product(two_point.points, repeat=2):
                assert prod.dist((x,), (y,)) == two_point.dist(x, y)
                assert rho((x,), (y,)) == two_point.dist(x, y)

    def test_product_above_cap_is_refused(self, two_point, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "16")
        with pytest.raises(CapacityError) as err:
            order_instance(two_point, None, LSet.of(5)).columns
        assert err.value.size == 32

    def test_capacity_error_names_size(self, two_point, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "16")
        with pytest.raises(CapacityError, match="size 32 exceeds materialization cap 16"):
            order_instance(two_point, None, LSet.of(5)).columns
        assert order_instance(two_point, None, LSet.of(4)).size == 16  # at the cap

    def test_a_cap_of_one_admits_one_point(self, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "1")
        assert materialization_cap() == 1
        one_point = DistanceSpace.from_matrix(["a"], [[0]])
        assert order_instance(one_point, None, LSet.of(3)).size == 1
        monkeypatch.setenv("MULTIFIX_CAP", "0")
        with pytest.raises(ValueError, match="positive integer, got '0'"):
            materialization_cap()

    def test_continuous_product_is_refused(self, reals):
        with pytest.raises(UnsupportedInstanceError, match="continuous carrier"):
            order_instance(reals, None, LSet.of(2)).columns

    def test_matrix_agrees_with_coordinatewise_eval(self):
        rng = random.Random(5)
        base = GENERATORS["metric"](rng, 3)
        sup_m = reference_product_matrix(base, 2, ProductKind.SUP)
        sum_m = reference_product_matrix(base, 2, ProductKind.SUM)
        rho = bind_distance(base, ProductKind.SUP)
        inst = order_instance(base, None, LSet.of(2))
        pts = [inst.point(i) for i in range(inst.size)]
        assert pts == list(itertools.product(base.points, repeat=2))
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert sup_m[i, j] == rho(x, y)
                assert sum_m[i, j] == sum_distance(base, x, y)


class TestUniformEquivalence:
    """``sup <= sum <= m * sup`` on every pair of the reference matrices."""

    def test_m1_equality(self, two_point):
        sup_m = reference_product_matrix(two_point, 1, ProductKind.SUP)
        sum_m = reference_product_matrix(two_point, 1, ProductKind.SUM)
        assert (sup_m == sum_m).all()
        assert (sup_m == two_point.matrix()).all()

    def test_exhaustive_three_point_metric(self):
        space = DistanceSpace.from_matrix(
            ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        sup_m = reference_product_matrix(space, 3, ProductKind.SUP)
        sum_m = reference_product_matrix(space, 3, ProductKind.SUM)
        assert sup_m.shape == sum_m.shape == (27, 27)
        assert ((sup_m <= sum_m) & (sum_m <= 3 * sup_m)).all()
        assert (sup_m > 0).sum() == 27 * 26
