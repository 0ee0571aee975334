import itertools
import random

import pytest
from hypothesis import given, strategies as st

from multifix import (
    CapacityError,
    DistanceSpace,
    ProductKind,
    UnsupportedInstanceError,
    check_uniform_equivalence,
    classify_finite,
    product_space,
    sum_distance,
    sup_distance,
)
from multifix.product import product_matrices, product_points
from helpers import GENERATORS


@pytest.fixture
def reals():
    return DistanceSpace.reals()


@pytest.fixture
def two_point():
    return DistanceSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]])


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
    def test_metric_product_reclassifies_metric(self, two_point):
        prod = product_space(two_point, 2, ProductKind.SUP)
        assert len(prod.points) == 4
        assert classify_finite(prod).metric

    def test_quasimetric_sum_product(self):
        rng = random.Random(11)
        base = GENERATORS["quasimetric"](rng, 3)
        prod = product_space(base, 2, ProductKind.SUM)
        cls = classify_finite(prod)
        assert cls.quasimetric

    def test_m1_product_matches_base(self, two_point):
        for kind in ProductKind:
            prod = product_space(two_point, 1, kind)
            assert classify_finite(prod) == classify_finite(two_point)
            for x, y in itertools.product(two_point.points, repeat=2):
                assert prod.dist((x,), (y,)) == two_point.dist(x, y)

    def test_capacity_error_names_size(self, two_point, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "16")
        with pytest.raises(CapacityError) as err:
            product_points(two_point, 5)
        assert err.value.size == 32

    def test_product_above_cap_is_refused(self, two_point, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "16")
        with pytest.raises(CapacityError) as err:
            product_space(two_point, 5, ProductKind.SUP)
        assert err.value.size == 32

    def test_continuous_product_is_refused(self, reals):
        with pytest.raises(UnsupportedInstanceError, match="continuous carrier"):
            product_space(reals, 2, ProductKind.SUP)

    def test_matrix_agrees_with_coordinatewise_eval(self):
        rng = random.Random(5)
        base = GENERATORS["metric"](rng, 3)
        sup_m, sum_m = product_matrices(base, 2)
        pts = product_points(base, 2)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert sup_m[i, j] == sup_distance(base, x, y)
                assert sum_m[i, j] == sum_distance(base, x, y)


class TestUniformEquivalence:
    def test_m1_equality(self, two_point):
        report = check_uniform_equivalence(two_point, 1)
        assert report.passed

    def test_exhaustive_three_point_metric(self):
        space = DistanceSpace.from_matrix(
            ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        report = check_uniform_equivalence(space, 3)
        assert report.passed
        assert report.pairs_checked == 27 * 27