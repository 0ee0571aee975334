import itertools
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    CarrierError,
    DistanceClass,
    DistanceSpace,
    ProductKind,
    UnsupportedInstanceError,
    ball_contains,
    classify_finite,
    converges_to,
    is_cauchy_prefix,
    product_space,
)
from helpers import (
    classify_reference,
    from_matrix_violation,
    random_metric,
    random_quasimetric,
)


# Entries for the validation test: negative, signed zeros and positive.
ENTRIES = st.sampled_from([-1.0, -0.0, 0.0, 0.0, 0.5, 1.0])


@pytest.fixture
def reals():
    return DistanceSpace.reals()


@pytest.fixture
def path3():
    # shortest-path metric on the path graph a - b - c
    return DistanceSpace.from_matrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestConstruction:
    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="negative"):
            DistanceSpace.from_matrix(["a", "b"], [[0, -1], [1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceSpace.from_matrix(["a", "b"], [[1, 1], [1, 0]])

    def test_rejects_indistinguishable_pair(self):
        # d(a,b) + d(b,a) = 0 for distinct points violates the identity axiom
        with pytest.raises(ValueError):
            DistanceSpace.from_matrix(["a", "b"], [[0, 0], [0, 0]])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_distance(self, value):
        with pytest.raises(ValueError, match="not finite"):
            DistanceSpace.from_matrix(["a", "b"], [[0, value], [1, 0]])

    def test_first_violation_in_row_major_order_is_reported(self):
        # d(b,b) is nonzero and d(c,b) negative, but row a comes first and
        # holds the indistinguishable pair (a,c).
        matrix = [[0, 1, 0], [2, 2, 1], [0, -1, 0]]
        with pytest.raises(ValueError) as err:
            DistanceSpace.from_matrix("abc", matrix)
        assert str(err.value) == "d(a,c) + reverse is 0 for distinct points"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_violation_message_matches_entrywise_loop(self, matrix):
        labels = "abcd"[: len(matrix)]
        want = from_matrix_violation(labels, matrix)
        if want is None:
            assert DistanceSpace.from_matrix(labels, matrix).matrix().tolist() == matrix
        else:
            with pytest.raises(ValueError) as err:
                DistanceSpace.from_matrix(labels, matrix)
            assert str(err.value) == want

    def test_zero_one_direction_is_allowed(self):
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 0], [1, 0]])
        assert space.dist("a", "b") == 0
        assert space.dist("b", "a") == 1


class TestBall:
    def test_interior_point(self, reals):
        assert ball_contains(reals, 0, 1, 0.5)

    def test_boundary_is_excluded(self, reals):
        assert not ball_contains(reals, 0, 1, 1.0)

    def test_table_lookup(self):
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 2], [2, 0]])
        assert ball_contains(space, "a", 3, "b")

    def test_requires_positive_radius(self, reals):
        with pytest.raises(ValueError):
            ball_contains(reals, 0, 0, 0.5)

    def test_point_outside_carrier(self, path3):
        with pytest.raises(CarrierError):
            ball_contains(path3, "a", 1, "zzz")


class TestClassify:
    def test_path_metric(self, path3):
        cls = classify_finite(path3)
        assert cls.metric and cls.symmetric and cls.quasimetric
        assert cls.s_distance == 1.0

    def test_asymmetric_quasimetric(self):
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 1], [0, 0]])
        cls = classify_finite(space)
        assert not cls.symmetric
        assert cls.quasimetric
        # oracle: exhaust all 8 triples for the directed triangle inequality
        d = space.dist
        for x, y, z in itertools.product("ab", repeat=3):
            assert d(x, z) <= d(x, y) + d(y, z)

    def test_h_distance_two_points(self):
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]])
        assert classify_finite(space).h_distance

    def test_h_fails_with_shared_zero_set(self):
        # d(a,b) = 0 puts b inside every ball around a
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 0], [1, 0]])
        assert not classify_finite(space).h_distance

    def test_triangle_violation_breaks_quasimetric(self):
        space = DistanceSpace.from_matrix(
            ["a", "b", "c"], [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
        )
        cls = classify_finite(space)
        assert cls.symmetric and not cls.quasimetric and not cls.metric

    def test_s_witness_for_squared_metric(self, path3):
        squared = DistanceSpace.from_matrix(
            ["a", "b", "c"], (path3.matrix() ** 2).tolist()
        )
        cls = classify_finite(squared)
        assert not cls.quasimetric  # 4 > 1 + 1
        assert cls.s_distance is not None
        assert 1.0 < cls.s_distance <= 2.0

    def test_continuous_carrier_rejected(self):
        with pytest.raises(UnsupportedInstanceError):
            classify_finite(DistanceSpace.reals())

    def test_label_permutation_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            space = random_quasimetric(rng, 4)
            perm = list(space.points)
            rng.shuffle(perm)
            idx = {p: i for i, p in enumerate(space.points)}
            M = space.matrix()
            shuffled = DistanceSpace.from_matrix(
                perm, [[M[idx[a], idx[b]] for b in perm] for a in perm]
            )
            assert classify_finite(space) == classify_finite(shuffled)

    def test_implication_chain_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(25):
            space = random_metric(rng, rng.randint(2, 5))
            cls = classify_finite(space)
            assert cls.metric
            assert cls.s_distance == 1.0
            assert cls.f_distance
            assert cls.n_distance

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            DistanceClass(
                symmetric=False,
                quasimetric=False,
                metric=True,
                n_distance=True,
                f_distance=True,
                s_distance=None,
                h_distance=True,
            )


# Off-diagonal distances: zeros (one direction only, so H fails and the
# quasimetric check can be blocked), tenths whose sums round, and arbitrary
# nonnegative reals.
DISTANCES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 7.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def finite_spaces(draw):
    """A table-backed space, a computed-distance space, or a sup or sum
    product of a small table-backed space."""
    shape = draw(st.sampled_from(["table", "computed", "product"]))
    n = draw(st.integers(1, 3 if shape == "product" else 6))
    M = [[0.0 if i == j else draw(DISTANCES) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if M[i][j] + M[j][i] == 0:
            M[i][j] = draw(DISTANCES.filter(bool))
    if shape == "computed":
        return DistanceSpace(lambda x, y: M[x][y], points=range(n))
    space = DistanceSpace.from_matrix(range(n), M)
    if shape == "product":
        space = product_space(space, 2, draw(st.sampled_from(list(ProductKind))))
    return space


class TestClassifyDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        finite_spaces(),
        st.one_of(
            st.none(),
            st.lists(
                st.one_of(st.sampled_from([0.1, 0.5, 1.0, 2.0]), st.floats(1e-3, 10.0)),
                max_size=4,
            ),
        ),
    )
    def test_matches_loop_reference(self, space, grid):
        want = classify_reference(space.matrix().tolist(), space.atol, grid)
        assert classify_finite(space, grid) == want

    def test_two_steps_within_tolerance_block_the_s_relaxation(self):
        # d(2,0) and d(0,1) are zero within atol = 1e-12 while d(2,1) = 0.2:
        # not an F-distance, so no finite s either (their sum 2e-12 used to
        # give s = 1e11, and DistanceClass refused the combination)
        M = [[0.0, 1e-12, 0.0], [0.1, 0.0, 0.1], [1e-12, 0.2, 0.0]]
        space = DistanceSpace(lambda x, y: M[x][y], points=range(3))
        cls = classify_finite(space)
        assert not cls.f_distance and cls.s_distance is None
        assert cls == classify_reference(M, space.atol)

    def test_subnormal_path_ratio_is_inf_without_warning(self):
        # d(a,c) / (d(a,b) + d(b,c)) = 1 / 1e-323 is above the float maximum
        tiny = 5e-324
        space = DistanceSpace.from_matrix("abc", [[0, tiny, 1], [tiny, 0, tiny], [1, tiny, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cls = classify_finite(space)
        assert cls.s_distance == float("inf")

    def test_product_spaces_compare_with_tolerance(self):
        base = DistanceSpace.from_matrix("ab", [[0, 0.1], [0.2, 0]])
        assert product_space(base, 2, ProductKind.SUM).atol == 1e-12
        assert product_space(base, 2, ProductKind.SUP).atol == 0.0

    def test_non_positive_grid_rejected(self, path3):
        with pytest.raises(ValueError, match="positive"):
            classify_finite(path3, [1.0, 0.0])


class TestSequences:
    def test_geometric_tail_is_cauchy(self, reals):
        seq = [2.0 ** -k for k in range(11)]
        assert is_cauchy_prefix(reals, seq, 1e-2, 4)

    def test_alternating_is_not_cauchy(self, reals):
        assert not is_cauchy_prefix(reals, [0, 1, 0, 1], 0.5, 4)

    def test_constant_sequence(self, path3):
        assert is_cauchy_prefix(path3, ["b"] * 5, 1e-9, 5)

    def test_tail_zero_rejected(self, reals):
        with pytest.raises(ValueError):
            is_cauchy_prefix(reals, [0, 0], 1.0, 0)

    def test_converges_geometric(self, reals):
        seq = [2.0 ** -k for k in range(15)]
        assert converges_to(reals, seq, 0.0, 1e-3, 3)

    def test_converges_orientation_matters(self):
        # d(a,b) = 0 but d(b,a) = 1: the defining orientation d(x, x_n) accepts
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 0], [1, 0]])
        assert converges_to(space, ["b", "b", "b"], "a", 0.5, 3)
        assert not converges_to(space, ["a", "a", "a"], "b", 0.5, 3)

    def test_far_constant_does_not_converge(self, reals):
        assert not converges_to(reals, [1, 1, 1], 0.0, 0.5, 3)

    def test_h_space_forbids_two_limits(self):
        # separation: with tolerance below half the separating radius no
        # prefix can converge to two distinct limits
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]])
        assert classify_finite(space).h_distance
        seq = ["a"] * 6
        tol = 0.25
        assert converges_to(space, seq, "a", tol, 4)
        assert not converges_to(space, seq, "b", tol, 4)
