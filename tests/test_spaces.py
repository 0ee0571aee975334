import itertools
import random
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    Box,
    DistanceClass,
    DistanceSpace,
    ProductKind,
    UnsupportedInstanceError,
    classify_finite,
)
from multifix import spaces
from multifix.product import product_atol
from multifix.problemfile import parse_problem
from helpers import (
    classify_reference,
    from_matrix_violation,
    min_plus_reference,
    random_metric,
    random_quasimetric,
    reference_product_space,
)


# Entries for the validation test: negative, signed zeros and positive.
ENTRIES = st.sampled_from([-1.0, -0.0, 0.0, 0.0, 0.5, 1.0])


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

    def test_a_sum_of_inf_and_minus_inf_is_no_warning(self):
        # The table's sum overflows both ways and reads NaN, which under the
        # suite's error::RuntimeWarning filter would raise.
        matrix = [[0, 1e308, 1e308], [1, 0, 2], [-1e308, -1e308, 0]]
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

    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            ([[0, 1], [1]], ValueError, "distance matrix must be 2x2"),
            ([[0, 1, 2], [1, 0]], ValueError, "distance matrix must be 2x2"),
            # float() takes every entry, row by row, before the shape check.
            ([[0, "x"], [1]], ValueError, "could not convert string to float: 'x'"),
            ([[0, None], [1, 0]], TypeError, "not 'NoneType'"),
            ([[0, [1]], [1, 0]], TypeError, "not 'list'"),
        ],
    )
    def test_entries_convert_before_the_shape_check(self, matrix, error, message):
        with pytest.raises(error) as err:
            DistanceSpace.from_matrix(["a", "b"], matrix)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "carrier",
        [{"points": [0, 1]}, {"box": Box(0, 1)}, {}, {"points": ["a"], "box": Box(0, 1)}],
        ids=["points", "box", "neither", "both"],
    )
    def test_no_space_is_built_from_a_distance_callable(self, carrier):
        # A finite space is its validated table (from_matrix refuses the
        # negative entry), and a box measures |x - y| (reals).
        with pytest.raises(TypeError, match="built by from_matrix or reals"):
            DistanceSpace(lambda x, y: -1.0, **carrier)

    @pytest.mark.parametrize("lo, hi", [(1, 0), (float("nan"), 1), (0, float("nan"))])
    def test_a_box_needs_ordered_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="lo <= hi"):
            Box(lo, hi)

    def test_a_one_point_box_is_allowed(self):
        box = Box(0.5, 0.5)
        assert box.contains(0.5) and not box.contains(0.25)

    def test_zero_one_direction_is_allowed(self):
        space = DistanceSpace.from_matrix(["a", "b"], [[0, 0], [1, 0]])
        assert space.dist("a", "b") == 0
        assert space.dist("b", "a") == 1
        assert type(space.dist("b", "a")) is float


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

    def test_empty_carrier_is_classified_vacuously(self):
        assert DistanceSpace.from_matrix([], []).matrix().shape == (0, 0)
        want = DistanceClass(
            symmetric=True,
            quasimetric=True,
            f_distance=True,
            s_distance=1.0,
            h_distance=True,
        )
        assert classify_finite(DistanceSpace.from_matrix([], [])) == want
        assert classify_reference([]) == want

    def test_continuous_carrier_rejected(self):
        with pytest.raises(UnsupportedInstanceError):
            classify_finite(DistanceSpace.reals())
        with pytest.raises(UnsupportedInstanceError):
            spaces.is_h_distance(DistanceSpace.reals())

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
        with pytest.raises(ValueError, match="an s-distance must also be an F-distance"):
            DistanceClass(
                symmetric=True,
                quasimetric=True,
                f_distance=False,
                s_distance=1.0,
                h_distance=True,
            )

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("quasimetric", [False, True])
    def test_metric_is_a_symmetric_quasimetric(self, symmetric, quasimetric):
        cls = DistanceClass(
            symmetric=symmetric,
            quasimetric=quasimetric,
            f_distance=True,
            s_distance=None,
            h_distance=True,
        )
        assert cls.metric == (symmetric and quasimetric)


# Off-diagonal distances: zeros (one direction only, so H fails and the
# quasimetric check can be blocked), tenths whose sums round, and arbitrary
# nonnegative reals; or only whole numbers, whose min-plus runs in int8.
DISTANCES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 7.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
WHOLE_DISTANCES = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0])


@st.composite
def finite_spaces(draw):
    """A table-backed space, or a sup or sum product of a small one."""
    shape = draw(st.sampled_from(["table", "product"]))
    n = draw(st.integers(1, 3 if shape == "product" else 10))
    values = draw(st.sampled_from([DISTANCES, WHOLE_DISTANCES]))
    M = [[0.0 if i == j else draw(values) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if M[i][j] + M[j][i] == 0:
            M[i][j] = draw(values.filter(bool))
    space = DistanceSpace.from_matrix(range(n), M)
    if shape == "product":
        space = reference_product_space(space, 2, draw(st.sampled_from(list(ProductKind))))
    return space


class TestClassifyDifferential:
    # One float64 row per block puts every stage past a block boundary, and
    # int8 min-plus blocks of 8 rows are crossed from 9 points on.
    @pytest.mark.parametrize("block", [spaces.MIN_PLUS_BLOCK, 1])
    @settings(max_examples=300, deadline=None)
    @given(finite_spaces())
    def test_matches_loop_reference(self, block, space):
        want = classify_reference(space.matrix().tolist())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "MIN_PLUS_BLOCK", block)
            assert classify_finite(space) == want

    def test_two_zero_steps_block_the_s_relaxation(self):
        # d(2,0) = d(0,1) = 0 while d(2,1) = 0.2: not an F-distance, and no
        # finite s relaxes a path of length 0
        M = [[0.0, 0.0, 0.1], [0.1, 0.0, 0.1], [0.0, 0.2, 0.0]]
        cls = classify_finite(DistanceSpace.from_matrix(range(3), M))
        assert not cls.f_distance and cls.s_distance is None
        assert cls == classify_reference(M)

    def test_tiny_positive_steps_are_compared_exactly(self):
        # d(2,0) = d(0,1) = 1e-12 are positive table entries, not zeros: the
        # F test passes and d(2,1) = 0.2 relaxes with s = 0.2 / 2e-12
        M = [[0.0, 1e-12, 0.0], [0.1, 0.0, 0.1], [1e-12, 0.2, 0.0]]
        cls = classify_finite(DistanceSpace.from_matrix(range(3), M))
        assert cls.f_distance and cls.s_distance == 0.2 / 2e-12
        assert cls == classify_reference(M)

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
        assert product_atol(base, ProductKind.SUM) == 1e-12
        assert product_atol(base, ProductKind.SUP) == 0.0
        for kind in ProductKind:
            assert product_atol(DistanceSpace.reals(0, 1), kind) == 1e-12


def min_plus_input(n, seed):
    """A random nonnegative n x n matrix with a zero diagonal, some zeros,
    tenths whose sums round, and one row of 1e308 whose sums overflow."""
    rng = np.random.default_rng(seed)
    D = rng.choice([0.0, 0.1, 0.2, 0.3, 1.0, 2.5], size=(n, n)) + rng.random((n, n)) * (
        rng.random((n, n)) < 0.5
    )
    D[n // 2] = 1e308
    np.fill_diagonal(D, 0.0)
    return D


class TestMinPlus:
    # 1 CPU takes the serial path; 4 CPUs give more workers than 130 rows
    # have blocks, so the block count caps the worker count.
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_matches_serial_loop(self, n, cpus, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started on one CPU")

        monkeypatch.setattr(spaces, "_usable_cpus", lambda: cpus)
        if cpus == 1:
            monkeypatch.setattr(spaces.threading, "Thread", no_thread)
        D = min_plus_input(n, seed=n)
        assert np.array_equal(spaces._min_plus(D), min_plus_reference(D))

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Six workers, one per block, switching threads every microsecond: a
        # block written by two workers or left unwritten would show.
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: 6)
        D = min_plus_input(6 * spaces.MIN_PLUS_BLOCK, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            T = spaces._min_plus(D)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(T, min_plus_reference(D))

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(spaces.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(spaces.os, "cpu_count", lambda: 3)
        assert spaces._usable_cpus() == 3
        monkeypatch.setattr(spaces.os, "cpu_count", lambda: None)
        assert spaces._usable_cpus() == 1

    @pytest.mark.parametrize("failing_start", [0, 64])
    def test_block_error_reaches_the_caller(self, failing_start, monkeypatch):
        # Two workers over 130 rows: the caller runs the blocks at 0 and 128,
        # the second thread the block at 64.
        blocks = spaces._min_plus_blocks
        started = []
        hooked = []

        class RecordedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def flaky(D, T, starts):
            if failing_start in starts:
                raise RuntimeError(f"block {failing_start}")
            blocks(D, T, starts)

        monkeypatch.setattr(spaces, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(spaces, "_min_plus_blocks", flaky)
        monkeypatch.setattr(spaces.threading, "Thread", RecordedThread)
        monkeypatch.setattr(spaces.threading, "excepthook", hooked.append)
        with pytest.raises(RuntimeError, match=f"block {failing_start}"):
            spaces._min_plus(min_plus_input(130, seed=2))
        assert len(started) == 1 and not started[0].is_alive()
        assert hooked == []

    def test_classify_matches_loop_reference_beyond_one_block(self, monkeypatch):
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: 2)
        M = min_plus_input(70, seed=5)
        M[(M == 0) & (M.T == 0) & ~np.eye(70, dtype=bool)] = 0.5
        space = DistanceSpace.from_matrix(range(70), M.tolist())
        assert classify_finite(space) == classify_reference(M.tolist())

    def test_sums_above_the_float_maximum_are_inf_without_warning(self, monkeypatch):
        # Under the suite's error::RuntimeWarning filter an overflow raises,
        # in from_matrix's checks and in every min-plus worker.
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: 2, raising=False)
        n = 130
        M = np.full((n, n), 1e308)
        np.fill_diagonal(M, 0.0)
        cls = classify_finite(DistanceSpace.from_matrix(range(n), M.tolist()))
        assert cls == DistanceClass(
            symmetric=True,
            quasimetric=True,
            f_distance=True,
            s_distance=1.0,
            h_distance=True,
        )



# The exact integer dtypes, narrowest first, then the float path.
LADDER = [np.int8, np.int16, np.int32, np.float64]


def integer_table(n, top, seed):
    """An n x n table of integers up to ``top``, as floats, that from_matrix
    accepts: a zero diagonal, some one-way zeros, and ``top`` at d(0, 1)."""
    rng = np.random.default_rng(seed)
    D = rng.integers(1, top, size=(n, n), endpoint=True).astype(float)
    D[np.triu(rng.random((n, n)) < 0.2, k=1)] = 0.0
    np.fill_diagonal(D, 0.0)
    D[0, 1] = top
    return D


def ladder_table(n, dt, seed):
    """An ``integer_table`` whose min-plus runs in ``dt``: its largest entry
    is the dtype's bound, or, for float64, it holds a fraction."""
    if dt is np.float64:
        D = integer_table(n, 4, seed)
        D[0, 1] = 4.5
        return D
    return integer_table(n, np.iinfo(dt).max // 2, seed)


@pytest.fixture
def block_dtypes(monkeypatch):
    """The dtype of D in each call of ``spaces._min_plus_blocks``."""
    seen = []
    blocks = spaces._min_plus_blocks

    def recording(D, T, starts):
        seen.append(D.dtype)
        blocks(D, T, starts)

    monkeypatch.setattr(spaces, "_min_plus_blocks", recording)
    return seen


class TestExactMinPlus:
    # The bound is iinfo(dt).max // 2, so every sum of two entries fits; one
    # more falls through to the next dtype, and past int32 to float64.
    @pytest.mark.parametrize("over", [0, 1])
    @pytest.mark.parametrize("dt", LADDER[:3])
    def test_largest_entry_picks_the_narrowest_exact_dtype(self, dt, over, block_dtypes):
        top = np.iinfo(dt).max // 2 + over
        D = integer_table(7, top, seed=top)
        T = spaces._min_plus(D)
        assert block_dtypes == [T.dtype] == [LADDER[LADDER.index(dt) + over]]
        assert np.array_equal(T, min_plus_reference(D))
        space = DistanceSpace.from_matrix(range(7), D)
        assert classify_finite(space) == classify_reference(D.tolist())

    @pytest.mark.parametrize("value", [0.5, 1e-300, np.nan, np.inf, -1.0])
    def test_other_tables_take_the_float_path(self, value, block_dtypes):
        D = integer_table(5, 4, seed=1)
        D[1, 2] = value
        T = spaces._min_plus(D)
        assert block_dtypes == [np.float64]
        assert np.array_equal(T, min_plus_reference(D), equal_nan=True)

    def test_integer_tables_reach_the_narrow_loop(self, block_dtypes):
        # The benchmark's tables are integer-valued: a table read from a file
        # must keep reaching the int8 loop, not fall back to float64.
        pf = parse_problem("points: a b c\ndist:\n0 1 2\n1 0 1\n2 1 0\n")
        assert classify_finite(pf.space).metric
        assert block_dtypes == [np.int8]

    # Block rows are MIN_PLUS_BLOCK float64 rows' bytes: 512 int8 rows, 256
    # int16, 128 int32 and 64 float64.  1 CPU takes the serial path; on 2 a
    # second block starts one thread.
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("dt", LADDER)
    def test_matches_serial_loop_around_each_block_boundary(
        self, dt, side, cpus, block_dtypes, monkeypatch
    ):
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: cpus)
        rows = spaces.MIN_PLUS_BLOCK * 8 // np.dtype(dt).itemsize
        n = rows + side
        D = ladder_table(n, dt, seed=n)
        assert np.array_equal(spaces._min_plus(D), min_plus_reference(D))
        assert block_dtypes == [dt] * min(cpus, -(-n // rows))

    # The same boundaries with MIN_PLUS_BLOCK = 4 float64 rows, small enough
    # for the loop reference of the whole classifier.
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("dt", LADDER)
    def test_classify_matches_loop_reference_around_each_block_boundary(
        self, dt, cpus, block_dtypes, monkeypatch
    ):
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(spaces, "MIN_PLUS_BLOCK", 4)
        rows = 4 * 8 // np.dtype(dt).itemsize
        for n in (rows - 1, rows, rows + 1):
            D = ladder_table(n, dt, seed=n)
            space = DistanceSpace.from_matrix(range(n), D)
            assert classify_finite(space) == classify_reference(D.tolist())
            assert np.array_equal(spaces._min_plus(D), min_plus_reference(D))
        assert set(block_dtypes) == {np.dtype(dt)}

    def test_int16_workers_under_fast_switching(self, block_dtypes, monkeypatch):
        # Six workers on an int16 table, one 64-row block each with
        # MIN_PLUS_BLOCK = 16 float64 rows.
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: 6)
        monkeypatch.setattr(spaces, "MIN_PLUS_BLOCK", 16)
        D = ladder_table(6 * 64, np.int16, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            T = spaces._min_plus(D)
        finally:
            sys.setswitchinterval(interval)
        assert block_dtypes == [np.int16] * 6
        assert np.array_equal(T, min_plus_reference(D))


class TestClassifyMemory:
    # Beyond the table, classify holds T in its min-plus dtype (an eighth of
    # the table in int8, all of it in float64), three one-byte masks (three
    # eighths) and one block per float temporary or min-plus worker.  With
    # one-way zeros the reach loop runs and s is blocked; without, every
    # ratio is taken.
    @pytest.mark.parametrize("zeros", [True, False])
    @pytest.mark.parametrize("dt, bound", [(np.int8, 1.5), (np.float64, 2.5)])
    def test_traced_peak_is_bounded_by_the_table(
        self, dt, bound, zeros, block_dtypes, monkeypatch
    ):
        monkeypatch.setattr(spaces, "_usable_cpus", lambda: 2)
        D = ladder_table(512, dt, seed=11)
        if not zeros:
            D[D == 0] = 1.0
            np.fill_diagonal(D, 0.0)
        space = DistanceSpace.from_matrix(range(512), D)
        table = space.matrix().nbytes
        tracemalloc.start()
        try:
            classify_finite(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(block_dtypes) == {np.dtype(dt)}
        assert peak < bound * table
