"""Differential tests: the integer kernel against the per-pair reference loops
in helpers.py, on small random posets, index families, L sets and operators,
and its comparable pairs against the full ``N x N`` mask; and the memory the
exhaustive checks hold."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    CapacityError,
    DistanceSpace,
    EvaluationError,
    Instance,
    LambdaFamily,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    ProductKind,
    UnsupportedInstanceError,
    chain_order,
    coupled_preset,
    enumerate_fixed_points,
    find_monotone_start,
    tripled_preset,
    verify_uniqueness,
)
from multifix import kernel
from multifix.conditions import CONDITIONS
from helpers import (
    checked_distance,
    int_chain,
    order_instance,
    reference_check_mk,
    reference_check_mk_operator,
    reference_check_omega,
    reference_enumerate,
    reference_monotone_start,
    reference_product_matrix,
    reference_product_space,
    unit_space,
)

# Labels that collide with block headers, separators and each other's text.
LABELS = st.lists(
    st.one_of(st.integers(-3, 12), st.text("aflL<=,-> 0", min_size=1, max_size=3)),
    min_size=2,
    max_size=4,
    unique=True,
)
# Off-diagonal distances; tenths make m-fold sums round.
DISTANCES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 3.0])


@st.composite
def instances(draw):
    labels = draw(LABELS)
    n = len(labels)
    # A shuffled chain (two times in three) or a random DAG over a shuffled
    # labelling.
    perm = draw(st.permutations(labels))
    chain = draw(st.integers(0, 2)) > 0
    pairs = [
        (perm[i], perm[j])
        for i, j in itertools.combinations(range(n), 2)
        if (chain and j == i + 1) or (not chain and draw(st.booleans()))
    ]
    order = OrderRelation.from_pairs(labels, pairs)

    if chain and draw(st.booleans()):
        # Rank distances, asymmetric up and down the chain: compatible with
        # the order, so the omega checks reach their pair loops.
        up, down = draw(DISTANCES.filter(bool)), draw(DISTANCES.filter(bool))
        rank = {label: i for i, label in enumerate(perm)}
        matrix = [
            [(up if rank[a] < rank[b] else down) * abs(rank[a] - rank[b]) for b in labels]
            for a in labels
        ]
    else:
        matrix = [[0.0 if i == j else draw(DISTANCES) for j in range(n)] for i in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if matrix[i][j] + matrix[j][i] == 0:
                matrix[i][j] = 0.1
    space = DistanceSpace.from_matrix(labels, matrix)

    m = draw(st.integers(1, 3))
    rows = tuple(
        tuple(draw(st.integers(1, m)) for _ in range(m)) for _ in range(m)
    )
    family = LambdaFamily(m, rows)
    lset = LSet(m, frozenset(draw(st.sets(st.integers(1, m)))))

    shape = draw(st.sampled_from(["table", "formula", "constant"]))
    if shape == "table":
        keys = list(itertools.product(labels, repeat=m))
        values = draw(st.lists(st.sampled_from(labels), min_size=len(keys), max_size=len(keys)))
        F = MultiOperator.from_table(m, dict(zip(keys, values)), labels)
    elif shape == "formula":
        index = {label: i for i, label in enumerate(labels)}
        F = MultiOperator(m, lambda *args: labels[min(index[a] for a in args)])
    else:
        F = MultiOperator.constant(m, draw(st.sampled_from(labels)))

    delta = draw(
        st.sampled_from(
            [MeirKeelerModulus.linear(0.5), MeirKeelerModulus.linear(2.0),
             MeirKeelerModulus.const(0.15), MeirKeelerModulus.const(1.0)]
        )
    )
    r_grid = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=3),
        )
    )
    block = draw(st.sampled_from([1, 7, kernel.PAIR_BLOCK]))
    return space, order, F, family, lset, delta, r_grid, block


def same(got, want):
    assert got.verdict == want.verdict
    assert [(c.name, c.ok, c.witness) for c in got.clauses] == [
        (c.name, c.ok, c.witness) for c in want.clauses
    ]
    assert got.counterexample == want.counterexample
    assert got.samples == want.samples
    assert got.grid_bound == want.grid_bound
    # Witness r values stay Python numbers, so CLI output shows no numpy repr.
    for c in got.clauses:
        assert not any(isinstance(v, np.generic) for v in (c.witness or ()))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_kernel_matches_reference(instance):
    space, order, F, family, lset, delta, r_grid, block = instance
    # One instance serves every check, as in verify.
    inst = Instance(space, order, F, family, lset)
    with mock.patch.object(kernel, "PAIR_BLOCK", block):
        for variant in (1, 2, 3, 4):
            same(
                CONDITIONS[f"omega{variant}"].check(inst),
                reference_check_omega(space, order, F, family, lset, variant),
            )
        for variant in (1, 2):
            same(
                CONDITIONS[f"mk{variant}"].check(inst, delta, r_grid),
                reference_check_mk(space, order, F, family, lset, delta, variant, r_grid),
            )
        for kind in ProductKind:
            same(
                CONDITIONS["mk-op"].check(inst, delta, kind=kind, r_grid=r_grid),
                reference_check_mk_operator(
                    space, order, F, family, lset, delta, kind, r_grid=r_grid
                ),
            )
        assert enumerate_fixed_points(inst) == reference_enumerate(space, F, family)


def test_product_distances_round_like_the_scalar_forms():
    space = DistanceSpace.from_matrix("abc", [[0, 0.1, 0.2], [0.3, 0, 0.7], [0.2, 0.1, 0]])
    inst = order_instance(space, None, LSet.of(3))
    xs, ys = (a.ravel() for a in np.indices((inst.size, inst.size)))
    points = [inst.point(i) for i in range(inst.size)]
    for kind in ProductKind:
        scalar = checked_distance(space, kind)
        want = [scalar(points[x], points[y]) for x, y in zip(xs, ys)]
        assert inst.distance(kind, xs, ys).tolist() == want
        assert reference_product_matrix(space, 3, kind).ravel().tolist() == want
        dist = reference_product_space(space, 3, kind).dist
        assert [dist(points[x], points[y]) for x, y in zip(xs, ys)] == want


def test_canonical_order_witness_across_blocks():
    # The first comparable pair passes; the first failing pair sits in a
    # later block when each block holds one row.
    space, order = int_chain(3)
    F = MultiOperator(2, lambda x, y: min(x, 1))
    want = reference_check_omega(space, order, F, coupled_preset(), LSet.of(2, 1), 1)
    assert want.counterexample not in (None, ((0, 0), (0, 1)))
    with mock.patch.object(kernel, "PAIR_BLOCK", 1):
        got = CONDITIONS["omega1"].check(Instance(space, order, F, coupled_preset(), LSet.of(2, 1)))
    assert got.counterexample == want.counterexample


# Hasse diagrams over 0..4: M3 (three atoms between 0 and 4) and N5 (the
# pentagon 0 < 1 < 2 < 4 beside 0 < 3 < 4).
M3 = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
N5 = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]


@st.composite
def posets(draw):
    shape = draw(st.sampled_from(["chain", "antichain", "M3", "N5", "sparse"]))
    if shape in ("M3", "N5"):
        n, edges = 5, M3 if shape == "M3" else N5
    else:
        n = draw(st.integers(1, 5))
        if shape == "chain":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif shape == "antichain":
            edges = []
        else:
            edges = [
                (i, j)
                for i, j in itertools.combinations(range(n), 2)
                if draw(st.integers(0, 3)) == 0
            ]
    # Relabel, so that the order matrix is not upper triangular.
    perm = draw(st.permutations(range(n)))
    return OrderRelation.from_pairs(range(n), [(perm[i], perm[j]) for i, j in edges])


def check_pairs_against_mask(order, lset, include_equal, block):
    """The concatenated blocks are the nonzero entries of the full ``N x N``
    ``<=_L`` mask, and each block holds at most ``block`` pairs or one row."""
    n, m = len(order.points), lset.m
    inst = order_instance(unit_space(order.points), order, lset)
    orders = lset.orient(order.matrix(order.points))
    coords = np.array(list(itertools.product(range(n), repeat=m)))
    mask = np.logical_and.reduce(
        [Oi[coords[:, i, None], coords[None, :, i]] for i, Oi in enumerate(orders)]
    )
    if not include_equal:
        np.fill_diagonal(mask, False)
    with mock.patch.object(kernel, "PAIR_BLOCK", block):
        blocks = list(inst.comparable_pairs(include_equal))
    xs = np.concatenate([b[0] for b in blocks] or [np.zeros(0, int)])
    ys = np.concatenate([b[1] for b in blocks] or [np.zeros(0, int)])
    want_xs, want_ys = np.nonzero(mask)
    assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
    assert len(xs) == int(orders[0].sum()) ** m - (0 if include_equal else inst.size)
    for bx, _ in blocks:
        assert len(bx) and (len(bx) <= block or bx[0] == bx[-1])
    return blocks


@st.composite
def lsets(draw):
    m = draw(st.integers(1, 3))
    return LSet(m, frozenset(draw(st.sets(st.integers(1, m)))))


@settings(max_examples=300, deadline=None)
@given(posets(), lsets(), st.booleans(), st.sampled_from([1, 7, kernel.PAIR_BLOCK]))
def test_comparable_pairs_match_the_full_mask(order, lset, include_equal, block):
    check_pairs_against_mask(order, lset, include_equal, block)


@st.composite
def monotone_start_instances(draw):
    """A poset over the whole carrier, with a random family, L set and
    operator: a table, a projection (every point qualifies) or a constant."""
    order = draw(posets())
    labels = list(order.points)
    space = unit_space(labels)
    lset = draw(lsets())
    m = lset.m
    family = LambdaFamily(
        m, tuple(tuple(draw(st.integers(1, m)) for _ in range(m)) for _ in range(m))
    )
    shape = draw(st.sampled_from(["table", "table", "projection", "constant"]))
    if shape == "table":
        keys = list(itertools.product(labels, repeat=m))
        values = draw(st.lists(st.sampled_from(labels), min_size=len(keys), max_size=len(keys)))
        F = MultiOperator.from_table(m, dict(zip(keys, values)), labels)
    elif shape == "projection":
        F = MultiOperator(m, lambda *args: args[0])
    else:
        F = MultiOperator.constant(m, draw(st.sampled_from(labels)))
    return space, order, F, family, lset


@settings(max_examples=300, deadline=None)
@given(monotone_start_instances())
def test_monotone_start_matches_reference(instance):
    assert find_monotone_start(Instance(*instance)) == reference_monotone_start(*instance)


@pytest.mark.parametrize("include_equal", [True, False])
def test_row_with_more_pairs_than_a_block_is_one_block(include_equal):
    # The bottom of a 3-chain squared, forward in both coordinates, is below
    # all 9 points.
    order = chain_order(range(3))
    blocks = check_pairs_against_mask(order, LSet.of(2, 1, 2), include_equal, 7)
    assert blocks[0][0].tolist() == [0] * (9 if include_equal else 8)


class TestBoundedMemory:
    """The exhaustive pair checks hold a block of pairs, not a candidate mask
    as wide as the product, in memory."""

    @staticmethod
    def traced_peaks(n: int) -> list[int]:
        # chain-verify's instance: d(i,j) = |i^2 - j^2| on an n-chain, the
        # tripled family with L = {1,2,3} and an isotone contraction.
        labels = list(range(n))
        matrix = [[abs(i * i - j * j) for j in labels] for i in labels]
        space = DistanceSpace.from_matrix(labels, matrix)
        order = chain_order(labels)
        F = MultiOperator(3, lambda x, y, z: max(min(x, z) - 1, 0))
        lset = LSet.of(3, 1, 2, 3)
        checks = [
            lambda: CONDITIONS["omega1"].check(Instance(space, order, F, tripled_preset(), lset)),
            lambda: CONDITIONS["mk-op"].check(
                Instance(space, order, F, tripled_preset(), lset), MeirKeelerModulus.const(0.5),
                kind=ProductKind.SUP,
            ),
        ]
        peaks = []
        for check in checks:
            check()  # first-call caches
            tracemalloc.start()
            try:
                assert check().verdict == "pass"
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_is_small_and_barely_grows_with_the_product(self):
        small, large = self.traced_peaks(9), self.traced_peaks(12)
        assert max(small + large) < 4 << 20
        assert all(b - a < 1 << 20 for a, b in zip(small, large))


class TestBaseClausesComeFirst:
    """A base clause that fails ends the check before the instance builds its
    index columns or calls F, so it is reported, not a capacity or
    evaluation error; verify's oracle builds the columns all the same.  The
    orders read the columns first, so a box or an oversized product is
    refused before any order matrix is built."""

    @staticmethod
    def antichain(F) -> Instance:
        # 4 points, so N = 16: no pair has a bound, and no join or meet.
        labels = list(range(4))
        matrix = [[float(i != j) for j in labels] for i in labels]
        space = DistanceSpace.from_matrix(labels, matrix)
        order = OrderRelation.from_pairs(labels, [])
        return Instance(space, order, F, coupled_preset(), LSet.of(2, 1))

    @staticmethod
    def failing_clauses(inst) -> list:
        delta = MeirKeelerModulus.const(1.0)
        reports = [CONDITIONS[f"omega{variant}"].check(inst) for variant in (1, 2, 3, 4)]
        reports += [CONDITIONS[f"mk{variant}"].check(inst, delta) for variant in (1, 2)]
        return [(r.verdict, r.failing_clause().name) for r in reports]

    WANT = [("fail", "lattice")] * 4 + [("fail", "pair bounds")] * 2

    def test_under_a_cap_below_the_product(self, monkeypatch):
        monkeypatch.setenv("MULTIFIX_CAP", "3")
        inst = self.antichain(MultiOperator.constant(2, 0))
        assert self.failing_clauses(inst) == self.WANT
        with pytest.raises(CapacityError, match="size 16 exceeds materialization cap 3"):
            verify_uniqueness(inst, condition="omega1")

    def test_with_F_valued_outside_the_carrier(self):
        inst = self.antichain(MultiOperator.constant(2, 7))
        assert self.failing_clauses(inst) == self.WANT

    def test_orders_on_a_box(self):
        inst = Instance(
            DistanceSpace.reals(), None, MultiOperator.constant(2, 0.0),
            coupled_preset(), LSet.of(2, 1),
        )
        with pytest.raises(UnsupportedInstanceError, match="continuous carrier"):
            inst.orders


class TestOrderOnItsCarrier:
    """A finite instance's order is a partial order on exactly its carrier's
    labels, and a box has no order object; any other order is refused when
    the instance is built, naming the first offending label."""

    F = MultiOperator.constant(2, 0)

    def build(self, space, order) -> Instance:
        return Instance(space, order, self.F, coupled_preset(), LSet.of(2, 1))

    def test_a_carrier_label_missing_from_the_order(self):
        space = unit_space([0, 1, 2, 3])
        with pytest.raises(ValueError, match="carrier label 2 is not in the order"):
            self.build(space, chain_order([3, 0, 1]))

    def test_an_order_label_the_carrier_lacks(self):
        space = unit_space(["a", "b"])
        with pytest.raises(ValueError, match="order label 'p' is not in the carrier"):
            self.build(space, chain_order(["b", "p", "a", "q"]))

    def test_any_order_on_a_box(self):
        with pytest.raises(ValueError, match="a box is ordered by <= and takes no order"):
            self.build(DistanceSpace.reals(), chain_order([0.0, 1.0]))

    READERS = {
        **{
            name: lambda inst, c=c: c.check(inst, MeirKeelerModulus.const(1.0) if c.mk else None)
            for name, c in CONDITIONS.items()
        },
        "verify mk1": lambda inst: verify_uniqueness(inst, "mk1", MeirKeelerModulus.const(1.0)),
        "find_monotone_start": find_monotone_start,
        "orders": lambda inst: inst.orders,
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_a_finite_carrier_without_an_order_is_refused_before_F_runs(self, reader):
        # The oracle alone runs without an order; every order reader names
        # the missing order rather than a box's refusal or a None attribute.
        calls = []

        def constant(*args):
            calls.append(args)
            return 1

        F = MultiOperator(2, constant)
        space, _ = int_chain(3)
        inst = Instance(space, None, F, coupled_preset(), LSet.of(2, 1))
        with pytest.raises(ValueError, match="the instance has no order"):
            self.READERS[reader](inst)
        assert calls == []
        assert enumerate_fixed_points(inst) == [(1, 1)]


def test_callable_value_outside_carrier_names_argument():
    space, order = int_chain(2)
    F = MultiOperator(2, lambda x, y: x + y)
    inst = Instance(space, order, F, coupled_preset(), LSet.of(2, 1))
    with pytest.raises(EvaluationError, match=r"value 2 at \(1, 1\)"):
        enumerate_fixed_points(inst)
    with pytest.raises(EvaluationError, match="outside the carrier"):
        CONDITIONS["omega1"].check(inst)


def test_operator_called_once_per_argument_tuple():
    space, _ = int_chain(3)
    calls = []

    def record(*args):
        calls.append(args)
        return args[0]

    F = MultiOperator(2, record)
    enumerate_fixed_points(Instance(space, None, F, coupled_preset(), LSet.of(2, 1)))
    # In the order a point-by-point sweep first needs them: (x, y), then
    # (y, x), point after point.
    want = []
    for x, y in itertools.product(range(3), repeat=2):
        want.extend(arg for arg in ((x, y), (y, x)) if arg not in want)
    assert calls == want
