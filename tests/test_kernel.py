"""Differential tests: the integer kernel against the per-pair reference loops
in helpers.py, on small random posets, index families, L sets and operators."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    DistanceSpace,
    EvaluationError,
    LambdaFamily,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    ProductKind,
    check_mk,
    check_mk_operator,
    check_omega,
    coupled_preset,
    enumerate_fixed_points,
    product_space,
    sum_distance,
    sup_distance,
)
from multifix import kernel
from multifix.product import _product_matrix
from helpers import (
    int_chain,
    reference_check_mk,
    reference_check_mk_operator,
    reference_check_omega,
    reference_enumerate,
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
    block = draw(st.sampled_from([1, 7, kernel.BLOCK_ENTRIES]))
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
    with mock.patch.object(kernel, "BLOCK_ENTRIES", block):
        for variant in (1, 2, 3, 4):
            same(
                check_omega(space, order, F, family, lset, variant),
                reference_check_omega(space, order, F, family, lset, variant),
            )
        for variant in (1, 2):
            same(
                check_mk(space, order, F, family, lset, delta, variant, r_grid),
                reference_check_mk(space, order, F, family, lset, delta, variant, r_grid),
            )
        for kind in ProductKind:
            same(
                check_mk_operator(space, order, F, family, lset, delta, kind, r_grid=r_grid),
                reference_check_mk_operator(
                    space, order, F, family, lset, delta, kind, r_grid=r_grid
                ),
            )
        assert enumerate_fixed_points(space, F, family) == reference_enumerate(space, F, family)


def test_product_distances_round_like_the_scalar_forms():
    space = DistanceSpace.from_matrix("abc", [[0, 0.1, 0.2], [0.3, 0, 0.7], [0.2, 0.1, 0]])
    k = kernel.ProductKernel(space, 3)
    xs, ys = (a.ravel() for a in np.indices((k.size, k.size)))
    points = [k.point(i) for i in range(k.size)]
    for kind, scalar in ((ProductKind.SUP, sup_distance), (ProductKind.SUM, sum_distance)):
        want = [scalar(space, points[x], points[y]) for x, y in zip(xs, ys)]
        assert k.distance(kind, xs, ys).tolist() == want
        assert _product_matrix(space.matrix(), 3, kind).ravel().tolist() == want
        dist = product_space(space, 3, kind).dist
        assert [dist(points[x], points[y]) for x, y in zip(xs, ys)] == want


def test_canonical_order_witness_across_blocks():
    # The first comparable pair passes; the first failing pair sits in a
    # later block when each block holds one row.
    space, order = int_chain(3)
    F = MultiOperator(2, lambda x, y: min(x, 1))
    want = reference_check_omega(space, order, F, coupled_preset(), LSet.of(2, 1), 1)
    assert want.counterexample not in (None, ((0, 0), (0, 1)))
    with mock.patch.object(kernel, "BLOCK_ENTRIES", 1):
        got = check_omega(space, order, F, coupled_preset(), LSet.of(2, 1), 1)
    assert got.counterexample == want.counterexample


def test_callable_value_outside_carrier_names_argument():
    space, order = int_chain(2)
    F = MultiOperator(2, lambda x, y: x + y)
    with pytest.raises(EvaluationError, match=r"value 2 at \(1, 1\)"):
        enumerate_fixed_points(space, F, coupled_preset())
    with pytest.raises(EvaluationError, match="outside the carrier"):
        check_omega(space, order, F, coupled_preset(), LSet.of(2, 1), 1)


def test_operator_called_once_per_argument_tuple():
    space, _ = int_chain(3)
    calls = []

    def record(*args):
        calls.append(args)
        return args[0]

    enumerate_fixed_points(space, MultiOperator(2, record), coupled_preset())
    assert sorted(calls) == sorted(itertools.product(range(3), repeat=2))
