"""Metamorphic relations: one instance written two ways gets the same
verdicts.  Relabelling and permuting a finite carrier, with its table, order
and operator carried along, changes no classification and no condition
verdict, and maps the fixed points through the relabelling.  Scaling the
table by 2 or by 0.5, which is exact on normal floats, changes no
classification and, under a linear modulus, no verdict and no fixed point."""

import itertools
import sys

from hypothesis import given, settings, strategies as st

from multifix import (
    DistanceSpace,
    Instance,
    LambdaFamily,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    ProductKind,
    classify_finite,
    verify_uniqueness,
)
from multifix.conditions import CONDITIONS

# Labels that read as numbers, as reorderings of each other and as block
# headers; a relabelling draws from the same list, so it may swap labels.
LABELS = ["0", "1", "2", "10", "01", "a", "f", "l", "delta", "tol"]
# Dyadic and integer distances, so that ties are common and sums exact.
DISTANCES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
DELTA = MeirKeelerModulus.linear(0.5)


def labelled(draw, n):
    return draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n, unique=True))


@st.composite
def relabelled_instances(draw):
    """An instance as (labels, matrix, order pairs, F table), its arity,
    family and L, and the relabelling and carrier permutation to apply."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    labels = labelled(draw, n)
    matrix = [[0.0 if i == j else draw(DISTANCES) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if matrix[i][j] + matrix[j][i] == 0:
            matrix[i][j] = 1.0
    rank = draw(st.permutations(labels))
    pairs = [
        (rank[i], rank[j]) for i, j in itertools.combinations(range(n), 2) if draw(st.booleans())
    ]
    table = {key: draw(st.sampled_from(labels)) for key in itertools.product(labels, repeat=m)}
    row = st.tuples(*[st.integers(1, m)] * m)
    family = LambdaFamily(m, draw(st.tuples(*[row] * m)))
    lset = LSet(m, frozenset(draw(st.sets(st.integers(1, m)))))
    rename = dict(zip(labels, labelled(draw, n)))
    perm = draw(st.permutations(range(n)))
    return (labels, matrix, pairs, table), m, family, lset, rename, perm


def rewrite(instance, rename, perm):
    """The instance over the renamed labels, in the permuted carrier order."""
    labels, matrix, pairs, table = instance
    return (
        [rename[labels[p]] for p in perm],
        [[matrix[p][q] for q in perm] for p in perm],
        [(rename[a], rename[b]) for a, b in pairs],
        {tuple(map(rename.get, key)): rename[v] for key, v in table.items()},
    )


def verdicts(instance, m, family, lset):
    """classify's flags, each verify verdict, the mk-op verdict under either
    product distance, and the fixed points.  Which clause fails first is no
    verdict: the pair loop stops at the first failing pair, and the carrier
    order decides which pair that is."""
    labels, matrix, pairs, table = instance
    space = DistanceSpace.from_matrix(labels, matrix)
    order = OrderRelation.from_pairs(labels, pairs)
    F = MultiOperator.from_table(m, table, labels)
    inst = Instance(space, order, F, family, lset)
    found = {"classify": classify_finite(space)}
    for name, condition in CONDITIONS.items():
        if condition.verifiable:
            report = verify_uniqueness(inst, name, delta=DELTA)
            found[name] = report.verdict
    for kind in ProductKind:
        found[kind] = CONDITIONS["mk-op"].check(inst, DELTA, kind=kind).verdict
    return found, set(report.fixed_points)


class TestPermutation:
    @settings(max_examples=150, deadline=None)
    @given(relabelled_instances())
    def test_relabelled_carrier_keeps_every_verdict(self, drawn):
        instance, m, family, lset, rename, perm = drawn
        want, fixed = verdicts(instance, m, family, lset)
        got, got_fixed = verdicts(rewrite(instance, rename, perm), m, family, lset)
        assert got == want
        assert got_fixed == {tuple(map(rename.get, x)) for x in fixed}


def scaled(matrix, c):
    return [[c * v for v in row] for row in matrix]


# Entries whose halves, and the halves of their pairwise sums, stay normal,
# and whose doubled sums stay finite: a subnormal does not scale exactly.
NORMAL_DISTANCES = st.one_of(st.just(0.0), st.floats(4 * sys.float_info.min, 1e300))


@st.composite
def normal_tables(draw):
    n = draw(st.integers(1, 6))
    matrix = [[0.0 if i == j else draw(NORMAL_DISTANCES) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if matrix[i][j] + matrix[j][i] == 0:
            matrix[i][j] = draw(NORMAL_DISTANCES.filter(bool))
    return matrix


class TestDyadicScale:
    @settings(max_examples=60, deadline=None)
    @given(relabelled_instances(), st.sampled_from([2.0, 0.5]))
    def test_scaled_table_keeps_every_verdict(self, drawn, c):
        instance, m, family, lset, _, _ = drawn
        labels, matrix, pairs, table = instance
        want = verdicts(instance, m, family, lset)
        assert verdicts((labels, scaled(matrix, c), pairs, table), m, family, lset) == want

    @settings(max_examples=150, deadline=None)
    @given(normal_tables(), st.sampled_from([2.0, 0.5]))
    def test_scaled_table_keeps_the_classification(self, matrix, c):
        labels = range(len(matrix))
        want = classify_finite(DistanceSpace.from_matrix(labels, matrix))
        assert classify_finite(DistanceSpace.from_matrix(labels, scaled(matrix, c))) == want
