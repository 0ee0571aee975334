"""Shared instance generators and per-pair reference loops for the test
suite.

All generated distances are integer-valued floats so sums and maxima stay exact in
double precision; classification of generated spaces and their products is
then free of rounding artifacts.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from multifix import (
    DistanceClass,
    DistanceSpace,
    Instance,
    LambdaFamily,
    LSet,
    MultiOperator,
    OrderRelation,
    ProductKind,
    apply_lambda_f,
    chain_order,
    surjectivity_report,
)
from multifix.conditions import Clause, ConditionReport
from multifix.game import Round
from multifix.operators import bind_lambda_f, check_lambda_arity
from multifix.product import (
    bind_distance,
    check_pair_arity,
    combine,
    product_size,
    sum_distance,
)
from multifix.solver import DIVERGENCE_CAP, SolveReport

# The references' own exactness rule: a strict inequality on table entries
# and their maxima is exact, and on computed reals (sums, box distances) it
# must hold by this margin.
STRICT_MARGIN = 1e-12


def _strictly_less(a, b, table_backed):
    return a < b if table_backed else a < b - STRICT_MARGIN


def checked_distance(space, kind):
    """The product distance of ``kind``, checking each call's arity."""
    rho = bind_distance(space, kind)

    def checked(x, y):
        check_pair_arity(x, y)
        return rho(x, y)

    return checked


def product_points(space, m):
    """All m-tuples over a finite carrier, in canonical (lexicographic)
    order, refused as ``product_size`` refuses them."""
    product_size(space, m)
    return list(itertools.product(space.points, repeat=m))


@functools.lru_cache(maxsize=64)
def _relation(order):
    """An order's matrix over its own labels, and each label's index."""
    return order.matrix(order.points), {p: i for i, p in enumerate(order.points)}


def leq(order, x, y):
    """``x <= y`` in an ``OrderRelation``, read through its matrix."""
    O, index = _relation(order)
    return bool(O[index[x], index[y]])


def compare_L(order, lset, x, y):
    """``x <=_L y`` on label tuples: forward on L coordinates, backward
    elsewhere."""
    if len(x) != lset.m or len(y) != lset.m:
        raise ValueError(f"tuple arity must be {lset.m}")
    for forward, a, b in zip(lset.forward, x, y):
        if not (leq(order, a, b) if forward else leq(order, b, a)):
            return False
    return True


def reference_product_matrix(space, m, kind):
    """The ``N x N`` product distance matrix over ``product_points(space, m)``:
    one broadcast coordinate per step through ``product.combine`` keeps peak
    memory near its size."""
    D = space.matrix()
    out = D
    for _ in range(m - 1):
        N = out.shape[0] * D.shape[0]
        out = combine(kind, (out[:, None, :, None], D[None, :, None, :])).reshape(N, N)
    return out


def reference_product_space(space, m, kind):
    """The materialized m-fold product of a finite carrier, as a table over
    its product points."""
    return DistanceSpace.from_matrix(
        product_points(space, m), reference_product_matrix(space, m, kind)
    )


def shortest_path_closure(W: list[list[float]]) -> list[list[float]]:
    n = len(W)
    D = [row[:] for row in W]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if D[i][k] + D[k][j] < D[i][j]:
                    D[i][j] = D[i][k] + D[k][j]
    for i in range(n):
        D[i][i] = 0.0
    return D


def random_metric(rng: random.Random, n: int) -> DistanceSpace:
    W = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            W[i][j] = W[j][i] = float(rng.randint(1, 32))
    return DistanceSpace.from_matrix(range(n), shortest_path_closure(W))


def random_quasimetric(rng: random.Random, n: int) -> DistanceSpace:
    W = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                W[i][j] = float(rng.randint(1, 32))
    return DistanceSpace.from_matrix(range(n), shortest_path_closure(W))


def random_symmetric(rng: random.Random, n: int) -> DistanceSpace:
    # symmetric positive entries; the triangle inequality may well fail
    M = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = M[j][i] = float(rng.randint(1, 64))
    return DistanceSpace.from_matrix(range(n), M)


def random_s_distance(rng: random.Random, n: int) -> DistanceSpace:
    # squared metric: relaxed triangle inequality with witness at most 2
    base = random_metric(rng, n).matrix()
    return DistanceSpace.from_matrix(range(n), (base ** 2).tolist())


GENERATORS = {
    "symmetric": random_symmetric,
    "quasimetric": random_quasimetric,
    "metric": random_metric,
    "s_distance": random_s_distance,
}


def unit_space(labels) -> DistanceSpace:
    """The finite carrier ``labels`` with every two distinct points at
    distance 1."""
    n = len(labels)
    return DistanceSpace.from_matrix(labels, np.ones((n, n)) - np.eye(n))


def order_instance(space, order, lset: LSet) -> Instance:
    """An instance for tests of its columns, orders, ``<=_L`` and distances:
    a constant operator over the identity family, which those never call."""
    m = lset.m
    return Instance(space, order, MultiOperator.constant(m, None), LambdaFamily.identity(m), lset)


def int_chain(n: int, scale: float = 1.0) -> tuple[DistanceSpace, OrderRelation]:
    """Chain 0 < 1 < ... < n-1 with the scaled absolute-value distance."""
    labels = list(range(n))
    matrix = [[abs(i - j) * scale for j in labels] for i in labels]
    return DistanceSpace.from_matrix(labels, matrix), chain_order(labels)


def lopsided_chain(n: int) -> tuple[DistanceSpace, OrderRelation]:
    """Chain 0 < 1 < ... < n-1 with d(x, y) = 2(x - y) downhill and y - x
    uphill: a quasimetric whose two directions differ."""
    labels = list(range(n))
    matrix = [[2.0 * (i - j) if i > j else float(j - i) for j in labels] for i in labels]
    return DistanceSpace.from_matrix(labels, matrix), chain_order(labels)


def table_operator(space: DistanceSpace, m: int, func) -> MultiOperator:
    """Materialize a callable into a complete lookup table over the carrier."""
    table = {
        key: func(*key) for key in itertools.product(space.points, repeat=m)
    }
    return MultiOperator.from_table(m, table, space.points)


def random_table_operator(
    rng: random.Random, space: DistanceSpace, m: int
) -> MultiOperator:
    table = {
        key: rng.choice(space.points)
        for key in itertools.product(space.points, repeat=m)
    }
    return MultiOperator.from_table(m, table, space.points)


# -- per-pair reference loops -------------------------------------------------
#
# Pure-Python forms of the exhaustive checks that run on the integer kernel
# and on the order matrix, kept as the reference for the differential tests.


def reference_bound(order, a, b, upper):
    """(least upper / greatest lower) bound of a pair, plus mere existence."""
    points = order.points
    if upper:
        bounds = [c for c in points if leq(order, a, c) and leq(order, b, c)]
    else:
        bounds = [c for c in points if leq(order, c, a) and leq(order, c, b)]
    extremal = None
    for c in bounds:
        if all((leq(order, c, other) if upper else leq(order, other, c)) for other in bounds):
            extremal = c
            break
    return extremal, bool(bounds)


def reference_check_lattice(order):
    for a in order.points:
        for b in order.points:
            j, _ = reference_bound(order, a, b, upper=True)
            m, _ = reference_bound(order, a, b, upper=False)
            if j is None or m is None:
                kind = "join" if j is None else "meet"
                return Clause("lattice", False, (a, b, kind))
    return Clause("lattice", True)


def reference_check_bounds_exist(order):
    for a in order.points:
        for b in order.points:
            _, has_up = reference_bound(order, a, b, upper=True)
            _, has_lo = reference_bound(order, a, b, upper=False)
            if not (has_up and has_lo):
                kind = "upper" if not has_up else "lower"
                return Clause("pair bounds", False, (a, b, kind))
    return Clause("pair bounds", True)


def reference_check_order_distance_compat(space, order):
    for x in space.points:
        for y in space.points:
            if not leq(order, x, y):
                continue
            for z in space.points:
                if not leq(order, y, z):
                    continue
                near = space.dist(x, y) + space.dist(y, x)
                far = space.dist(x, z) + space.dist(z, x)
                if near > far:
                    return Clause("order-distance compatibility", False, (x, y, z))
    return Clause("order-distance compatibility", True)


def comparable_product_pairs(space, order, lset, include_equal=False):
    pts = product_points(space, lset.m)
    return [
        (x, y)
        for x in pts
        for y in pts
        if (include_equal or x != y) and compare_L(order, lset, x, y)
    ]


def reference_check_omega(space, order, F, family, lset, variant):
    clauses = [reference_check_lattice(order)]
    if not clauses[-1].ok:
        return ConditionReport(clauses)
    clauses.append(reference_check_order_distance_compat(space, order))
    if not clauses[-1].ok:
        return ConditionReport(clauses)
    if variant in (3, 4):
        surj = surjectivity_report(family)
        ok = all(surj.rows_surjective) or surj.union_of_images_full
        clauses.append(
            Clause("lambda surjectivity", ok, None if ok else tuple(surj.rows_surjective))
        )
        if not ok:
            return ConditionReport(clauses)

    kind = ProductKind.SUP if variant in (1, 2) else ProductKind.SUM
    rho = checked_distance(space, kind)
    isotone = variant in (1, 3)
    table = kind is ProductKind.SUP
    images = {x: apply_lambda_f(F, family, x) for x in product_points(space, lset.m)}
    for x, y in comparable_product_pairs(space, order, lset):
        fx, fy = images[x], images[y]
        if not (compare_L(order, lset, fx, fy) if isotone else compare_L(order, lset, fy, fx)):
            clauses.append(Clause("image order", False, (x, y)))
            return ConditionReport(clauses)
        lhs = rho(fx, fy) + rho(fy, fx)
        rhs = rho(x, y) + rho(y, x)
        if not _strictly_less(lhs, rhs, table):
            clauses.append(Clause("strict contraction", False, (x, y)))
            return ConditionReport(clauses)
    clauses.append(Clause("image order", True))
    clauses.append(Clause("strict contraction", True))
    return ConditionReport(clauses)


def reference_check_mk(space, order, F, family, lset, delta, variant, r_grid=None):
    """The MK condition set one pair at a time: per comparable pair, equal
    pairs included, image order on (lo, hi), then the MK operator condition
    from rho(x, y) to rho(lo, hi) in the sup distance."""
    clauses = [reference_check_bounds_exist(order)]
    if not clauses[-1].ok:
        return ConditionReport(clauses)
    rho = checked_distance(space, ProductKind.SUP)
    images = {x: apply_lambda_f(F, family, x) for x in product_points(space, lset.m)}
    for x, y in comparable_product_pairs(space, order, lset, include_equal=True):
        lo, hi = (images[x], images[y]) if variant == 1 else (images[y], images[x])
        if not compare_L(order, lset, lo, hi):
            clauses.append(Clause("image order", False, (x, y)))
            return ConditionReport(clauses)
        d, d_img = rho(x, y), rho(lo, hi)
        if r_grid is None:
            r = reference_all_r_failure(delta, d, d_img, True)
        else:
            found = reference_first_failure(r_grid, delta, [d], [d_img], True)
            r = None if found is None else found[1]
        if r is not None:
            clauses.append(Clause("MK operator condition", False, (x, y, r)))
            return ConditionReport(clauses)
    clauses.append(Clause("image order", True))
    clauses.append(Clause("MK operator condition", True))
    return ConditionReport(clauses)


def reference_pair_distances(space, F, family, kind, pairs):
    """Yield (rho(x, y), rho(lambdaF(x), lambdaF(y))) per pair, each pair's
    arity checked on entry as sum_distance and apply_lambda_f do."""
    rho = bind_distance(space, kind)
    lam = None
    m = family.m
    for x, y in pairs:
        if lam is None or len(x) != m or len(y) != m:
            check_pair_arity(x, y)
            check_lambda_arity(F, family, x)
            check_lambda_arity(F, family, y)
            lam = bind_lambda_f(F, family)
        yield rho(x, y), rho(lam(x), lam(y))


def reference_all_r_failure(delta, d, d_img, table_backed):
    """The r > 0 at which "d < r + delta(r) implies d_img < r" fails, or None:
    r = d_img when the premise holds there (a NaN
    image distance read as inf), else d_img + STRICT_MARGIN on computed reals
    when the premise holds there."""
    img = math.inf if math.isnan(d_img) else d_img
    if not img > 0:
        return None
    if d < img + delta(img):
        return img
    if not table_backed and d < img + STRICT_MARGIN + delta(img + STRICT_MARGIN):
        return img + STRICT_MARGIN
    return None


def reference_check_mk_operator(
    space, order, F, family, lset, delta, kind, pairs=None, r_grid=None, seed=None
):
    """The MK operator check one pair at a time, over every comparable pair
    (equal pairs included) or over the supplied pairs; every r > 0 without a
    grid, else the grid scan."""
    exhaustive = pairs is None
    if exhaustive:
        pairs = comparable_product_pairs(space, order, lset, include_equal=True)
    if not pairs:
        raise ValueError("no comparable pairs to check")
    samples = None if exhaustive else len(pairs)
    measured = list(reference_pair_distances(space, F, family, kind, pairs))
    table = space.is_finite and kind is ProductKind.SUP
    grid_bound = r_grid is not None
    for (x, y), (d, d_img) in zip(pairs, measured):
        if grid_bound:
            found = reference_first_failure(r_grid, delta, [d], [d_img], table)
            r = None if found is None else found[1]
        else:
            r = reference_all_r_failure(delta, d, d_img, table)
        if r is not None:
            clause = Clause("MK operator condition", False, (tuple(x), tuple(y), r))
            return ConditionReport(
                [clause], seed=seed, samples=samples, grid_bound=grid_bound,
            )
    return ConditionReport(
        [Clause("MK operator condition", True)],
        seed=seed,
        samples=samples,
        grid_bound=grid_bound,
    )


def reference_monotone_start(space, order, F, family, lset):
    """The point-by-point monotone-start search: the first product point a
    with a <=_L lambdaF(a) (ascending) or lambdaF(a) <=_L a (descending)."""
    for a in product_points(space, lset.m):
        image = apply_lambda_f(F, family, a)
        if compare_L(order, lset, a, image):
            return a, "ascending"
        if compare_L(order, lset, image, a):
            return a, "descending"
    return None


def reference_enumerate(space, F, family):
    return [a for a in product_points(space, family.m) if apply_lambda_f(F, family, a) == a]


# -- pure-Python references for the base-space numpy code ---------------------


def min_plus_reference(D):
    """``spaces._min_plus`` as one serial loop over y on the whole matrix."""
    T = np.full_like(D, np.inf)
    with np.errstate(over="ignore"):
        for y in range(D.shape[0]):
            np.minimum(T, D[:, y, None] + D[None, y, :], out=T)
    return T


def classify_reference(D):
    """The seven DistanceClass fields of ``classify_finite`` by explicit loops
    over a list-of-lists matrix, with the same floating point operations.
    A pair with a zero-length path x -> y -> z blocks the s relaxation as
    one in ``reach`` does."""
    inf = float("inf")
    pts = range(len(D))
    T = [[min(D[x][y] + D[y][z] for y in pts) for z in pts] for x in pts]
    symmetric = all(D[x][z] == D[z][x] for x in pts for z in pts)
    quasimetric = all(D[x][z] <= T[x][z] for x in pts for z in pts)
    positive = [v for row in D for v in row if v > 0]
    bound = min(positive) if positive else inf
    delta0 = min(positive) / 2.0 if positive else 1.0
    reach = [
        [any(D[x][y] <= delta0 and D[y][z] <= delta0 for y in pts) for z in pts]
        for x in pts
    ]
    row_max = [max([D[x][z] for z in pts if reach[x][z]], default=-inf) for x in pts]
    s_distance = None
    if not any((T[x][z] == 0 or reach[x][z]) and D[x][z] > 0 for x in pts for z in pts):
        ratios = [D[x][z] / T[x][z] for x in pts for z in pts if D[x][z] > 0]
        s_distance = max(max(ratios, default=0.0), 1.0)
    zero_sets = [{w for w in pts if D[x][w] == 0} for x in pts]
    h_distance = all(
        not (zero_sets[x] & zero_sets[y]) for x in pts for y in pts if x != y
    )
    return DistanceClass(
        symmetric=symmetric,
        quasimetric=quasimetric,
        f_distance=max(row_max, default=-inf) <= bound,
        s_distance=s_distance,
        h_distance=h_distance,
    )


def from_matrix_violation(labels, matrix):
    """Message of the first distance-axiom violation in row-major order, as
    the entry-by-entry loop of ``DistanceSpace.from_matrix`` words it, or
    None."""
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if matrix[i][j] < 0:
                return f"d({labels[i]},{labels[j]}) = {matrix[i][j]} is negative"
            s = matrix[i][j] + matrix[j][i]
            if i == j and s != 0.0:
                return f"d({labels[i]},{labels[i]}) must be 0"
            if i != j and s == 0.0:
                return f"d({labels[i]},{labels[j]}) + reverse is 0 for distinct points"
    return None


def closure_reference(points, pairs):
    """Reflexive-transitive closure of ``pairs`` as a set, by fixpoint."""
    rel = {(p, p) for p in points} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in points:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


# -- line-by-line references for the problem-file parser ---------------------


def reference_dist_rows(rows, n, header_line):
    """The ``dist:`` block read row by row and token by token with float(),
    as a list of rows, or the (message, line) of the first refusal: in each
    row a bad token, then a width other than ``n``, then a non-finite entry;
    then a block the file ends before ``n`` rows, at the header's line.
    ``rows`` are the (line number, text) content lines after the header."""
    table = []
    for line_number, line in rows[:n]:
        try:
            row = [float(token) for token in line.split()]
        except ValueError:
            return (f"bad distance row {line!r}", line_number)
        if len(row) != n:
            return (f"distance row has {len(row)} entries, expected {n}", line_number)
        if not all(math.isfinite(v) for v in row):
            return (f"distance row {line!r} is not finite", line_number)
        table.append(row)
    if len(table) < n:
        return ("dist block is truncated", header_line)
    return table


def reference_operator_entries(entries, points):
    """The ``F:`` block's table read entry by entry, or the (message, line)
    of the first entry refused: one without '->', then one naming a token
    that is not a point, then a repeated argument tuple.  ``entries`` are
    the block's (line number, text) content lines."""
    table = {}
    for line_number, entry in entries:
        if "->" not in entry:
            return (f"expected 'a,b -> c', got {entry!r}", line_number)
        lhs, rhs = entry.split("->", 1)
        key = tuple(t.strip() for t in lhs.split(","))
        value = rhs.strip()
        for token in (*key, value):
            if token not in points:
                return (f"operator entry {entry!r}: {token!r} is not a point", line_number)
        if key in table:
            return (f"duplicate operator entry for {lhs.strip()!r}", line_number)
        table[key] = value
    return table


# -- per-point reference loops for the bound lambdaF and distance ------------


def field_reprs(report) -> list[str]:
    """A report's fields as reprs, lists element by element: NaN matches NaN,
    and a mismatch names its first field or index."""
    out = []
    for name, value in vars(report).items():
        if isinstance(value, list):
            out.extend(f"{name}[{k}]={v!r}" for k, v in enumerate(value))
            out.append(f"len({name})={len(value)}")
        else:
            out.append(f"{name}={value!r}")
    return out


def reference_apply_lambda_f(F, family, x):
    """lambdaF by generator, through the checked ``MultiOperator.__call__``."""
    if F.m != family.m or len(x) != family.m:
        raise ValueError(f"arity mismatch: operator {F.m}, family {family.m}, point {len(x)}")
    return tuple(F(*(x[j - 1] for j in row)) for row in family.rows)


def reference_sample_comparable_pairs(lo, hi, lset, n, seed):
    """The per-pair ``rng.uniform`` sampler."""
    rng = random.Random(seed)
    max_step = (hi - lo) / 4
    pairs = []
    for _ in range(n):
        x = []
        y = []
        for i in range(1, lset.m + 1):
            a = rng.uniform(lo, hi)
            step = rng.uniform(0, max_step)
            b = min(a + step, hi) if i in lset.members else max(a - step, lo)
            x.append(a)
            y.append(b)
        pairs.append((tuple(x), tuple(y)))
    return pairs


def reference_first_failure(r_grid, delta, rho, image_rho, table_backed):
    """First k whose binding r = min {r : rho[k] < r + delta(r)} exists and
    image_rho[k] < r fails, as (k, r), by a scan of the whole grid per pair."""
    for k, (d, d_img) in enumerate(zip(rho, image_rho)):
        binding = [r for r in r_grid if d < r + delta(r)]
        if binding and not _strictly_less(d_img, min(binding), table_backed):
            return k, min(binding)
    return None


def _in_carrier(space, x):
    """x, once each coordinate is checked to lie in the carrier."""
    for c in x:
        space.require(c)
    return x


def reference_picard_solve(space, F, family, start, config):
    """Picard iteration one checked call at a time."""
    start = tuple(start)
    for c in start:
        space.require(c)
    rho = checked_distance(space, config.kind)
    visited = {}
    x = start
    trace = []
    for n in range(1, config.max_iter + 1):
        nxt = reference_apply_lambda_f(F, family, x)
        step = rho(x, nxt)
        trace.append(step)
        if space.is_finite:
            if nxt == x:
                return SolveReport("converged", _in_carrier(space, x), n, trace)
            visited[x] = n
            if nxt in visited:
                return SolveReport(
                    "cycle", nxt, n, trace, cycle_length=n + 1 - visited[nxt]
                )
        else:
            residual = step + rho(nxt, x)
            if step > DIVERGENCE_CAP or not math.isfinite(residual):
                return SolveReport("diverged", nxt, n, trace)
            if residual <= config.tol:
                return SolveReport("converged", _in_carrier(space, x), n, trace)
        x = nxt
    return SolveReport("max_iter_exceeded", x, config.max_iter, trace)


def reference_simulate(game, start):
    """The correction game one checked call at a time: its rounds and
    whether the last was optimal."""
    x = tuple(start)
    for c in x:
        game.space.require(c)
    rounds = []
    for _ in range(game.rounds):
        nxt = reference_apply_lambda_f(game.F, game.family, x)
        nonconv = tuple(game.space.dist(a, b) for a, b in zip(x, nxt))
        rounds.append(Round(x, nonconv))
        total = sum_distance(game.space, x, nxt)
        if total <= game.tol:
            _in_carrier(game.space, x)
            return rounds, True
        if not math.isfinite(total):
            return rounds, False
        x = nxt
    return rounds, False
