"""Shared instance generators and per-pair reference loops for the test
suite.

All generated distances are integer-valued floats so sums and maxima stay exact in
double precision; classification of generated spaces and their products is
then free of rounding artifacts.
"""

from __future__ import annotations

import math
import random

from multifix import (
    DistanceClass,
    DistanceSpace,
    MultiOperator,
    OrderRelation,
    ProductKind,
    apply_lambda_f,
    chain_order,
    check_bounds_exist,
    check_lattice,
    check_mk_operator,
    check_mk_space,
    check_order_distance_compat,
    compare_L,
    surjectivity_report,
)
from multifix.conditions import Clause, ConditionReport, _strictly_less
from multifix.game import Round, Trajectory
from multifix.product import product_distance, product_points
from multifix.solver import SolveReport
from multifix.spaces import Box


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


def int_chain(n: int, scale: float = 1.0) -> tuple[DistanceSpace, OrderRelation]:
    """Chain 0 < 1 < ... < n-1 with the scaled absolute-value distance."""
    labels = list(range(n))
    matrix = [[abs(i - j) * scale for j in labels] for i in labels]
    return DistanceSpace.from_matrix(labels, matrix), chain_order(labels)


def table_operator(space: DistanceSpace, m: int, func) -> MultiOperator:
    """Materialize a callable into a complete lookup table over the carrier."""
    import itertools

    table = {
        key: func(*key) for key in itertools.product(space.points, repeat=m)
    }
    return MultiOperator.from_table(m, table, space.points)


def random_table_operator(
    rng: random.Random, space: DistanceSpace, m: int
) -> MultiOperator:
    import itertools

    table = {
        key: rng.choice(space.points)
        for key in itertools.product(space.points, repeat=m)
    }
    return MultiOperator.from_table(m, table, space.points)


# -- per-pair reference loops -------------------------------------------------
#
# Pure-Python forms of the exhaustive checks that run on the integer kernel,
# kept as the reference for the differential tests.


def comparable_product_pairs(space, order, lset, include_equal=False):
    pts = product_points(space, lset.m)
    return [
        (x, y)
        for x in pts
        for y in pts
        if (include_equal or x != y) and compare_L(order, lset, x, y)
    ]


def _image_order_failure(space, order, F, family, lset, isotone, include_equal):
    images = {x: apply_lambda_f(F, family, x) for x in product_points(space, lset.m)}
    for x, y in comparable_product_pairs(space, order, lset, include_equal):
        fx, fy = images[x], images[y]
        if not (compare_L(order, lset, fx, fy) if isotone else compare_L(order, lset, fy, fx)):
            return x, y
    return None


def reference_check_omega(space, order, F, family, lset, variant):
    name = f"omega{variant}"
    clauses = []
    lat = check_lattice(order)
    clauses.append(Clause("lattice", lat.is_lattice, lat.counterexample))
    if not lat.is_lattice:
        return ConditionReport(name, "fail", clauses)
    compat = check_order_distance_compat(space, order)
    clauses.append(compat.clauses[0])
    if compat.verdict == "fail":
        return ConditionReport(name, "fail", clauses)
    if variant in (3, 4):
        surj = surjectivity_report(family)
        ok = surj.all_rows_surjective or surj.union_of_images_full
        note = (
            "per-row surjectivity"
            if surj.all_rows_surjective
            else "union of row images covers 1..m"
            if surj.union_of_images_full
            else ""
        )
        clauses.append(
            Clause("lambda surjectivity", ok, None if ok else tuple(surj.rows_surjective), note)
        )
        if not ok:
            return ConditionReport(name, "fail", clauses)

    kind = ProductKind.SUP if variant in (1, 2) else ProductKind.SUM
    rho = product_distance(space, kind)
    isotone = variant in (1, 3)
    table = space.table_backed and kind is ProductKind.SUP
    images = {x: apply_lambda_f(F, family, x) for x in product_points(space, lset.m)}
    for x, y in comparable_product_pairs(space, order, lset):
        fx, fy = images[x], images[y]
        if not (compare_L(order, lset, fx, fy) if isotone else compare_L(order, lset, fy, fx)):
            clauses.append(Clause("image order", False, (x, y)))
            return ConditionReport(name, "fail", clauses)
        lhs = rho(fx, fy) + rho(fy, fx)
        rhs = rho(x, y) + rho(y, x)
        if not _strictly_less(lhs, rhs, table):
            clauses.append(Clause("strict contraction", False, (x, y)))
            return ConditionReport(name, "fail", clauses)
    clauses.append(Clause("image order", True))
    clauses.append(Clause("strict contraction", True))
    return ConditionReport(name, "pass", clauses)


def reference_check_mk(space, order, F, family, lset, delta, variant, r_grid=None):
    name = f"mk{variant}"
    clauses = []
    bounds = check_bounds_exist(order)
    clauses.append(bounds.clauses[0])
    if bounds.verdict == "fail":
        return ConditionReport(name, "fail", clauses)
    if r_grid is None:
        r_grid = sorted(
            {space.dist(x, y) for x in space.points for y in space.points if space.dist(x, y) > 0}
        ) or [1.0]
    mk_space = check_mk_space(space, order, delta, r_grid)
    clauses.append(mk_space.clauses[0])
    if mk_space.verdict == "fail":
        return ConditionReport(name, "fail", clauses)
    failure = _image_order_failure(space, order, F, family, lset, variant == 1, True)
    clauses.append(Clause("image order", failure is None, failure))
    return ConditionReport(name, "pass" if failure is None else "fail", clauses)


def reference_check_mk_operator(space, order, F, family, lset, delta, kind, r_grid=None):
    """Exhaustive MK operator check through the per-pair (supplied sample)
    path; an exhaustive pass reads "pass" instead of "sampled-pass"."""
    pairs = comparable_product_pairs(space, order, lset, include_equal=True)
    report = check_mk_operator(
        space, order, F, family, lset, delta, kind, pairs=pairs, r_grid=r_grid
    )
    if report.verdict == "sampled-pass":
        report.verdict = "pass"
    return report


def reference_enumerate(space, F, family):
    return [a for a in product_points(space, family.m) if apply_lambda_f(F, family, a) == a]


# -- pure-Python references for the base-space numpy code ---------------------


def classify_reference(D, atol, epsilon_grid=None):
    """The seven DistanceClass fields of ``classify_finite`` by explicit loops
    over a list-of-lists matrix, with the same floating point operations."""
    inf = float("inf")
    pts = range(len(D))
    T = [[min(D[x][y] + D[y][z] for y in pts) for z in pts] for x in pts]
    symmetric = all(abs(D[x][z] - D[z][x]) <= atol for x in pts for z in pts)
    quasimetric = all(D[x][z] <= T[x][z] + atol for x in pts for z in pts)
    positive = [v for row in D for v in row if v > atol]
    grid = sorted(set(positive)) if epsilon_grid is None else sorted(epsilon_grid)
    if any(e <= 0 for e in grid):
        raise ValueError("epsilon grid values must be positive")
    bound = (grid[0] if grid else inf) + atol
    delta0 = min(positive) / 2.0 if positive else 1.0
    reach = [
        [any(D[x][y] <= delta0 and D[y][z] <= delta0 for y in pts) for z in pts]
        for x in pts
    ]
    row_max = [max([D[x][z] for z in pts if reach[x][z]], default=-inf) for x in pts]
    s_distance = None
    if not any((T[x][z] <= atol or reach[x][z]) and D[x][z] > atol for x in pts for z in pts):
        ratios = [
            D[x][z] / max(T[x][z], atol) if T[x][z] > atol and D[x][z] > atol else 0.0
            for x in pts
            for z in pts
        ]
        s = max(ratios)
        s_distance = max(s, 1.0) if s > 0 else 1.0
    zero_sets = [{w for w in pts if D[x][w] <= atol} for x in pts]
    h_distance = all(
        not (zero_sets[x] & zero_sets[y]) for x in pts for y in pts if x != y
    )
    return DistanceClass(
        symmetric=symmetric,
        quasimetric=quasimetric,
        metric=symmetric and quasimetric,
        n_distance=all(v <= bound for v in row_max),
        f_distance=max(row_max) <= bound,
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


# -- per-point reference loops for the bound lambdaF and distance ------------


def lopsided_line(lo: float, hi: float) -> DistanceSpace:
    """[lo, hi] with d(x, y) = 2(x - y) downhill and y - x uphill: a
    quasimetric whose two directions differ."""
    return DistanceSpace.continuous(
        lambda x, y: 2 * (x - y) if x > y else y - x, Box(((lo, hi),)), True
    )


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


def reference_sample_comparable_pairs(lo, hi, lset, n, seed, max_step=None):
    """The per-pair ``rng.uniform`` sampler."""
    rng = random.Random(seed)
    max_step = (hi - lo) / 4 if max_step is None else max_step
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


def reference_picard_solve(space, F, family, start, config, order=None, lset=None):
    """Picard iteration one checked call at a time."""
    start = tuple(start)
    for c in start:
        space.require(c)
    rho = product_distance(space, config.kind)
    direction = None
    if order is not None and lset is not None:
        image = reference_apply_lambda_f(F, family, start)
        if compare_L(order, lset, start, image):
            direction = "ascending"
        elif compare_L(order, lset, image, start):
            direction = "descending"
    verified = direction is not None
    visited = {}
    x = start
    trace = []
    for n in range(1, config.max_iter + 1):
        nxt = reference_apply_lambda_f(F, family, x)
        step = rho(x, nxt)
        trace.append(step)
        if space.is_finite:
            if nxt == x:
                return SolveReport("converged", x, n, trace, verified, direction)
            visited[x] = n
            if nxt in visited:
                return SolveReport(
                    "max_iter_exceeded", nxt, n, trace, verified, direction,
                    cycle_length=n + 1 - visited[nxt],
                )
        else:
            residual = step + rho(nxt, x)
            if step > config.divergence_cap or not math.isfinite(residual):
                return SolveReport("diverged", nxt, n, trace, verified, direction)
            if residual < config.tol:
                return SolveReport("converged", x, n, trace, verified, direction)
        x = nxt
    return SolveReport("max_iter_exceeded", x, config.max_iter, trace, verified, direction)


def reference_simulate(game, start):
    """The correction game one checked call at a time."""
    x = tuple(start)
    for c in x:
        game.space.require(c)
    traj = Trajectory()
    for _ in range(game.rounds):
        nxt = reference_apply_lambda_f(game.F, game.family, x)
        nonconv = tuple(game.space.dist(a, b) for a, b in zip(x, nxt))
        traj.rounds.append(Round(x, nonconv))
        if sum(nonconv) <= game.tol:
            traj.terminated_optimal = True
            return traj
        x = nxt
    return traj
