"""Executable hypothesis checks: the four symmetric-contraction condition
sets, the Meir-Keeler space and operator conditions, and their shared
order-theoretic clauses.

Finite instances are checked exhaustively; continuous instances are checked
on seeded samples and report a clearly labeled "sampled-pass" verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import UnsupportedInstanceError
from .kernel import ProductKernel
from .operators import (
    LambdaFamily,
    MultiOperator,
    bind_lambda_f,
    check_lambda_arity,
    surjectivity_report,
)
from .orders import LSet, OrderRelation
from .product import ProductKind, bind_distance, check_pair_arity
from .spaces import DistanceSpace

Point = Any

# Margin for strict inequalities on computed (non-table) reals: rounding must
# not manufacture a pass.
STRICT_MARGIN = 1e-12


def _strictly_less(a: float, b: float, table_backed: bool) -> bool:
    return a < b if table_backed else a < b - STRICT_MARGIN


@dataclass(frozen=True)
class MeirKeelerModulus:
    """Evaluable modulus delta: (0, inf) -> (0, inf)."""

    func: Callable[[float], float]
    label: str = "custom"

    def __call__(self, r: float) -> float:
        if not r > 0:  # NaN included
            raise ValueError("modulus is only defined for positive r")
        value = self.func(r)
        if not value > 0:
            raise ValueError(f"modulus must be positive, got delta({r}) = {value}")
        return value

    @classmethod
    def linear(cls, c: float) -> "MeirKeelerModulus":
        if not 0 < c < math.inf:
            raise ValueError("linear modulus needs a positive finite coefficient")
        return cls(lambda r: c * r, f"linear {c}")

    @classmethod
    def const(cls, c: float) -> "MeirKeelerModulus":
        if not 0 < c < math.inf:
            raise ValueError("constant modulus needs a positive finite value")
        return cls(lambda r: c, f"const {c}")


@dataclass
class Clause:
    name: str
    ok: bool
    witness: Optional[tuple] = None
    note: str = ""


@dataclass
class ConditionReport:
    """Clause-by-clause verdict for one named condition set."""

    condition: str
    verdict: str  # "pass" | "fail" | "sampled-pass"
    clauses: list[Clause] = field(default_factory=list)
    counterexample: Optional[tuple] = None
    seed: Optional[int] = None
    samples: Optional[int] = None

    def __post_init__(self):
        if self.verdict == "fail" and self.counterexample is None:
            for cl in self.clauses:
                if not cl.ok:
                    self.counterexample = cl.witness
                    break

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "sampled-pass")

    def failing_clause(self) -> Optional[Clause]:
        for cl in self.clauses:
            if not cl.ok:
                return cl
        return None


@dataclass
class LatticeReport:
    is_lattice: bool
    join: dict
    meet: dict
    counterexample: Optional[tuple] = None


def _bound(
    order: OrderRelation, a: Point, b: Point, upper: bool
) -> tuple[Optional[Point], bool]:
    """(least upper / greatest lower) bound of a pair, plus mere existence."""
    points = order.points
    if upper:
        bounds = [c for c in points if order.leq(a, c) and order.leq(b, c)]
    else:
        bounds = [c for c in points if order.leq(c, a) and order.leq(c, b)]
    extremal = None
    for c in bounds:
        if all(
            (order.leq(c, other) if upper else order.leq(other, c))
            for other in bounds
        ):
            extremal = c
            break
    return extremal, bool(bounds)


def check_lattice(order: OrderRelation) -> LatticeReport:
    """Every pair must have a unique join and meet; tables are returned for
    reuse by downstream checks."""
    if not order.is_finite:
        raise UnsupportedInstanceError("lattice check needs a finite carrier")
    join: dict = {}
    meet: dict = {}
    for a in order.points:
        for b in order.points:
            j, _ = _bound(order, a, b, upper=True)
            m, _ = _bound(order, a, b, upper=False)
            if j is None or m is None:
                kind = "join" if j is None else "meet"
                return LatticeReport(False, join, meet, (a, b, kind))
            join[(a, b)] = j
            meet[(a, b)] = m
    return LatticeReport(True, join, meet)


def check_bounds_exist(order: OrderRelation) -> ConditionReport:
    """Every pair has some upper and some lower bound (weaker than lattice)."""
    if not order.is_finite:
        raise UnsupportedInstanceError("bounds check needs a finite carrier")
    for a in order.points:
        for b in order.points:
            _, has_up = _bound(order, a, b, upper=True)
            _, has_lo = _bound(order, a, b, upper=False)
            if not (has_up and has_lo):
                kind = "upper" if not has_up else "lower"
                clause = Clause("pair bounds", False, (a, b, kind))
                return ConditionReport("bounds", "fail", [clause])
    return ConditionReport("bounds", "pass", [Clause("pair bounds", True)])


def check_order_distance_compat(
    space: DistanceSpace, order: OrderRelation
) -> ConditionReport:
    """On every chain x <= y <= z the symmetric sum to the middle point must
    not exceed the symmetric sum across the whole chain."""
    if not space.is_finite:
        raise UnsupportedInstanceError("compatibility check needs a finite carrier")
    for x in space.points:
        for y in space.points:
            if not order.leq(x, y):
                continue
            for z in space.points:
                if not order.leq(y, z):
                    continue
                near = space.dist(x, y) + space.dist(y, x)
                far = space.dist(x, z) + space.dist(z, x)
                if near > far + (0.0 if space.table_backed else STRICT_MARGIN):
                    clause = Clause("order-distance compatibility", False, (x, y, z))
                    return ConditionReport("compat", "fail", [clause])
    return ConditionReport(
        "compat", "pass", [Clause("order-distance compatibility", True)]
    )


def check_omega(
    space: DistanceSpace,
    order: OrderRelation,
    F: MultiOperator,
    family: LambdaFamily,
    lset: LSet,
    variant: int,
) -> ConditionReport:
    """Exhaustive check of one of the four symmetric-contraction condition
    sets on a finite instance.

    Variants 1/2 measure the contraction in the sup product distance with an
    isotone/antitone image-order clause; variants 3/4 do the same in the sum
    distance and additionally require the index-family surjectivity clause.
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1..4")
    name = f"omega{variant}"
    clauses: list[Clause] = []

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
    isotone = variant in (1, 3)
    table = space.table_backed and kind is ProductKind.SUP

    kernel = ProductKernel(space, lset.m)
    O = kernel.order_matrix(order)
    image = kernel.image(F, family)
    for xs, ys in kernel.comparable_pairs(O, lset, include_equal=False):
        fx, fy = image[xs], image[ys]
        ordered = kernel.leq_L(O, lset, fx, fy) if isotone else kernel.leq_L(O, lset, fy, fx)
        lhs = kernel.distance(kind, fx, fy) + kernel.distance(kind, fy, fx)
        rhs = kernel.distance(kind, xs, ys) + kernel.distance(kind, ys, xs)
        bad = ~ordered | ~_strictly_less(lhs, rhs, table)
        if bad.any():
            k = int(np.argmax(bad))
            clause = "image order" if not ordered[k] else "strict contraction"
            witness = (kernel.point(xs[k]), kernel.point(ys[k]))
            clauses.append(Clause(clause, False, witness))
            return ConditionReport(name, "fail", clauses)
    clauses.append(Clause("image order", True))
    clauses.append(Clause("strict contraction", True))
    return ConditionReport(name, "pass", clauses)


def _binding_r(r_grid: Sequence[float], delta: MeirKeelerModulus):
    """Return first_failure(rho, image_rho, table_backed): the first position
    k whose binding r = min {r in grid : rho[k] < r + delta(r)} exists while
    image_rho[k] < r fails, as (k, r); None if there is none.

    The implication "for all r with rho < r + delta(r): image < r" binds only
    at the smallest premise-satisfying r, so one lookup per pair suffices.  A
    pair with no premise-satisfying r holds vacuously.
    """
    r = np.array(r_grid, dtype=float)
    t = np.array([v + delta(v) for v in r_grid], dtype=float)
    order = np.argsort(t)
    thresholds = t[order]
    # bounds[i]: the least r among the entries whose threshold ranks i or
    # later, the trailing inf standing for "no premise holds".  A lookup
    # lands past a whole run of tied thresholds, so their order is free.
    bounds = np.append(np.minimum.accumulate(r[order][::-1])[::-1], np.inf)

    def first_failure(rho, image_rho, table_backed: bool) -> Optional[tuple[int, float]]:
        i = np.searchsorted(thresholds, rho, side="right")
        bad = (i < len(thresholds)) & ~_strictly_less(
            np.asarray(image_rho), bounds[i], table_backed
        )
        if not bad.any():
            return None
        k = int(np.argmax(bad))
        return k, float(bounds[i[k]])

    return first_failure


def check_mk_space(
    space: DistanceSpace,
    order: OrderRelation,
    delta: MeirKeelerModulus,
    r_grid: Sequence[float],
) -> ConditionReport:
    """Literal form of the Meir-Keeler monotone condition as printed: for
    comparable x <= y and r in the grid, d(x,y) < r + delta(r) forces
    d(x,y) < r.  This constrains the space itself; the operator-image form
    lives in :func:`check_mk_operator`."""
    if not space.is_finite:
        raise UnsupportedInstanceError("literal MK check needs a finite carrier")
    if not r_grid:
        raise ValueError("r_grid must be nonempty")
    pairs = [(x, y) for x in space.points for y in space.points if order.leq(x, y)]
    d = [space.dist(x, y) for x, y in pairs]
    found = _binding_r(r_grid, delta)(d, d, space.table_backed)
    if found is not None:
        k, r = found
        clause = Clause("MK space condition", False, (*pairs[k], r))
        return ConditionReport("mk-space", "fail", [clause])
    return ConditionReport("mk-space", "pass", [Clause("MK space condition", True)])


def sample_comparable_pairs(
    lo: float,
    hi: float,
    lset: LSet,
    n: int,
    seed: int,
    max_step: Optional[float] = None,
) -> list[tuple[tuple, tuple]]:
    """Seeded sample of product-point pairs over [lo, hi]^m that are
    comparable under the twisted order (forward on L, backward elsewhere).

    Per pair and coordinate, x_i = uniform(lo, hi) and a step
    uniform(0, max_step) moves y_i up (on L) or down, clipped to the box; the
    floats are those of ``random.Random(seed).uniform`` draws in that order.
    """
    rng = random.Random(seed)
    max_step = (hi - lo) / 4 if max_step is None else max_step
    m = lset.m
    n = max(n, 0)  # a count of -1 would make fromiter read the endless stream
    # u[k, i] holds the two draws of pair k, coordinate i, in the order the
    # per-pair loop drew them (rng.random never returns None, so the iterator
    # is the endless stream of draws); uniform(a, b) is a + (b - a) * random().
    u = np.fromiter(iter(rng.random, None), float, count=2 * m * n).reshape(n, m, 2)
    x = u[:, :, 0]
    x *= hi - lo
    x += lo
    y = u[:, :, 1]
    y *= max_step
    forward = np.array([i in lset.members for i in range(1, m + 1)])
    np.add(x, y, out=y, where=forward)
    np.subtract(x, y, out=y, where=~forward)
    # min(b, hi) and max(b, lo) keep b unless the bound is strictly beyond it.
    np.copyto(y, hi, where=forward & (hi < y))
    np.copyto(y, lo, where=~forward & (lo > y))
    xs = x.ravel().tolist()
    ys = y.ravel().tolist()
    return list(zip(zip(*[iter(xs)] * m), zip(*[iter(ys)] * m)))


def check_mk_operator(
    space: DistanceSpace,
    order: OrderRelation,
    F: MultiOperator,
    family: LambdaFamily,
    lset: LSet,
    delta: MeirKeelerModulus,
    kind: ProductKind,
    pairs: Optional[Sequence[tuple]] = None,
    r_grid: Optional[Sequence[float]] = None,
    seed: Optional[int] = None,
) -> ConditionReport:
    """Operator-image Meir-Keeler condition: for comparable pairs and every
    grid r with rho(x, y) < r + delta(r), the images satisfy
    rho(lambdaF(x), lambdaF(y)) < r.

    Finite instances with no explicit sample are exhausted and may report
    "pass"; supplied samples yield at most "sampled-pass".
    """
    table = space.table_backed and kind is ProductKind.SUP
    if pairs is None:
        failure, samples = _mk_operator_exhaustive(
            space, order, F, family, lset, delta, kind, r_grid, table
        )
    else:
        if not pairs:
            raise ValueError("no comparable pairs to check")
        measured = np.fromiter(
            _pair_distances(space, F, family, kind, pairs),
            np.dtype((float, 2)),
            count=len(pairs),
        )
        d, d_img = measured[:, 0], measured[:, 1]
        if r_grid is None:
            r_grid = np.unique(d[d > 0]).tolist() or [1.0]
        found = _binding_r(r_grid, delta)(d, d_img, table)
        failure = None if found is None else (*pairs[found[0]], found[1])
        samples = len(pairs)
    if failure is not None:
        clause = Clause("MK operator condition", False, failure)
        return ConditionReport("mk-operator", "fail", [clause], seed=seed, samples=samples)
    return ConditionReport(
        "mk-operator",
        "pass" if pairs is None else "sampled-pass",
        [Clause("MK operator condition", True)],
        seed=seed,
        samples=samples,
    )


def _pair_distances(
    space: DistanceSpace,
    F: MultiOperator,
    family: LambdaFamily,
    kind: ProductKind,
    pairs: Sequence[tuple],
) -> Iterator[tuple[float, float]]:
    """Yield (rho(x, y), rho(lambdaF(x), lambdaF(y))) per supplied pair, each
    pair's arity checked on entry as sup_distance and apply_lambda_f do."""
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


def _mk_operator_exhaustive(
    space: DistanceSpace,
    order: OrderRelation,
    F: MultiOperator,
    family: LambdaFamily,
    lset: LSet,
    delta: MeirKeelerModulus,
    kind: ProductKind,
    r_grid: Optional[Sequence[float]],
    table_backed: bool,
) -> tuple[Optional[tuple], int]:
    """(first failing (x, y, r) or None, number of comparable pairs) over every
    comparable pair, equal pairs included.  The auto r grid is the set of
    distinct positive pair distances."""
    kernel = ProductKernel(space, lset.m)
    O = kernel.order_matrix(order)
    samples = 0
    distances = []
    for xs, ys in kernel.comparable_pairs(O, lset, include_equal=True):
        samples += len(xs)
        if r_grid is None:
            d = kernel.distance(kind, xs, ys)
            distances.append(np.unique(d[d > 0]))
    if not samples:
        raise ValueError("no comparable pairs to check")
    image = kernel.image(F, family)
    if r_grid is None:
        r_grid = np.unique(np.concatenate(distances)).tolist() or [1.0]
    first_failure = _binding_r(r_grid, delta)
    for xs, ys in kernel.comparable_pairs(O, lset, include_equal=True):
        d = kernel.distance(kind, xs, ys)
        d_img = kernel.distance(kind, image[xs], image[ys])
        found = first_failure(d, d_img, table_backed)
        if found is not None:
            k, r = found
            return (kernel.point(xs[k]), kernel.point(ys[k]), r), samples
    return None, samples


def check_mk(
    space: DistanceSpace,
    order: OrderRelation,
    F: MultiOperator,
    family: LambdaFamily,
    lset: LSet,
    delta: MeirKeelerModulus,
    variant: int,
    r_grid: Optional[Sequence[float]] = None,
) -> ConditionReport:
    """Composite MK condition set: pair bounds, the literal space condition,
    and the isotone (variant 1) or antitone (variant 2) image-order clause."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    name = f"mk{variant}"
    clauses: list[Clause] = []

    bounds = check_bounds_exist(order)
    clauses.append(bounds.clauses[0])
    if bounds.verdict == "fail":
        return ConditionReport(name, "fail", clauses)

    if r_grid is None:
        r_grid = sorted(
            {
                space.dist(x, y)
                for x in space.points
                for y in space.points
                if space.dist(x, y) > 0
            }
        ) or [1.0]
    mk_space = check_mk_space(space, order, delta, r_grid)
    clauses.append(mk_space.clauses[0])
    if mk_space.verdict == "fail":
        return ConditionReport(name, "fail", clauses)

    isotone = variant == 1
    kernel = ProductKernel(space, lset.m)
    O = kernel.order_matrix(order)
    image = kernel.image(F, family)
    for xs, ys in kernel.comparable_pairs(O, lset, include_equal=True):
        fx, fy = image[xs], image[ys]
        ordered = kernel.leq_L(O, lset, fx, fy) if isotone else kernel.leq_L(O, lset, fy, fx)
        if not ordered.all():
            k = int(np.argmin(ordered))
            witness = (kernel.point(xs[k]), kernel.point(ys[k]))
            clauses.append(Clause("image order", False, witness))
            return ConditionReport(name, "fail", clauses)
    clauses.append(Clause("image order", True))
    return ConditionReport(name, "pass", clauses)
