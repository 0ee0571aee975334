"""Multi-argument operators F: X^m -> X, index families, and the induced
self-map on X^m whose fixed points are the multiple fixed points of F."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .errors import EvaluationError
from .product import sum_distance
from .spaces import DistanceSpace

Point = Any


@dataclass(frozen=True)
class LambdaFamily:
    """m index maps {1..m} -> {1..m}, one per output coordinate.

    Row i lists, 1-based, which input coordinate feeds each argument slot of
    F when producing output coordinate i.
    """

    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.m:
            raise ValueError(f"expected {self.m} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.m:
                raise ValueError(f"row {row} must have length {self.m}")
            if any(not 1 <= v <= self.m for v in row):
                raise ValueError(f"row {row} has entries outside 1..{self.m}")

    @classmethod
    def identity(cls, m: int) -> "LambdaFamily":
        return cls(m, tuple(tuple(range(1, m + 1)) for _ in range(m)))


def coupled_preset() -> LambdaFamily:
    """m=2 family giving (x, y) -> (F(x, y), F(y, x))."""
    return LambdaFamily(2, ((1, 2), (2, 1)))


def tripled_preset() -> LambdaFamily:
    """m=3 family giving (x, y, z) -> (F(x, y, z), F(y, x, y), F(z, y, x))."""
    return LambdaFamily(3, ((1, 2, 3), (2, 1, 2), (3, 2, 1)))


class MultiOperator:
    """Evaluable map X^m -> X: a complete lookup table or a formula."""

    def __init__(self, m: int, func: Callable[..., Point]):
        if m < 1:
            raise ValueError("arity must be at least 1")
        self.m = m
        self._func = func

    def __call__(self, *args: Point) -> Point:
        if len(args) != self.m:
            raise ValueError(f"operator takes {self.m} arguments, got {len(args)}")
        return self._func(*args)

    @classmethod
    def from_table(
        cls,
        m: int,
        table: Mapping[tuple, Point],
        carrier: Sequence[Point],
    ) -> "MultiOperator":
        """Finite operator table keyed by argument tuples over ``carrier``,
        validated up front: complete, and with every value in the carrier.
        An argument tuple outside the carrier is an evaluation error."""
        table = dict(table)
        for key in itertools.product(carrier, repeat=m):
            if key not in table:
                raise EvaluationError(f"operator table missing entry for {key}")
        points = set(carrier)
        for key, value in table.items():
            if value not in points:
                raise EvaluationError(f"operator value {value!r} at {key} is outside the carrier")

        def func(*args: Point) -> Point:
            try:
                return table[args]
            except KeyError:
                raise EvaluationError(f"operator table missing entry for {args}")

        return cls(m, func)

    @classmethod
    def constant(cls, m: int, value: Point) -> "MultiOperator":
        return cls(m, lambda *args: value)


class ElementwiseOperator(MultiOperator):
    """A formula whose call on float64 arrays gives, element by element, the
    floats the same call gives on Python floats, so a whole column of
    arguments can be evaluated in one call.  A constant formula returns its
    one value, which the caller broadcasts."""


def check_lambda_arity(F: MultiOperator, family: LambdaFamily, x: Sequence[Point]) -> None:
    """Raise ValueError unless F, the family and the point x share one arity."""
    if F.m != family.m or len(x) != family.m:
        raise ValueError(
            f"arity mismatch: operator {F.m}, family {family.m}, point {len(x)}"
        )


def bind_lambda_f(F: MultiOperator, family: LambdaFamily) -> Callable[[Sequence[Point]], tuple]:
    """The induced self-map on X^m as one callable ``x -> tuple``.

    Output coordinate i is F evaluated on the row-i rearrangement of x.  The
    operator and family arities are checked here, once; the map itself
    checks nothing, so loops call :func:`check_lambda_arity` on each point
    that enters from outside and feed it only points of that arity.
    """
    if F.m != family.m:
        raise ValueError(f"arity mismatch: operator {F.m}, family {family.m}")
    f = F._func
    if family.m == 1:  # a one-index itemgetter returns the item, not a tuple
        return lambda x: (f(x[0]),)
    rows = [operator.itemgetter(*(j - 1 for j in row)) for row in family.rows]
    return lambda x: tuple([f(*row(x)) for row in rows])


def apply_lambda_f(
    F: MultiOperator, family: LambdaFamily, x: Sequence[Point]
) -> tuple:
    """One application of the induced self-map on X^m."""
    check_lambda_arity(F, family, x)
    return bind_lambda_f(F, family)(x)


@dataclass(frozen=True)
class FixedPointCertificate:
    """Residual-based verdict for a candidate multiple fixed point."""

    point: tuple
    residual: float
    accepted: bool


def is_multiple_fixed_point(
    space: DistanceSpace,
    F: MultiOperator,
    family: LambdaFamily,
    a: Sequence[Point],
    tol: float = 0.0,
) -> FixedPointCertificate:
    """Check a = lambdaF(a) up to ``tol`` in the sum product distance.

    tol = 0 demands an exact fixed point (the natural choice on finite
    carriers).
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    a = tuple(a)
    image = apply_lambda_f(F, family, a)
    residual = sum_distance(space, a, image)
    return FixedPointCertificate(
        point=a,
        residual=residual,
        accepted=residual <= tol,
    )


@dataclass(frozen=True)
class SurjectivityReport:
    """Per-row surjectivity data for a lambda family.

    The literal union-of-preimages cardinality is m for every total map (the
    preimages partition the domain), so it is not reported; checkers rely on
    per-row surjectivity or on the union of row images instead.
    """

    rows_surjective: tuple[bool, ...]
    union_of_images_full: bool


def surjectivity_report(family: LambdaFamily) -> SurjectivityReport:
    full = set(range(1, family.m + 1))
    images = [set(row) for row in family.rows]
    return SurjectivityReport(
        rows_surjective=tuple(img == full for img in images),
        union_of_images_full=set().union(*images) == full,
    )
