"""Product distances on X^m: the sup distance, the sum distance, and the
executable forms of their closure/equivalence properties."""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Sequence

import numpy as np

from .errors import CapacityError, UnsupportedInstanceError
from .spaces import DistanceSpace

DEFAULT_CAP = 10**6


def materialization_cap() -> int:
    """Carrier-size cap for materialized products (env MULTIFIX_CAP overrides)."""
    value = os.environ.get("MULTIFIX_CAP")
    return int(value) if value else DEFAULT_CAP


class ProductKind(Enum):
    SUP = "sup"
    SUM = "sum"


def check_pair_arity(x: Sequence, y: Sequence) -> None:
    """Raise ValueError unless x and y are product points of one arity >= 1."""
    if len(x) != len(y):
        raise ValueError(f"arity mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("product points must have arity >= 1")


def _sup(dist, x: Sequence, y: Sequence) -> float:
    return max(map(dist, x, y))


def _sum(dist, x: Sequence, y: Sequence) -> float:
    # Left to right: the builtin ``sum`` rounds differently from Python 3.12 on.
    return functools.reduce(operator.add, map(dist, x, y))


def sup_distance(space: DistanceSpace, x: Sequence, y: Sequence) -> float:
    """Coordinatewise maximum of base distances."""
    check_pair_arity(x, y)
    return _sup(space.dist, x, y)


def sum_distance(space: DistanceSpace, x: Sequence, y: Sequence) -> float:
    """Coordinatewise sum of base distances, added left to right."""
    check_pair_arity(x, y)
    return _sum(space.dist, x, y)


def bind_distance(space: DistanceSpace, kind: ProductKind):
    """The product distance as ``(x, y) -> float`` without per-call checks,
    for loops that check each point entering from outside once with
    :func:`check_pair_arity`."""
    return functools.partial(_sup if kind is ProductKind.SUP else _sum, space.dist)


def product_distance(space: DistanceSpace, kind: ProductKind):
    if kind is ProductKind.SUP:
        return lambda x, y: sup_distance(space, x, y)
    return lambda x, y: sum_distance(space, x, y)


def product_size(space: DistanceSpace, m: int, cap: Optional[int] = None) -> int:
    """|X|^m for a finite carrier, refused above the materialization cap."""
    if not space.is_finite:
        raise UnsupportedInstanceError("cannot enumerate a continuous carrier")
    cap = materialization_cap() if cap is None else cap
    size = len(space.points) ** m
    if size > cap:
        raise CapacityError(size, cap)
    return size


def product_points(space: DistanceSpace, m: int, cap: Optional[int] = None) -> list:
    """All m-tuples over a finite carrier, in canonical (lexicographic) order."""
    product_size(space, m, cap)
    return list(itertools.product(space.points, repeat=m))


def product_space(
    space: DistanceSpace, m: int, kind: ProductKind, cap: Optional[int] = None
) -> DistanceSpace:
    """The m-fold product space under the chosen product distance.

    Finite carriers are materialized when |X|^m fits under the cap and kept
    lazy (membership-only) otherwise.  Sum distances are computed reals even
    over tables, so only the sup product inherits exact table comparisons.
    """
    if m < 1:
        raise ValueError("arity must be at least 1")
    dist = product_distance(space, kind)
    table_backed = space.table_backed and kind is ProductKind.SUP

    def contains(p: Any) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == m
            and all(space.contains(c) for c in p)
        )

    points = None
    matrix = None
    if space.is_finite:
        cap_val = materialization_cap() if cap is None else cap
        if len(space.points) ** m <= cap_val:
            points = product_points(space, m, cap_val)
            matrix = _product_matrix(space.matrix(), m, kind)
            index = {p: i for i, p in enumerate(points)}
            coordinate_dist = dist

            def dist(x, y, _idx=index, _mat=matrix, _fallback=coordinate_dist):
                i = _idx.get(x)
                j = _idx.get(y)
                if i is None or j is None:
                    return _fallback(x, y)
                return float(_mat[i, j])

    return DistanceSpace(
        dist,
        points=points,
        contains=contains,
        completeness_assumed=space.completeness_assumed,
        table_backed=table_backed,
        matrix=matrix,
    )


def _product_matrix(D: np.ndarray, m: int, kind: ProductKind) -> np.ndarray:
    """Product distance matrix over m-tuples, ordered like product_points."""
    n = D.shape[0]
    out = D
    for _ in range(m - 1):
        N = out.shape[0]
        left = out[:, None, :, None]
        right = D[None, :, None, :]
        combined = np.maximum(left, right) if kind is ProductKind.SUP else left + right
        out = combined.reshape(N * n, N * n)
    return out


def product_matrices(space: DistanceSpace, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Sup and sum product distance matrices over the materialized carrier.

    Row/column order matches :func:`product_points`.
    """
    D = space.matrix()
    return _product_matrix(D, m, ProductKind.SUP), _product_matrix(D, m, ProductKind.SUM)


@dataclass
class EquivalenceReport:
    """Outcome of the sup/sum sandwich check d^m <= dbar^m <= m * d^m."""

    passed: bool
    pairs_checked: int
    counterexample: Optional[tuple] = None

    def __str__(self) -> str:
        if self.passed:
            return f"pass ({self.pairs_checked} pairs)"
        return f"fail at pair {self.counterexample}"


def check_uniform_equivalence(
    space: DistanceSpace, m: int, sample: Optional[Sequence[tuple]] = None
) -> EquivalenceReport:
    """Verify the sandwich inequality on sampled pairs (or exhaustively).

    ``sample`` is a sequence of (x, y) product-point pairs; omit it on finite
    carriers to check every pair of the materialized product.
    """
    if sample is None:
        sup, tot = product_matrices(space, m)
        ok = bool(np.all(sup <= tot) and np.all(tot <= m * sup))
        if ok:
            return EquivalenceReport(True, sup.size)
        bad = np.argwhere(~((sup <= tot) & (tot <= m * sup)))
        i, j = map(int, bad[0])
        pts = product_points(space, m)
        return EquivalenceReport(False, sup.size, (pts[i], pts[j]))
    if len(sample) == 0:
        raise ValueError("sample must be nonempty")
    for x, y in sample:
        lo = sup_distance(space, x, y)
        hi = sum_distance(space, x, y)
        if not (lo <= hi <= m * lo):
            return EquivalenceReport(False, len(sample), (x, y))
    return EquivalenceReport(True, len(sample))


@dataclass
class CompletenessReport:
    """Monotone-completeness surrogate verdict."""

    complete: bool
    assumed: bool

    def __str__(self) -> str:
        tag = " (assumed)" if self.assumed else ""
        return f"complete={'true' if self.complete else 'false'}{tag}"


def check_monotone_complete_surrogate(space: DistanceSpace) -> CompletenessReport:
    """Finite carriers are monotonically complete outright (a Cauchy prefix is
    eventually constant); continuous carriers return their declared flag."""
    if space.is_finite:
        return CompletenessReport(True, False)
    return CompletenessReport(space.completeness_assumed, True)


def format_product_point(p: Sequence) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"
