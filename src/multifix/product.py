"""Product distances on X^m: the sup distance and the sum distance, as
scalars over points and as arrays over per-coordinate distances."""

from __future__ import annotations

import functools
import operator
import os
from enum import Enum
from typing import Iterable, Sequence

from ._numpy import np
from .errors import CapacityError, UnsupportedInstanceError
from .spaces import COMPUTED_ATOL, DistanceSpace

DEFAULT_CAP = 10**6


def materialization_cap() -> int:
    """Carrier-size cap for materialized products: the positive integer in
    env MULTIFIX_CAP when it is set and nonempty, else ``DEFAULT_CAP``."""
    value = os.environ.get("MULTIFIX_CAP")
    if not value:
        return DEFAULT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MULTIFIX_CAP must be a positive integer, got {value!r}")
    return cap


class ProductKind(Enum):
    SUP = "sup"
    SUM = "sum"


def check_pair_arity(x: Sequence, y: Sequence) -> None:
    """Raise ValueError unless x and y are product points of one arity >= 1."""
    if len(x) != len(y):
        raise ValueError(f"arity mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("product points must have arity >= 1")


def _sup_step(total, column):
    return np.where(column > total, column, total)


def combine(kind: ProductKind, columns: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise product distance of per-coordinate distance arrays: the
    sup keeps the first of equal maxima as ``max`` does (NaN included), and
    the sum adds in coordinate order as :func:`sum_distance` does."""
    return functools.reduce(_sup_step if kind is ProductKind.SUP else operator.add, columns)


def product_atol(space: DistanceSpace, kind: ProductKind) -> float:
    """Margin for strict tests on product distances: 0 for the sup over a
    finite table, which keeps its entries, and ``COMPUTED_ATOL`` for the sum,
    whose values are computed reals even over a table, and for a box."""
    return 0.0 if space.is_finite and kind is ProductKind.SUP else COMPUTED_ATOL


def _sup(dist, x: Sequence, y: Sequence) -> float:
    return max(map(dist, x, y))


def _sum(dist, x: Sequence, y: Sequence) -> float:
    # Left to right: the builtin ``sum`` rounds differently from Python 3.12 on.
    return functools.reduce(operator.add, map(dist, x, y))


def sum_distance(space: DistanceSpace, x: Sequence, y: Sequence) -> float:
    """Coordinatewise sum of base distances, added left to right."""
    check_pair_arity(x, y)
    return _sum(space.dist, x, y)


def bind_distance(space: DistanceSpace, kind: ProductKind):
    """The product distance as ``(x, y) -> float`` without per-call checks,
    for loops that check each point entering from outside once with
    :func:`check_pair_arity`."""
    return functools.partial(_sup if kind is ProductKind.SUP else _sum, space.dist)


def product_size(space: DistanceSpace, m: int) -> int:
    """|X|^m for a finite carrier, refused above the materialization cap."""
    if not space.is_finite:
        raise UnsupportedInstanceError("cannot enumerate a continuous carrier")
    cap = materialization_cap()
    size = len(space.points) ** m
    if size > cap:
        raise CapacityError(size, cap)
    return size


def format_product_point(p: Sequence) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"
