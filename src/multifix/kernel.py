"""One problem instance, and on a finite carrier its integer coding for the
exhaustive pair checks.

Carrier points become indices ``0..n-1`` and the product ``X^m`` becomes one
index array per coordinate, in canonical (lexicographic) order, so a product
point is one integer in ``0..N-1``.  The order comes as one closed ``n x n``
boolean matrix per coordinate, the carrier's order or its transpose as
:meth:`LSet.orient` gives them, the distance is the base ``n x n`` matrix,
and ``lambdaF`` one index map over the ``N`` tuples.

``<=_L`` is a product relation, so the ``y`` comparable to ``x`` are the
Cartesian product of the per-coordinate comparable sets of ``x_i``.  The
comparable pairs are enumerated from those sets, with no candidate mask: rows
``x`` are cut into blocks of about ``PAIR_BLOCK`` emitted pairs, and each
pair's ``y`` is decoded from its rank within its row as a mixed-radix number
over the sorted sets.  They come out in canonical order (``x`` in product
order, then ``y``), and memory stays ``O(PAIR_BLOCK + N)`` pairs.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional

from ._numpy import np
from .errors import EvaluationError
from .operators import LambdaFamily, MultiOperator, check_lambda_arity
from .orders import LSet, OrderRelation
from .product import ProductKind, combine, product_size
from .spaces import DistanceSpace

# Comparable (x, y) pairs emitted per block; a row with more pairs than this
# is a block of its own.
PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class Instance:
    """One problem instance.  Its index columns, oriented orders and lambdaF
    image are built on first use and kept, so every check of the instance
    shares them; a box carrier reads none of the three.

    A finite carrier's order is a partial order on exactly its labels, or
    None for the oracle, which alone reads none (:meth:`require_order`); a
    box, ordered by the usual ``<=``, has no order object.  Any other order
    is refused with a :class:`ValueError` naming the first offending label.

    The columns raise what :func:`product_size` raises on the same
    arguments: an :class:`UnsupportedInstanceError` for a continuous carrier
    and a :class:`CapacityError` above the materialization cap.  The orders
    and the image read the columns first, so those errors come before any
    other.
    """

    space: DistanceSpace
    order: Optional[OrderRelation]
    F: MultiOperator
    family: LambdaFamily
    lset: LSet

    def __post_init__(self):
        if self.order is None:
            return
        if not self.space.is_finite:
            raise ValueError("a box is ordered by <= and takes no order object")
        carrier, ordered = set(self.space.points), set(self.order.points)
        for label in self.space.points:
            if label not in ordered:
                raise ValueError(f"carrier label {label!r} is not in the order")
        for label in self.order.points:
            if label not in carrier:
                raise ValueError(f"order label {label!r} is not in the carrier")

    def require_order(self) -> Optional[OrderRelation]:
        """The order: None on a box, refused on a finite carrier without one."""
        if self.order is None and self.space.is_finite:
            raise ValueError("the instance has no order: only enumeration runs without one")
        return self.order

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """Per coordinate, the carrier index of every product point."""
        size = product_size(self.space, self.lset.m)
        return np.unravel_index(np.arange(size), (len(self.space.points),) * self.lset.m)

    @property
    def size(self) -> int:
        return len(self.columns[0])

    def point(self, k) -> tuple:
        """Decode product index ``k`` to its tuple of carrier labels."""
        return tuple(self.space.points[c[k]] for c in self.columns)

    @functools.cached_property
    def orders(self) -> list[np.ndarray]:
        self.columns  # refuse a box or an oversized product first
        return self.lset.orient(self.require_order().matrix(self.space.points))

    @functools.cached_property
    def image(self) -> np.ndarray:
        """lambdaF as an index map: ``image[k]`` codes lambdaF(point(k)).

        F is called once per distinct argument tuple, in the order a
        point-by-point sweep would first need it.
        """
        columns, labels = self.columns, self.space.points
        check_lambda_arity(self.F, self.family, columns)
        shape = (len(labels),) * len(columns)
        # args[k, i] codes the argument tuple of F for output coordinate i.
        args = np.stack(
            [
                np.ravel_multi_index(tuple(columns[j - 1] for j in row), shape)
                for row in self.family.rows
            ],
            axis=1,
        )
        needed, first = np.unique(args, return_index=True)
        needed = needed[np.argsort(first)]
        # The argument tuples' labels, decoded in one array lookup per
        # coordinate and zipped into tuples.
        label_array = np.fromiter(labels, dtype=object, count=len(labels))
        code = {label: i for i, label in enumerate(labels)}.get
        coded = []
        for arg in zip(*(label_array[c[needed]].tolist() for c in columns)):
            value = self.F(*arg)
            i = code(value)
            if i is None:
                raise EvaluationError(
                    f"operator value {value!r} at {arg} is outside the carrier"
                )
            coded.append(i)
        values = np.zeros(self.size, dtype=np.intp)
        values[needed] = coded
        return np.ravel_multi_index(tuple(values[args].T), shape)

    def leq_L(self, xs, ys) -> np.ndarray:
        """Elementwise ``x <=_L y`` over broadcastable arrays of product
        indices."""
        return functools.reduce(
            operator.and_, (Oi[c[xs], c[ys]] for Oi, c in zip(self.orders, self.columns))
        )

    def comparable_pairs(self, include_equal: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks ``(xs, ys)`` of comparable pairs ``x <=_L y``, in canonical
        order."""
        orders, columns = self.orders, self.columns
        n, m = len(self.space.points), len(columns)
        # Coordinate i: the true columns of each row of orders[i], ascending
        # and flattened row after row, times coordinate i's stride in the
        # product index, so that y is the sum of its coordinates' terms; and
        # each row's count and offset into that flat array.
        terms = [np.nonzero(Oi)[1] * n ** (m - 1 - i) for i, Oi in enumerate(orders)]
        counts = [Oi.sum(axis=1) for Oi in orders]
        offsets = [np.cumsum(ci) - ci for ci in counts]
        per_row = functools.reduce(operator.mul, (ci[c] for ci, c in zip(counts, columns)))
        ends = np.cumsum(per_row)
        start = 0
        while start < self.size:
            # Rows start..stop-1 hold at most PAIR_BLOCK pairs, or are one row.
            before = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, before + PAIR_BLOCK, side="right")), start + 1)
            sizes = per_row[start:stop]
            xs = np.repeat(np.arange(start, stop), sizes)
            # Each pair's rank within its row is y as a mixed-radix number
            # over the sorted sets, the last coordinate least significant.
            rank = np.arange(len(xs)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            ys = np.zeros(len(xs), dtype=np.intp)
            for i in reversed(range(m)):
                xi = columns[i][start:stop]
                rank, digit = np.divmod(rank, np.repeat(counts[i][xi], sizes))
                ys += terms[i][np.repeat(offsets[i][xi], sizes) + digit]
            if not include_equal:
                keep = xs != ys
                xs, ys = xs[keep], ys[keep]
            if len(xs):
                yield xs, ys
            start = stop

    def distance(self, kind: ProductKind, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Product distances of index pairs, combined as :func:`combine` does."""
        D = self.space.matrix()
        return combine(kind, (D[c[xs], c[ys]] for c in self.columns))
