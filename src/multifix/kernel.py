"""Integer coding of a finite instance for the exhaustive pair checks.

Carrier points become indices ``0..n-1`` and the product ``X^m`` becomes the
``(N, m)`` array of index tuples, in canonical (lexicographic) order, so a
product point is one integer in ``0..N-1``.  The order comes as one closed
``n x n`` boolean matrix per coordinate, the carrier's order or its
transpose as :meth:`LSet.orient` gives them, the distance is the base
``n x n`` matrix, and ``lambdaF`` one index map over the ``N`` tuples.

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
from typing import Iterator, Optional, Sequence

from ._numpy import np
from .errors import EvaluationError
from .operators import LambdaFamily, MultiOperator, check_lambda_arity
from .orders import LSet, OrderRelation
from .product import ProductKind, combine, product_size
from .spaces import DistanceSpace

# Comparable (x, y) pairs emitted per block; a row with more pairs than this
# is a block of its own.
PAIR_BLOCK = 1 << 14


class ProductKernel:
    """The finite product ``X^m`` of one space, coded as integers.

    Raises what :func:`product_size` raises on the same arguments: an
    :class:`UnsupportedInstanceError` for a continuous carrier and a
    :class:`CapacityError` above the materialization cap.
    """

    def __init__(self, space: DistanceSpace, m: int):
        size = product_size(space, m)
        self.labels = space.points
        self.n = len(self.labels)
        self.m = m
        self.shape = (self.n,) * m
        self.coords = np.stack(np.unravel_index(np.arange(size), self.shape), axis=1)
        self.D = space.matrix()

    @property
    def size(self) -> int:
        return len(self.coords)

    def point(self, k) -> tuple:
        """Decode product index ``k`` to its tuple of carrier labels."""
        return tuple(self.labels[c] for c in self.coords[k])

    def image(self, F: MultiOperator, family: LambdaFamily) -> np.ndarray:
        """lambdaF as an index map: ``image[k]`` codes lambdaF(point(k)).

        F is called once per distinct argument tuple, in the order a
        point-by-point sweep would first need it.
        """
        check_lambda_arity(F, family, self.shape)
        # args[k, i] codes the argument tuple of F for output coordinate i.
        args = np.stack(
            [
                np.ravel_multi_index(tuple(self.coords[:, j - 1] for j in row), self.shape)
                for row in family.rows
            ],
            axis=1,
        )
        needed, first = np.unique(args, return_index=True)
        needed = needed[np.argsort(first)]
        # The argument tuples' labels, decoded in one array lookup and
        # zipped from per-coordinate columns into tuples.
        labels = np.fromiter(self.labels, dtype=object, count=self.n)
        code = {label: i for i, label in enumerate(self.labels)}.get
        coded = []
        for arg in zip(*labels[self.coords[needed]].T.tolist()):
            value = F(*arg)
            i = code(value)
            if i is None:
                raise EvaluationError(
                    f"operator value {value!r} at {arg} is outside the carrier"
                )
            coded.append(i)
        values = np.zeros(self.size, dtype=np.intp)
        values[needed] = coded
        image_coords = values[args]
        return np.ravel_multi_index(tuple(image_coords.T), self.shape)

    def leq_L(self, orders: Sequence[np.ndarray], xs, ys) -> np.ndarray:
        """Elementwise ``x <=_L y`` over broadcastable arrays of product
        indices, ``orders[i]`` deciding coordinate ``i``."""
        c = self.coords
        return functools.reduce(
            operator.and_, (Oi[c[xs, i], c[ys, i]] for i, Oi in enumerate(orders))
        )

    def comparable_pairs(
        self, orders: Sequence[np.ndarray], include_equal: bool
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks ``(xs, ys)`` of comparable pairs ``x <=_L y``, in canonical
        order."""
        # Coordinate i: the true columns of each row of orders[i], ascending
        # and flattened row after row, times coordinate i's stride in the
        # product index, so that y is the sum of its coordinates' terms; and
        # each row's count and offset into that flat array.
        terms = [
            np.nonzero(Oi)[1] * self.n ** (self.m - 1 - i) for i, Oi in enumerate(orders)
        ]
        counts = [Oi.sum(axis=1) for Oi in orders]
        offsets = [np.cumsum(ci) - ci for ci in counts]
        c = self.coords
        per_row = functools.reduce(
            operator.mul, (ci[c[:, i]] for i, ci in enumerate(counts))
        )
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
            for i in reversed(range(self.m)):
                xi = c[start:stop, i]
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
        c = self.coords
        return combine(kind, (self.D[c[xs, i], c[ys, i]] for i in range(self.m)))


@dataclass(frozen=True)
class Instance:
    """One problem instance.  Its product kernel, oriented orders and lambdaF
    image are built on first use and kept, so every check of the instance
    shares them; a box carrier reads none of the three."""

    space: DistanceSpace
    order: Optional[OrderRelation]
    F: MultiOperator
    family: LambdaFamily
    lset: LSet

    @functools.cached_property
    def kernel(self) -> ProductKernel:
        return ProductKernel(self.space, self.lset.m)

    @functools.cached_property
    def orders(self) -> list[np.ndarray]:
        return self.lset.orient(self.order.matrix(self.kernel.labels))

    @functools.cached_property
    def image(self) -> np.ndarray:
        return self.kernel.image(self.F, self.family)
