"""Integer coding of a finite instance for the exhaustive pair checks.

Carrier points become indices ``0..n-1`` and the product ``X^m`` becomes the
``(N, m)`` array of index tuples, in :func:`product_points` order, so a
product point is one integer in ``0..N-1``.  The order comes as one closed
``n x n`` boolean matrix per coordinate, the carrier's order or its
transpose as :meth:`LSet.orient` gives them, the distance is the base
``n x n`` matrix, and ``lambdaF`` one index map over the ``N`` tuples.

Comparable pairs under ``<=_L`` come out in row blocks of about
``BLOCK_ENTRIES`` candidate pairs, in canonical order (``x`` in product
order, then ``y``), so memory stays ``O(block x N)`` and never ``O(N^2)``.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import EvaluationError
from .operators import LambdaFamily, MultiOperator, check_lambda_arity
from .product import ProductKind, combine, product_size
from .spaces import DistanceSpace

# Candidate (x, y) pairs tested per block: 1 MB of booleans.
BLOCK_ENTRIES = 1 << 20
# Sampled pairs of a continuous carrier evaluated per block: each coordinate
# column is an object array of this many Python floats.
SAMPLE_BLOCK = 1 << 13


class ProductKernel:
    """The finite product ``X^m`` of one space, coded as integers.

    Raises what :func:`product_points` raises on the same arguments: an
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
        index = {label: i for i, label in enumerate(self.labels)}
        values = np.zeros(self.size, dtype=np.intp)
        for k in needed[np.argsort(first)]:
            arg = self.point(k)
            value = F(*arg)
            if value not in index:
                raise EvaluationError(
                    f"operator value {value!r} at {arg} is outside the carrier"
                )
            values[k] = index[value]
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
        N = self.size
        every = np.arange(N)
        height = max(1, BLOCK_ENTRIES // max(N, 1))
        for start in range(0, N, height):
            rows = np.arange(start, min(start + height, N))
            mask = self.leq_L(orders, rows[:, None], every[None, :])
            if not include_equal:
                mask[np.arange(len(rows)), rows] = False
            r, c = np.nonzero(mask)
            if len(r):
                yield rows[r], c

    def distance(self, kind: ProductKind, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Product distances of index pairs, combined as :func:`combine` does."""
        c = self.coords
        return combine(kind, (self.D[c[xs, i], c[ys, i]] for i in range(self.m)))
