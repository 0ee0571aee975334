"""Partial orders on finite carriers and the L-twisted order on product
tuples.  A box carrier is ordered by the usual ``<=`` and has no order
object."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ._numpy import np

Point = Any


class OrderRelation:
    """Decidable partial order on a finite set of points: a closed boolean
    matrix.

    Relations are built from generating pairs over distinct labels; the
    reflexive-transitive closure is taken and antisymmetry of the closed
    relation is validated, so callers may supply covering pairs only.  Entry
    ``(i, j)`` of the matrix says ``points[i] <= points[j]``.  A box carrier
    has no order object.
    """

    def __init__(self, points: Sequence[Point], matrix: np.ndarray):
        self.points = tuple(points)
        self._matrix = matrix
        self._index = {p: i for i, p in enumerate(self.points)}

    @classmethod
    def from_pairs(
        cls, points: Sequence[Point], pairs: Iterable[tuple[Point, Point]]
    ) -> "OrderRelation":
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise ValueError("order labels must be distinct")
        rel = np.eye(len(points), dtype=bool)
        for a, b in pairs:
            for p in (a, b):
                if p not in index:
                    raise ValueError(f"order references unknown point {p!r}")
            rel[index[a], index[b]] = True
        # transitive closure (Warshall): the rows reaching k take k's row
        for k in range(len(points)):
            rel[rel[:, k]] |= rel[k]
        cycle = np.argwhere(np.triu(rel & rel.T, 1))
        if cycle.size:
            a, b = (points[i] for i in cycle[0].tolist())
            raise ValueError(f"relation is not antisymmetric: {a!r} ~ {b!r}")
        return cls(points, rel)

    def matrix(self, labels: Sequence[Point]) -> np.ndarray:
        """The order re-indexed to ``labels``: entry ``(i, j)`` says
        ``labels[i] <= labels[j]``.  Every label must be in the order."""
        try:
            rows = [self._index[p] for p in labels]
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} is not in the order") from None
        return self._matrix[np.ix_(rows, rows)]


def chain_order(points: Sequence[Point]) -> OrderRelation:
    """Total order listing points from bottom to top."""
    pairs = [(points[i], points[i + 1]) for i in range(len(points) - 1)]
    return OrderRelation.from_pairs(points, pairs)


@dataclass(frozen=True)
class LSet:
    """Index subset L of {1..m} steering the twisted product order.

    Coordinates with index in L compare forward, the rest backward; the
    complement M yields the dual order.
    """

    m: int
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("arity must be at least 1")
        if not set(self.members) <= set(range(1, self.m + 1)):
            raise ValueError(f"L must be a subset of 1..{self.m}")
        object.__setattr__(self, "members", frozenset(self.members))

    @classmethod
    def of(cls, m: int, *indices: int) -> "LSet":
        return cls(m, frozenset(indices))

    @property
    def forward(self) -> tuple[bool, ...]:
        """Per coordinate, whether ``<=_L`` compares it forward (it is in L)."""
        return tuple(i in self.members for i in range(1, self.m + 1))

    def orient(self, O: np.ndarray) -> list[np.ndarray]:
        """Per coordinate, the order matrix that decides it under ``<=_L``:
        ``O`` on L coordinates, its transpose elsewhere."""
        return [O if f else O.T for f in self.forward]

    def complement(self) -> "LSet":
        return LSet(self.m, frozenset(range(1, self.m + 1)) - self.members)
