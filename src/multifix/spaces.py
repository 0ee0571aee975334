"""Distance spaces: carriers, distance evaluation, and axiom classification.

A distance space is a carrier together with a map d(x, y) >= 0 satisfying
d(x, y) + d(y, x) = 0 exactly when x = y.  No symmetry and no triangle
inequality are assumed; the classifier below reports which of the stronger
axioms a given finite space happens to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CarrierError, UnsupportedInstanceError

# Absolute tolerance used when comparing distances that were produced by
# floating point arithmetic (as opposed to values read from a table, which
# compare exactly).
COMPUTED_ATOL = 1e-12

Point = Any
DistFn = Callable[[Point, Point], float]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in R^k describing a continuous carrier."""

    bounds: tuple[tuple[float, float], ...]

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, p: Point) -> bool:
        coords = (p,) if self.dim == 1 and not isinstance(p, (tuple, list)) else p
        if not isinstance(coords, (tuple, list)) or len(coords) != self.dim:
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(coords, self.bounds))


class DistanceSpace:
    """Carrier plus evaluable distance.

    Finite spaces enumerate their carrier through ``points``; continuous
    spaces describe it with a :class:`Box` (or a custom membership test).
    ``table_backed`` records whether distance values are raw table entries,
    in which case comparisons are exact rather than tolerance-based.
    """

    def __init__(
        self,
        dist: DistFn,
        points: Optional[Sequence[Point]] = None,
        box: Optional[Box] = None,
        contains: Optional[Callable[[Point], bool]] = None,
        completeness_assumed: bool = False,
        table_backed: bool = False,
        matrix: Optional[np.ndarray] = None,
    ):
        self._dist = dist
        self.points = tuple(points) if points is not None else None
        self._point_set = set(self.points) if self.points is not None else None
        self.box = box
        self._contains = contains
        self.completeness_assumed = completeness_assumed
        self.table_backed = table_backed
        self._matrix = matrix

    # -- carrier ------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    def __len__(self) -> int:
        if self.points is None:
            raise UnsupportedInstanceError("continuous carrier has no size")
        return len(self.points)

    def contains(self, p: Point) -> bool:
        if self._point_set is not None:
            return p in self._point_set
        if self._contains is not None:
            return self._contains(p)
        if self.box is not None:
            return self.box.contains(p)
        return True

    def require(self, p: Point) -> None:
        if not self.contains(p):
            raise CarrierError(f"point {p!r} is not in the carrier")

    # -- distance -----------------------------------------------------------

    def dist(self, x: Point, y: Point) -> float:
        return self._dist(x, y)

    @property
    def atol(self) -> float:
        return 0.0 if self.table_backed else COMPUTED_ATOL

    def matrix(self) -> np.ndarray:
        """Distance matrix over the finite carrier (row i = d(p_i, .)); cached."""
        if self.points is None:
            raise UnsupportedInstanceError("cannot materialize a continuous carrier")
        if self._matrix is None:
            n = len(self.points)
            self._matrix = np.array(
                [[float(self._dist(self.points[i], self.points[j])) for j in range(n)]
                 for i in range(n)]
            )
        return self._matrix

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(
        cls,
        labels: Sequence[Point],
        matrix: Sequence[Sequence[float]],
        completeness_assumed: bool = True,
    ) -> "DistanceSpace":
        """Finite space from a label list and an n x n distance table.

        Validates the distance axioms: finite nonnegative entries, and
        d(x, y) + d(y, x) = 0 exactly on the diagonal.
        """
        labels = tuple(labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("carrier labels must be distinct")
        mat = [list(map(float, row)) for row in matrix]
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError(f"distance matrix must be {n}x{n}")
        arr = np.array(mat).reshape(n, n)
        # A finite sum clears the matrix without a temporary array; it can
        # only be non-finite through a non-finite entry or an overflow.
        if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"d({labels[i]},{labels[j]}) = {mat[i][j]} is not finite")
        # Mask every violating entry; the first in row-major order takes the
        # scalar checks in order (negative, diagonal, indistinguishable).
        both = arr + arr.T
        bad = (arr < 0) | np.where(np.eye(n, dtype=bool), both != 0.0, both == 0.0)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            if mat[i][j] < 0:
                raise ValueError(f"d({labels[i]},{labels[j]}) = {mat[i][j]} is negative")
            if i == j:
                raise ValueError(f"d({labels[i]},{labels[i]}) must be 0")
            raise ValueError(f"d({labels[i]},{labels[j]}) + reverse is 0 for distinct points")
        index = {lab: i for i, lab in enumerate(labels)}

        def dist(x: Point, y: Point) -> float:
            try:
                return mat[index[x]][index[y]]
            except KeyError as exc:
                raise CarrierError(f"point {exc.args[0]!r} is not in the carrier")

        return cls(
            dist,
            points=labels,
            completeness_assumed=completeness_assumed,
            table_backed=True,
            matrix=arr,
        )

    @classmethod
    def continuous(
        cls,
        dist: DistFn,
        box: Box,
        completeness_assumed: bool = False,
    ) -> "DistanceSpace":
        return cls(dist, box=box, completeness_assumed=completeness_assumed)

    @classmethod
    def reals(cls, lo: float = -1e9, hi: float = 1e9) -> "DistanceSpace":
        """Absolute-value distance on a (closed, hence complete) interval."""
        return cls.continuous(
            lambda x, y: abs(x - y),
            Box(((lo, hi),)),
            completeness_assumed=True,
        )


@dataclass(frozen=True)
class DistanceClass:
    """Axiom flags for a finite distance space.

    ``s_distance`` carries the minimal feasible relaxation constant when the
    relaxed triangle inequality d(x,y) <= s[d(x,z) + d(z,y)] is satisfiable,
    else None.
    """

    symmetric: bool
    quasimetric: bool
    metric: bool
    n_distance: bool
    f_distance: bool
    s_distance: Optional[float]
    h_distance: bool

    def __post_init__(self):
        if self.metric and not (self.symmetric and self.quasimetric):
            raise ValueError("metric flag requires symmetric and quasimetric")
        if self.s_distance is not None and not self.f_distance:
            raise ValueError("an s-distance must also be an F-distance")
        if self.f_distance and not self.n_distance:
            raise ValueError("an F-distance must also be an N-distance")


def ball_contains(space: DistanceSpace, center: Point, radius: float, y: Point) -> bool:
    """Membership in the open ball B(center, radius) = {y : d(center, y) < radius}."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    space.require(center)
    space.require(y)
    return space.dist(center, y) < radius


def _min_plus(D: np.ndarray) -> np.ndarray:
    """T[x, z] = min over y of D[x, y] + D[y, z]."""
    n = D.shape[0]
    T = np.full_like(D, np.inf)
    for y in range(n):
        np.minimum(T, D[:, y, None] + D[None, y, :], out=T)
    return T


def classify_finite(
    space: DistanceSpace,
    epsilon_grid: Optional[Iterable[float]] = None,
) -> DistanceClass:
    """Exhaustively classify a finite space against the axiom taxonomy.

    All pair/triple quantifiers are checked over the whole carrier.  The
    epsilon/delta quantifiers of the N and F conditions are decided relative
    to ``epsilon_grid`` (default: the realized positive distance values),
    with delta searched over the realized values and their midpoints; since
    the conditions weaken monotonically as delta shrinks, the smallest
    positive candidate is decisive and is what gets checked.
    """
    if not space.is_finite:
        raise UnsupportedInstanceError("classification is finite-only")
    D = space.matrix()
    atol = space.atol
    n = D.shape[0]

    symmetric = bool(np.all(np.abs(D - D.T) <= atol))
    T = _min_plus(D)
    quasimetric = bool(np.all(D <= T + atol))
    metric = symmetric and quasimetric

    positive = D[D > atol]
    smallest = positive.min() if positive.size else np.inf
    eps_values = [smallest] if epsilon_grid is None else sorted(epsilon_grid)
    if any(e <= 0 for e in eps_values):
        raise ValueError("epsilon grid values must be positive")
    min_eps = eps_values[0] if eps_values else np.inf

    # Zero-resolution delta: half the smallest positive realized distance.
    delta0 = smallest / 2.0 if positive.size else 1.0
    A = D <= delta0
    # reach = A.A as booleans: each y ORs its row into the rows reaching it.
    reach = np.zeros_like(A)
    for y in range(n):
        reach[A[:, y]] |= A[y]
    chained = np.where(reach, D, -np.inf)
    f_distance = bool(np.max(chained) <= min_eps + atol)
    n_distance = bool(np.all(np.max(chained, axis=1) <= min_eps + atol))

    # Minimal feasible s for the relaxed triangle inequality.  For each pair
    # the binding intermediate point is the one minimizing d(x,z)+d(z,y).
    # A pair is blocked, with no finite s, when d(x,z) is positive but
    # some path x -> y -> z sums to at most atol, or (``reach``) takes two
    # steps that are each zero within atol: the classifier reads both as
    # zero, as the F test above does.
    s_distance: Optional[float] = None
    blocked = ((T <= atol) | reach) & (D > atol)
    if not blocked.any():
        # A ratio above the float maximum overflows to inf, which is its
        # value here: no finite s relaxes the triangle inequality that far.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = np.where((T > atol) & (D > atol), D / np.maximum(T, atol), 0.0)
        s = float(ratios.max()) if n > 0 else 1.0
        s_distance = max(s, 1.0) if s > 0 else 1.0

    # H-distance: distinct points admit disjoint balls.  For the smallest
    # positive radius the ball around x is exactly {w : d(x, w) = 0}, so the
    # check reduces to no w lying in two of those zero-sets.
    h_distance = bool(np.all(np.count_nonzero(D <= atol, axis=0) <= 1))

    return DistanceClass(
        symmetric=symmetric,
        quasimetric=quasimetric,
        metric=metric,
        n_distance=n_distance,
        f_distance=f_distance,
        s_distance=s_distance,
        h_distance=h_distance,
    )


def _check_tail(seq: Sequence[Point], tail: int) -> Sequence[Point]:
    if tail == 0:
        raise ValueError("tail must be at least 1")
    if tail > len(seq):
        raise ValueError(f"tail {tail} exceeds sequence length {len(seq)}")
    return seq[len(seq) - tail:]


def is_cauchy_prefix(
    space: DistanceSpace, seq: Sequence[Point], tol: float, tail: int
) -> bool:
    """Finite-prefix surrogate for the Cauchy property.

    True iff all pairwise distances, in both orientations, among the last
    ``tail`` items are below ``tol``.  This is a statement about the prefix
    only, never a claim about the true limit behaviour.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    items = _check_tail(seq, tail)
    for p in items:
        space.require(p)
    return all(
        space.dist(a, b) < tol for a in items for b in items
    )


def converges_to(
    space: DistanceSpace, seq: Sequence[Point], x: Point, tol: float, tail: int
) -> bool:
    """Prefix surrogate for convergence to ``x``.

    Uses the orientation d(x, x_n), which matters on asymmetric distances.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    space.require(x)
    items = _check_tail(seq, tail)
    for p in items:
        space.require(p)
    return all(space.dist(x, p) < tol for p in items)
