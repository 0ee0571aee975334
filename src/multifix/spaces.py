"""Distance spaces: carriers, distance evaluation, and axiom classification.

A distance space is a carrier together with a map d(x, y) >= 0 satisfying
d(x, y) + d(y, x) = 0 exactly when x = y.  No symmetry and no triangle
inequality are assumed; the classifier below reports which of the stronger
axioms a given finite space happens to satisfy.
"""

from __future__ import annotations

import itertools
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ._numpy import np
from .errors import CarrierError, UnsupportedInstanceError

# Absolute tolerance of strict tests on distances that floating point
# arithmetic produced: box distances and sums of table entries.  Table
# entries and their maxima compare exactly.
COMPUTED_ATOL = 1e-12

# float64 rows of the min-plus product per block: a 64-row block of T, its
# slice of D and one buffer stay in cache at the classifier's n = 512.  A
# narrower dtype takes proportionally more rows, the same bytes per block.
MIN_PLUS_BLOCK = 64

# Integer dtypes for the min-plus product, narrowest first; names, so that
# importing this module reads no numpy attribute.
_EXACT_DTYPES = ("int8", "int16", "int32")

Point = Any
DistFn = Callable[[Point, Point], float]


def abs_distance(x: Point, y: Point) -> float:
    """|x - y|, the distance of a real interval.  On float64 arrays it gives,
    element by element, the floats it gives on Python floats."""
    return abs(x - y)


@dataclass(frozen=True)
class Box:
    """The closed interval [lo, hi] of a continuous carrier."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:  # NaN fails too
            raise ValueError(f"box bounds must satisfy lo <= hi, got [{self.lo}, {self.hi}]")

    def contains(self, p: Point) -> bool:
        return isinstance(p, numbers.Real) and self.lo <= p <= self.hi


class DistanceSpace:
    """Carrier plus evaluable distance, built in one of two ways: a validated
    finite table (:meth:`from_matrix`), whose entries compare exactly, or a
    closed :class:`Box` under :func:`abs_distance` (:meth:`reals`).  Both
    carriers are complete, as the theorems assume.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a DistanceSpace is built by from_matrix or reals")

    @classmethod
    def _make(cls, dist: DistFn, points: Optional[tuple], box: Optional[Box],
              matrix: Optional[np.ndarray]) -> "DistanceSpace":
        space = cls.__new__(cls)
        # An instance attribute, not a method: the per-point loops call
        # ``space.dist`` without an extra frame.
        space.dist = dist
        space.points = points
        space._point_set = None if points is None else set(points)
        space.box = box
        space._matrix = matrix
        return space

    # -- carrier ------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    def contains(self, p: Point) -> bool:
        if self._point_set is not None:
            return p in self._point_set
        return self.box.contains(p)

    def require(self, p: Point) -> None:
        if not self.contains(p):
            raise CarrierError(f"point {p!r} is not in the carrier")

    # -- distance -----------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Distance matrix over the finite carrier (row i = d(p_i, .))."""
        if self.points is None:
            raise UnsupportedInstanceError("cannot materialize a continuous carrier")
        return self._matrix

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(
        cls,
        labels: Sequence[Point],
        matrix: "Sequence[Sequence[float]] | np.ndarray",
    ) -> "DistanceSpace":
        """Finite space from a label list and an n x n distance table.

        The table is a list of rows or an array, which is copied.  Validates
        the distance axioms: finite nonnegative entries, and d(x, y) +
        d(y, x) = 0 exactly on the diagonal.
        """
        labels = tuple(labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("carrier labels must be distinct")
        if isinstance(matrix, np.ndarray):
            arr = np.array(matrix, dtype=float)
            if arr.shape != (n, n):
                raise ValueError(f"distance matrix must be {n}x{n}")
        else:
            # float() takes the entries in row-major order, so the first one
            # it refuses raises before the shape check.
            arr = np.fromiter(map(float, itertools.chain.from_iterable(matrix)), float)
            if len(matrix) != n or any(len(row) != n for row in matrix):
                raise ValueError(f"distance matrix must be {n}x{n}")
            arr = arr.reshape(n, n)
        # A finite sum clears the matrix without a temporary array; it can
        # only be non-finite through a non-finite entry or an overflow.  An
        # overflow to inf, or inf - inf = NaN past a negative entry, is a
        # valid value of the sum, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
                i, j = np.argwhere(~np.isfinite(arr))[0]
                raise ValueError(f"d({labels[i]},{labels[j]}) = {arr.item(i, j)} is not finite")
        # Mask every violating entry; the first in row-major order takes the
        # scalar checks in order (negative, diagonal, indistinguishable).  A
        # rounded sum of nonnegative floats is at least each term, so without
        # a negative entry d(x, y) + d(y, x) is 0 exactly when both are 0.
        zero = arr == 0.0
        bad = zero & zero.T
        np.fill_diagonal(bad, ~zero.diagonal())
        if arr.min(initial=0.0) < 0:
            # A negative entry is bad, and so is its mirror when they sum to 0.
            neg = arr < 0
            bad |= neg | (neg.T & (arr == -arr.T))
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            if arr.item(i, j) < 0:
                raise ValueError(f"d({labels[i]},{labels[j]}) = {arr.item(i, j)} is negative")
            if i == j:
                raise ValueError(f"d({labels[i]},{labels[i]}) must be 0")
            raise ValueError(f"d({labels[i]},{labels[j]}) + reverse is 0 for distinct points")
        index = {lab: i for i, lab in enumerate(labels)}

        def dist(x: Point, y: Point) -> float:
            try:
                return arr.item(index[x], index[y])
            except KeyError as exc:
                raise CarrierError(f"point {exc.args[0]!r} is not in the carrier")

        return cls._make(dist, labels, None, arr)

    @classmethod
    def reals(cls, lo: float = -1e9, hi: float = 1e9) -> "DistanceSpace":
        """Absolute-value distance on a (closed, hence complete) interval."""
        return cls._make(abs_distance, None, Box(lo, hi), None)


@dataclass(frozen=True)
class DistanceClass:
    """Axiom flags for a finite distance space; ``metric`` and ``n_distance``
    are derived from them.

    ``s_distance`` carries the minimal feasible relaxation constant when the
    relaxed triangle inequality d(x,y) <= s[d(x,z) + d(z,y)] is satisfiable,
    else None.
    """

    symmetric: bool
    quasimetric: bool
    f_distance: bool
    s_distance: Optional[float]
    h_distance: bool

    def __post_init__(self):
        if self.s_distance is not None and not self.f_distance:
            raise ValueError("an s-distance must also be an F-distance")

    @property
    def metric(self) -> bool:
        return self.symmetric and self.quasimetric

    @property
    def n_distance(self) -> bool:
        """N asks for a delta per point, F for one delta for all; on a finite
        carrier the minimum of the per-point deltas serves every point, so N
        and F coincide."""
        return self.f_distance


def is_h_distance(space: DistanceSpace) -> bool:
    """Whether distinct points of a finite space admit disjoint balls.

    For the smallest positive radius the ball around x is exactly
    {w : d(x, w) = 0}, so the check reduces to no w lying in two of those
    zero-sets: O(n^2), with no min-plus product.
    """
    if not space.is_finite:
        raise UnsupportedInstanceError("classification is finite-only")
    return bool(np.all(np.count_nonzero(space.matrix() == 0, axis=0) <= 1))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_rows(D: np.ndarray) -> int:
    return MIN_PLUS_BLOCK * 8 // D.itemsize


def _exact_table(D: np.ndarray) -> Optional[np.ndarray]:
    """D in the narrowest integer dtype that holds every sum of two of its
    entries exactly, or None when an entry is negative, fractional or not
    finite, or the entries are too large for int32."""
    top = D.max(initial=0)
    dt = next((t for t in _EXACT_DTYPES if top <= np.iinfo(t).max // 2), None)
    # NaN fails both tests, inf the bound and -inf the sign.
    if dt is None or not D.min(initial=0) >= 0:
        return None
    C = D.astype(dt)
    return C if np.array_equal(C, D) else None


def _min_plus_blocks(D: np.ndarray, T: np.ndarray, starts: Sequence[int]) -> None:
    """Fill the row blocks of T that begin at ``starts``."""
    n = D.shape[0]
    rows = _block_rows(D)
    # numpy's error state is per thread, so each worker enters its own.  A
    # sum above the float maximum is inf, which is its value here.
    with np.errstate(over="ignore"):
        for lo in starts:
            D_blk = D[lo:lo + rows]
            T_blk = T[lo:lo + rows]
            buf = np.empty_like(T_blk)
            for y in range(n):
                np.add(D_blk[:, y, None], D[y], out=buf)
                np.minimum(T_blk, buf, out=T_blk)


def _min_plus(D: np.ndarray) -> np.ndarray:
    """T[x, z] = min over y of D[x, y] + D[y, z], in the dtype it ran in.

    A table of small nonnegative integers runs in the narrowest integer
    dtype that holds every sum and T keeps it: integer sums are exact, so T
    equals the float64 product in value.  Row blocks are shared among up to
    one thread per usable CPU; numpy's ufuncs release the GIL.  Blocks write
    disjoint rows and each takes the minimum over y in the same order, so T
    does not depend on the thread count.
    """
    C = _exact_table(D)
    if C is not None:
        D = C
        # Every sum is at most this maximum, so the first y replaces it.
        T = np.full_like(D, np.iinfo(D.dtype).max)
    else:
        T = np.full_like(D, np.inf)
    n = D.shape[0]
    starts = range(0, n, _block_rows(D))
    # The calling thread takes the first share; with k = 1 no thread starts.
    k = max(1, min(_usable_cpus(), len(starts)))
    errors: list[BaseException] = []

    def work(share: Sequence[int]) -> None:
        try:
            _min_plus_blocks(D, T, share)
        except BaseException as exc:  # re-raised by the caller after the joins
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(starts[i::k],)) for i in range(1, k)]
    for thread in threads:
        thread.start()
    try:
        _min_plus_blocks(D, T, starts[0::k])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return T


def classify_finite(space: DistanceSpace) -> DistanceClass:
    """Exhaustively classify a finite space against the axiom taxonomy.

    All pair/triple quantifiers are checked over the whole carrier.  The
    epsilon/delta quantifiers of the N and F conditions range over the
    realized positive distance values, with delta searched over the realized
    values and their midpoints; since the conditions weaken monotonically as
    delta shrinks and tighten as epsilon shrinks, the smallest positive
    candidate of each is decisive and is what gets checked.

    Beyond the table it holds T in its min-plus dtype, read exactly, and
    one-byte masks; every float stage runs on the min-plus row blocks of D.
    """
    if not space.is_finite:
        raise UnsupportedInstanceError("classification is finite-only")
    D = space.matrix()
    rows = _block_rows(D)
    blocks = [slice(lo, lo + rows) for lo in range(0, D.shape[0], rows)]

    symmetric = all(np.all(D[b] == D[:, b].T) for b in blocks)
    T = _min_plus(D)
    quasimetric = all(np.all(D[b] <= T[b]) for b in blocks)

    pos = D > 0
    smallest = np.min(D, where=pos, initial=np.inf)

    # Zero-resolution delta: half the smallest positive realized distance.
    delta0 = smallest / 2.0 if pos.any() else 1.0
    A = D <= delta0
    # reach = A.A as booleans.  The term y = x is row x of A where A[x, x]
    # holds; only a column of A with an off-diagonal entry adds more.
    reach = A & A.diagonal()[:, None]
    for y in np.flatnonzero(np.count_nonzero(A, axis=0) > A.diagonal()):
        reach[A[:, y]] |= A[y]
    f_distance = bool(np.max(D, where=reach, initial=-np.inf) <= smallest)

    # Minimal feasible s for the relaxed triangle inequality.  For each pair
    # the binding intermediate point is the one minimizing d(x,z)+d(z,y).
    # A pair is blocked, with no finite s, when d(x,z) is positive but it is
    # in ``reach``: two steps of at most delta0, as the F test above reads
    # them.  Every path x -> y -> z that sums to 0 is two such steps.
    s_distance: Optional[float] = None
    if not any(np.any(reach[b] & pos[b]) for b in blocks):
        # Every positive entry left has T > 0.  A ratio above the float
        # maximum overflows to inf, which is its value here: no finite s
        # relaxes the triangle inequality that far.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = [np.max(D[b] / T[b], where=pos[b], initial=0.0) for b in blocks]
        s = float(np.max(ratios, initial=0.0))
        s_distance = max(s, 1.0)

    return DistanceClass(
        symmetric=symmetric,
        quasimetric=quasimetric,
        f_distance=f_distance,
        s_distance=s_distance,
        h_distance=is_h_distance(space),
    )
