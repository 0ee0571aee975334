"""Monotone Picard iteration for multiple fixed points, a brute-force
enumeration oracle on finite instances, and the oracle-backed uniqueness
verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ._numpy import np
from .conditions import CONDITIONS, ConditionReport, MeirKeelerModulus
from .kernel import Instance
from .operators import LambdaFamily, MultiOperator, bind_lambda_f, check_lambda_arity
from .product import ProductKind, bind_distance
from .spaces import DistanceSpace

Point = Any

# A continuous Picard step longer than this stops the iteration as diverged.
DIVERGENCE_CAP = 1e12


@dataclass(frozen=True)
class SolveConfig:
    kind: ProductKind = ProductKind.SUP
    tol: float = 1e-9
    max_iter: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    status: str  # "converged" | "cycle" | "max_iter_exceeded" | "diverged"
    final: tuple
    iterations: int
    trace: list[float] = field(default_factory=list)
    cycle_length: Optional[int] = None

    @property
    def residual(self) -> float:
        return self.trace[-1] if self.trace else float("nan")


def find_monotone_start(inst: Instance) -> Optional[tuple[tuple, str]]:
    """First product point a with a <=_L lambdaF(a) (ascending) or
    lambdaF(a) <=_L a (descending), searched over every point of a finite
    carrier in canonical enumeration order.

    F is evaluated on every argument tuple, as the enumeration oracle does,
    so a value outside the carrier raises :class:`EvaluationError` even
    when an earlier point qualifies."""
    inst.orders  # the order's errors come before F's
    image = inst.image
    points = np.arange(inst.size)
    up = inst.leq_L(points, image)
    found = np.flatnonzero(up | inst.leq_L(image, points))
    if not len(found):
        return None
    k = found[0]
    return inst.point(k), "ascending" if up[k] else "descending"


def picard_solve(
    space: DistanceSpace,
    F: MultiOperator,
    family: LambdaFamily,
    start: Sequence[Point],
    config: SolveConfig = SolveConfig(),
) -> SolveReport:
    """Iterate x -> lambdaF(x) from ``start``.

    The stopping residual is the symmetric sum rho(x, next) + rho(next, x),
    which stays meaningful on asymmetric distances, and the iteration
    converges once it is at most ``config.tol``; a step above the
    divergence cap or a non-finite residual stops with ``diverged``.  On
    finite carriers exact cycle detection replaces the tolerance: reaching a
    1-cycle converges, while a longer cycle stops with status ``cycle`` and
    its length.
    The trace records the forward step rho(x, next) per iteration; the
    reported final point is the iterate at which the stop test fired.  A
    converged point outside the carrier raises :class:`CarrierError`.
    """
    start = tuple(start)
    for c in start:
        space.require(c)
    check_lambda_arity(F, family, start)
    lam = bind_lambda_f(F, family)
    rho = bind_distance(space, config.kind)

    finite = space.is_finite
    visited: dict[tuple, int] = {}
    x = start
    trace: list[float] = []
    for n in range(1, config.max_iter + 1):
        nxt = lam(x)
        step = rho(x, nxt)
        trace.append(step)
        if finite:
            if nxt == x:
                break
            visited[x] = n
            if nxt in visited:
                return SolveReport("cycle", nxt, n, trace, cycle_length=n + 1 - visited[nxt])
        else:
            residual = step + rho(nxt, x)
            if step > DIVERGENCE_CAP or not math.isfinite(residual):
                return SolveReport("diverged", nxt, n, trace)
            if residual <= config.tol:
                break
        x = nxt
    else:
        return SolveReport("max_iter_exceeded", x, config.max_iter, trace)
    for c in x:  # F need not map the carrier into itself
        space.require(c)
    return SolveReport("converged", x, n, trace)


def enumerate_fixed_points(inst: Instance) -> list[tuple]:
    """Exact brute-force oracle: all tuples a with lambdaF(a) = a, in
    canonical order."""
    return [inst.point(k) for k in np.flatnonzero(inst.image == np.arange(inst.size))]


@dataclass
class UniquenessReport:
    """Oracle-backed verdict for the uniqueness theorems.

    verdict: "confirmed" (conditions hold, exactly one fixed point),
    "violation" (conditions hold but several fixed points — a theorem
    counterexample), "hypothesis-unmet" (conditions hold, no fixed point
    exists so the theorems do not apply), or "informational" (conditions
    fail; the enumeration is reported for reference).
    """

    verdict: str
    condition_report: ConditionReport
    fixed_points: list[tuple]


def verify_uniqueness(
    inst: Instance,
    condition: str = "omega1",
    delta: Optional[MeirKeelerModulus] = None,
) -> UniquenessReport:
    """Run the selected condition set, enumerate all fixed points, and grade
    the uniqueness claim against the enumeration oracle.  Both read the one
    instance, so its index columns and image map are built once.  The
    set's theorem clauses, the H-distance base for the MK sets, come last.
    """
    entry = CONDITIONS.get(condition)
    if entry is None or not entry.verifiable:
        raise ValueError(f"unknown condition selector {condition!r}")
    if entry.needs_delta and delta is None:
        raise ValueError(f"{condition} needs a Meir-Keeler modulus")
    report = entry.check(inst, delta=delta)
    report.clauses += entry.theorem_clauses(inst)

    fps = enumerate_fixed_points(inst)
    if not report.passed:
        verdict = "informational"
    elif not fps:
        verdict = "hypothesis-unmet"
    elif len(fps) == 1:
        verdict = "confirmed"
    else:
        verdict = "violation"
    return UniquenessReport(verdict, report, fps)
