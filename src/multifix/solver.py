"""Monotone Picard iteration for multiple fixed points, a brute-force
enumeration oracle on finite instances, and the oracle-backed uniqueness
verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .conditions import (
    Clause,
    ConditionReport,
    MeirKeelerModulus,
    check_mk,
    check_omega,
)
from .kernel import ProductKernel
from .operators import LambdaFamily, MultiOperator, bind_lambda_f, check_lambda_arity
from .orders import LSet, OrderRelation, compare_L
from .product import ProductKind, bind_distance, product_points
from .spaces import DistanceSpace, classify_finite

Point = Any


@dataclass(frozen=True)
class SolveConfig:
    kind: ProductKind = ProductKind.SUP
    tol: float = 1e-9
    max_iter: int = 10_000
    divergence_cap: float = 1e12

    def __post_init__(self):
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.divergence_cap <= 0:
            raise ValueError("divergence_cap must be positive")


@dataclass
class SolveReport:
    status: str  # "converged" | "max_iter_exceeded" | "diverged"
    final: tuple
    iterations: int
    trace: list[float] = field(default_factory=list)
    monotone_start_verified: bool = False
    start_direction: Optional[str] = None
    cycle_length: Optional[int] = None

    @property
    def residual(self) -> float:
        return self.trace[-1] if self.trace else float("nan")


def find_monotone_start(
    space: DistanceSpace,
    order: OrderRelation,
    F: MultiOperator,
    family: LambdaFamily,
    lset: LSet,
    candidates: Optional[Sequence[tuple]] = None,
) -> Optional[tuple[tuple, str]]:
    """First product point a with a <=_L lambdaF(a) (ascending) or
    lambdaF(a) <=_L a (descending), in canonical enumeration order.

    Finite carriers are searched exhaustively; continuous ones require an
    explicit candidate list.
    """
    if candidates is None:
        candidates = product_points(space, lset.m)
    lam = None
    for a in candidates:
        if lam is None or len(a) != family.m:
            check_lambda_arity(F, family, a)
            lam = bind_lambda_f(F, family)
        image = lam(a)
        if compare_L(order, lset, a, image):
            return a, "ascending"
        if compare_L(order, lset, image, a):
            return a, "descending"
    return None


def picard_solve(
    space: DistanceSpace,
    F: MultiOperator,
    family: LambdaFamily,
    start: Sequence[Point],
    config: SolveConfig = SolveConfig(),
    order: Optional[OrderRelation] = None,
    lset: Optional[LSet] = None,
) -> SolveReport:
    """Iterate x -> lambdaF(x) from ``start``.

    The stopping residual is the symmetric sum rho(x, next) + rho(next, x),
    which stays meaningful on asymmetric distances; a step above the
    divergence cap or a non-finite residual stops with ``diverged``.  On
    finite carriers exact cycle detection replaces the tolerance: reaching a
    1-cycle converges, while a longer cycle stops with a cycle annotation.
    The trace records the forward step rho(x, next) per iteration; the
    reported final point is the iterate at which the stop test fired.
    """
    start = tuple(start)
    for c in start:
        space.require(c)
    check_lambda_arity(F, family, start)
    lam = bind_lambda_f(F, family)
    rho = bind_distance(space, config.kind)

    direction = None
    if order is not None and lset is not None:
        image = lam(start)
        if compare_L(order, lset, start, image):
            direction = "ascending"
        elif compare_L(order, lset, image, start):
            direction = "descending"
    verified = direction is not None

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
                return SolveReport("converged", x, n, trace, verified, direction)
            visited[x] = n
            if nxt in visited:
                cycle = n + 1 - visited[nxt]
                return SolveReport(
                    "max_iter_exceeded", nxt, n, trace, verified, direction,
                    cycle_length=cycle,
                )
        else:
            residual = step + rho(nxt, x)
            if step > config.divergence_cap or not math.isfinite(residual):
                return SolveReport("diverged", nxt, n, trace, verified, direction)
            if residual < config.tol:
                return SolveReport("converged", x, n, trace, verified, direction)
        x = nxt
    return SolveReport(
        "max_iter_exceeded", x, config.max_iter, trace, verified, direction
    )


def enumerate_fixed_points(
    space: DistanceSpace, F: MultiOperator, family: LambdaFamily
) -> list[tuple]:
    """Exact brute-force oracle: all tuples a with lambdaF(a) = a, in
    canonical order."""
    kernel = ProductKernel(space, family.m)
    image = kernel.image(F, family)
    return [kernel.point(k) for k in np.flatnonzero(image == np.arange(kernel.size))]


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
    space: DistanceSpace,
    order: OrderRelation,
    F: MultiOperator,
    family: LambdaFamily,
    lset: LSet,
    condition: str = "omega1",
    delta: Optional[MeirKeelerModulus] = None,
    r_grid: Optional[Sequence[float]] = None,
) -> UniquenessReport:
    """Run the selected condition set, enumerate all fixed points, and grade
    the uniqueness claim against the enumeration oracle.

    MK variants additionally require the base space to separate distinct
    points by disjoint balls, which is checked via classification.
    """
    if condition.startswith("omega"):
        variant = int(condition[-1])
        report = check_omega(space, order, F, family, lset, variant)
    elif condition in ("mk1", "mk2"):
        if delta is None:
            raise ValueError("MK conditions need a modulus")
        variant = int(condition[-1])
        report = check_mk(space, order, F, family, lset, delta, variant, r_grid)
        h_ok = classify_finite(space).h_distance
        report.clauses.append(Clause("H-distance base space", h_ok))
        if not h_ok and report.verdict != "fail":
            report.verdict = "fail"
            report.counterexample = None
    else:
        raise ValueError(f"unknown condition selector {condition!r}")

    fps = enumerate_fixed_points(space, F, family)
    if not report.passed:
        verdict = "informational"
    elif not fps:
        verdict = "hypothesis-unmet"
    elif len(fps) == 1:
        verdict = "confirmed"
    else:
        verdict = "violation"
    return UniquenessReport(verdict, report, fps)
