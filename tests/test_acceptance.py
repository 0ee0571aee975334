"""End-to-end acceptance gate.

Each test covers one acceptance criterion and emits exactly one
``PASS criterion N: ...`` / ``FAIL criterion N: ...`` line on the real
stdout (bypassing pytest capture) so the gate is auditable from the
plain test log.
"""

import itertools
import random
import sys
import time

import numpy as np
import pytest

from multifix import (
    DistanceSpace,
    GameConfig,
    Instance,
    LambdaFamily,
    LSet,
    MeirKeelerModulus,
    MultiOperator,
    OrderRelation,
    Play,
    ProductKind,
    SolveConfig,
    chain_order,
    classify_finite,
    coupled_preset,
    enumerate_fixed_points,
    is_multiple_fixed_point,
    picard_solve,
    tripled_preset,
    verify_uniqueness,
)
from multifix.conditions import CONDITIONS
from helpers import (
    GENERATORS,
    int_chain,
    random_table_operator,
    reference_product_matrix,
    reference_product_space,
    table_operator,
    unit_space,
)

SEED = 20240824


@pytest.fixture
def announce(capfd):
    """One auditable PASS/FAIL line per criterion on the real stdout."""

    def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capfd.disabled():
            sys.stdout.write(f"{status} criterion {num}: {name}{suffix}\n")
            sys.stdout.flush()
        assert ok, f"criterion {num} failed: {name} {detail}"

    return _criterion


@pytest.fixture(scope="module")
def base_spaces():
    """200 random finite bases, 50 per generator class, carriers of 2..6."""
    rng = random.Random(SEED)
    spaces = []
    for name, gen in GENERATORS.items():
        for _ in range(50):
            spaces.append((name, gen(rng, rng.randint(2, 6))))
    return spaces


@pytest.fixture(scope="module")
def lattice_instances():
    """56 ordered-chain instances: 14 constants, 12 designed negatives that
    break the strict contraction clause, and 30 random lookup tables."""
    rng = random.Random(SEED + 1)
    instances = []  # (space, order, operator, kind)
    for n in (2, 3, 4, 5):
        space, order = int_chain(n)
        for c in space.points:
            instances.append((space, order, MultiOperator.constant(2, c), "constant"))
    for n in (2, 3, 4):
        space, order = int_chain(n)
        for func in (lambda x, y: x, min, max, lambda x, y: y):
            instances.append(
                (space, order, table_operator(space, 2, func), "negative")
            )
    for _ in range(30):
        n = rng.randint(2, 4)
        space, order = int_chain(n)
        instances.append(
            (space, order, random_table_operator(rng, space, 2), "random")
        )
    return instances


def test_criterion_1_product_class_closure(base_spaces, announce):
    started = time.monotonic()
    failures = []
    products = 0
    for name, base in base_spaces:
        base_cls = classify_finite(base)
        for m in (2, 3):
            for kind in ProductKind:
                prod = reference_product_space(base, m, kind)
                cls = classify_finite(prod)
                products += 1
                for flag in ("symmetric", "quasimetric", "metric", "h_distance"):
                    if getattr(base_cls, flag) and not getattr(cls, flag):
                        failures.append((name, m, kind, flag))
                if base_cls.s_distance is not None:
                    if cls.s_distance is None:
                        failures.append((name, m, kind, "s lost"))
                    elif cls.s_distance > base_cls.s_distance + 1e-9:
                        failures.append((name, m, kind, "s grew"))
    elapsed = time.monotonic() - started
    announce(
        1,
        "product spaces inherit the base classification",
        not failures and elapsed <= 60.0,
        f"{len(base_spaces)} bases, {products} products, {elapsed:.1f}s"
        + (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_2_sandwich_identity(base_spaces, announce):
    violations = 0
    pairs = 0
    for _, base in base_spaces:
        for m in (2, 3):
            sup = reference_product_matrix(base, m, ProductKind.SUP)
            tot = reference_product_matrix(base, m, ProductKind.SUM)
            pairs += sup.size
            if not np.all((sup <= tot) & (tot <= m * sup)):
                violations += 1
    announce(
        2,
        "sup <= sum <= m*sup exactly on every product pair",
        violations == 0,
        f"{pairs} pairs checked",
    )


def test_criterion_3_twisted_order_duality(announce):
    diamond = OrderRelation.from_pairs(
        range(4), [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    orders = [
        chain_order(range(n)) for n in (1, 2, 3, 4)
    ] + [OrderRelation.from_pairs(range(4), []), diamond]
    checked = 0
    violations = 0
    for order in orders:
        for m in (1, 2, 3):
            space = unit_space(order.points)
            F, family = MultiOperator.constant(m, order.points[0]), LambdaFamily.identity(m)
            for members in itertools.chain.from_iterable(
                itertools.combinations(range(1, m + 1), k) for k in range(m + 1)
            ):
                lset = LSet(m, frozenset(members))
                inst = Instance(space, order, F, family, lset)
                dual = Instance(space, order, F, family, lset.complement())
                # Every (x, y) of the product, as an N x N array.
                xs, ys = np.arange(inst.size)[:, None], np.arange(inst.size)[None, :]
                got = inst.leq_L(xs, ys)
                checked += got.size
                violations += int(np.count_nonzero(got != dual.leq_L(ys, xs)))
    announce(
        3,
        "order with flipped coordinate set equals the reversed comparison",
        violations == 0,
        f"{checked} comparisons",
    )


def test_criterion_4_uniqueness_oracle_suite(lattice_instances, announce):
    started = time.monotonic()
    lset = LSet.of(2, 1)
    fam = coupled_preset()
    violations = []
    negatives_passing = []
    constants_unconfirmed = []
    for space, order, F, kind in lattice_instances:
        report = verify_uniqueness(Instance(space, order, F, fam, lset), "omega1")
        if report.verdict == "violation":
            violations.append(kind)
        if kind == "negative" and report.condition_report.passed:
            negatives_passing.append(kind)
        if kind == "constant" and report.verdict != "confirmed":
            constants_unconfirmed.append(kind)
    elapsed = time.monotonic() - started
    ok = (
        not violations
        and not negatives_passing
        and not constants_unconfirmed
        and elapsed <= 120.0
    )
    announce(
        4,
        "conditions plus any fixed point imply exactly one fixed point",
        ok,
        f"{len(lattice_instances)} instances, {elapsed:.1f}s",
    )


def test_criterion_5_coupled_convergence_regression(announce):
    reals = DistanceSpace.reals()
    F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
    # independent oracle: the stationarity equations x = (x-y)/4 + 1 and
    # y = (y-x)/4 + 1 form a linear system with a unique solution
    A = np.array([[0.75, 0.25], [0.25, 0.75]])
    oracle = np.linalg.solve(A, np.array([1.0, 1.0]))
    report = picard_solve(reals, F, coupled_preset(), (0.0, 0.0))
    residual = is_multiple_fixed_point(
        reals, F, coupled_preset(), report.final
    ).residual
    ratios_ok = all(
        cur / prev <= 0.5 + 1e-9
        for prev, cur in zip(report.trace, report.trace[1:])
        if prev > 0
    )
    ok = (
        report.status == "converged"
        and report.iterations <= 100
        and residual < 1e-9
        and max(abs(c - o) for c, o in zip(report.final, oracle)) < 1e-9
        and np.allclose(oracle, [1.0, 1.0])
        and ratios_ok
    )
    announce(
        5,
        "two-variable regression reaches (1,1) with halving residuals",
        ok,
        f"{report.iterations} iterations, residual {residual:.3g}",
    )


def test_criterion_6_tripled_convergence_regression(announce):
    reals = DistanceSpace.reals()
    F = MultiOperator(3, lambda x, y, z: (x - 2 * y + z) / 8 + 1)
    fam = tripled_preset()
    # independent oracle: the induced map is affine; solve (I - M)t = b for
    # the rows t1 = F(t1,t2,t3), t2 = F(t2,t1,t2), t3 = F(t3,t2,t1)
    M = np.array([[1, -2, 1], [-2, 2, 0], [1, -2, 1]]) / 8.0
    oracle = np.linalg.solve(np.eye(3) - M, np.ones(3))
    report = picard_solve(reals, F, fam, (0.0, 0.0, 0.0))
    residual = is_multiple_fixed_point(reals, F, fam, report.final).residual
    rng = random.Random(SEED + 2)
    finals = [report.final]
    multi_ok = True
    for _ in range(10):
        start = tuple(rng.uniform(-10, 10) for _ in range(3))
        other = picard_solve(reals, F, fam, start)
        multi_ok &= other.status == "converged"
        finals.append(other.final)
    spread = max(
        abs(a - b) for p, q in itertools.combinations(finals, 2)
        for a, b in zip(p, q)
    )
    ok = (
        report.status == "converged"
        and report.iterations <= 100
        and residual < 1e-9
        and np.allclose(oracle, [1.0, 1.0, 1.0])
        and max(abs(c - o) for c, o in zip(report.final, oracle)) < 1e-8
        and multi_ok
        and spread < 1e-8
    )
    announce(
        6,
        "three-variable regression reaches (1,1,1) from any start",
        ok,
        f"{report.iterations} iterations, multi-start spread {spread:.3g}",
    )


def test_criterion_7_meir_keeler_discrimination(announce):
    reals = DistanceSpace.reals(-10, 10)
    lset = LSet.of(2, 1)
    fam = coupled_preset()
    delta = MeirKeelerModulus.linear(1.0)

    def run(k):
        F = MultiOperator(2, lambda x, y: (k / 2) * (x - y))
        return CONDITIONS["mk-op"].check(
            Instance(reals, None, F, fam, lset), delta,
            kind=ProductKind.SUP, samples=10_000, seed=7,
        )

    good_a, good_b = run(0.5), run(0.5)
    bad_a, bad_b = run(1.1), run(1.1)
    ok = (
        good_a.verdict == "sampled-pass"
        and good_a.samples == 10_000
        and bad_a.verdict == "fail"
        and bad_a.counterexample is not None
        and good_a.verdict == good_b.verdict
        and bad_a.counterexample == bad_b.counterexample
    )
    announce(
        7,
        "contraction checker separates factor 0.5 from factor 1.1",
        ok,
        f"witness {bad_a.counterexample}",
    )


def test_criterion_8_game_solver_coherence(announce):
    space = DistanceSpace.reals(0, 1)
    F = MultiOperator(2, lambda x, y: y / 2 + 0.25)
    fam = coupled_preset()
    game = GameConfig(space=space, F=F, family=fam, rounds=200, tol=1e-8)
    play = Play(game, (0.0, 0.0))
    final = list(play)[-1].selection
    # the game stops when total non-convenience <= tol; the iterative solver
    # with the matching symmetric-sum threshold must stop at the same tuple
    solver = picard_solve(
        space, F, fam, (0.0, 0.0), SolveConfig(kind=ProductKind.SUM, tol=2e-8)
    )
    gap = max(abs(a - b) for a, b in zip(final, solver.final))
    near_half = max(abs(c - 0.5) for c in final)
    ok = (
        play.optimal
        and near_half <= 1e-8
        and solver.status == "converged"
        and gap <= 1e-12
    )
    announce(
        8,
        "game trajectory and iterative solver stop at the same point",
        ok,
        f"distance to (0.5, 0.5) {near_half:.3g}, game/solver gap {gap:.3g}",
    )


def test_criterion_9_oracle_agreement(lattice_instances, announce):
    fam = coupled_preset()
    discrepancies = 0
    converged = 0
    for space, _, F, _ in lattice_instances:
        oracle = set(enumerate_fixed_points(Instance(space, None, F, fam, LSet.of(2, 1))))
        for start in itertools.product(space.points, repeat=2):
            report = picard_solve(space, F, fam, start, SolveConfig(tol=0.0))
            if report.status == "converged":
                converged += 1
                if report.final not in oracle:
                    discrepancies += 1
    announce(
        9,
        "every converged endpoint appears in the brute-force enumeration",
        discrepancies == 0,
        f"{converged} converged runs",
    )
