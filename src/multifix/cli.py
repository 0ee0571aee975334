"""Batch command line: classify / check / solve / enumerate / verify / game.

Exit codes: 0 success or pass, 1 fail or violation, 2 usage or parse error,
3 capacity exceeded, 4 no monotone start found.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .conditions import (
    check_mk,
    check_mk_operator,
    check_omega,
    sample_comparable_pairs,
)
from .errors import CapacityError, MultifixError, ParseError
from .game import GameConfig, simulate, write_trajectory_csv
from .orders import LSet
from .problemfile import load_problem
from .product import ProductKind, format_product_point
from .solver import (
    SolveConfig,
    enumerate_fixed_points,
    find_monotone_start,
    picard_solve,
    verify_uniqueness,
)
from .spaces import classify_finite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NO_START = 4


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_classify(args) -> int:
    pf = load_problem(args.file)
    space = pf.require("space")
    cls = classify_finite(space)
    print(f"symmetric: {_yesno(cls.symmetric)}")
    print(f"quasimetric: {_yesno(cls.quasimetric)}")
    print(f"metric: {_yesno(cls.metric)}")
    print(f"n_distance: {_yesno(cls.n_distance)}")
    print(f"f_distance: {_yesno(cls.f_distance)}")
    print(f"s: {_fmt(cls.s_distance) if cls.s_distance is not None else 'none'}")
    print(f"h_distance: {_yesno(cls.h_distance)}")
    return EXIT_OK


def _parse_r_grid(text: str):
    if text == "auto":
        return None
    return [float(t) for t in text.split(",")]


def _default_lset(pf) -> LSet:
    if pf.lset is not None:
        return pf.lset
    family = pf.require("family")
    return LSet.of(family.m, 1)


def _print_report(report) -> int:
    if report.verdict == "pass":
        print("PASS (exhaustive)")
        return EXIT_OK
    if report.verdict == "sampled-pass":
        print(f"SAMPLED-PASS seed={report.seed} n={report.samples}")
        return EXIT_OK
    clause = report.failing_clause()
    witness = clause.witness if clause else report.counterexample
    print(f"FAIL clause: {clause.name if clause else '?'}; witness: {witness}")
    return EXIT_FAIL


def cmd_check(args) -> int:
    pf = load_problem(args.file)
    space = pf.require("space")
    order = pf.require("order")
    F = pf.require("operator")
    family = pf.require("family")
    lset = _default_lset(pf)
    kind = ProductKind.SUP if args.metric == "sup" else ProductKind.SUM
    r_grid = _parse_r_grid(args.r_grid)

    if args.condition.startswith("omega"):
        report = check_omega(space, order, F, family, lset, int(args.condition[-1]))
    elif args.condition in ("mk1", "mk2"):
        delta = pf.require("delta")
        report = check_mk(
            space, order, F, family, lset, delta, int(args.condition[-1]), r_grid
        )
    else:  # mk-op
        delta = pf.require("delta")
        pairs = None
        seed = None
        if not space.is_finite:
            lo, hi = space.box.bounds[0]
            seed = args.seed
            pairs = sample_comparable_pairs(lo, hi, lset, args.samples, seed)
        report = check_mk_operator(
            space, order, F, family, lset, delta, kind,
            pairs=pairs, r_grid=r_grid, seed=seed,
        )
    return _print_report(report)


def cmd_solve(args) -> int:
    pf = load_problem(args.file)
    space = pf.require("space")
    F = pf.require("operator")
    family = pf.require("family")
    config = SolveConfig(
        kind=pf.metric or ProductKind.SUP,
        tol=args.tol if args.tol is not None else (pf.tol or 1e-9),
        max_iter=args.max_iter if args.max_iter is not None else (pf.max_iter or 10_000),
    )
    if args.start == "auto":
        order = pf.require("order")
        lset = _default_lset(pf)
        found = find_monotone_start(space, order, F, family, lset)
        if found is None:
            print("no monotone start")
            return EXIT_NO_START
        start, direction = found
        print(f"start={format_product_point(start)} direction={direction}")
        report = picard_solve(space, F, family, start, config, order, lset)
    else:
        if args.start is not None:
            tokens = args.start.split(",")
            start = tuple(tokens) if space.is_finite else tuple(float(t) for t in tokens)
        else:
            start = pf.require("start")
        report = picard_solve(space, F, family, start, config)
    print(f"status={report.status}")
    print(f"iters={report.iterations}")
    print(f"point={format_product_point(report.final)}")
    print(f"residual={_fmt(report.residual)}")
    if report.cycle_length is not None:
        print(f"cycle={report.cycle_length}")
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "residual"])
            writer.writerows((i, _fmt(r)) for i, r in enumerate(report.trace, start=1))
    return EXIT_OK if report.status == "converged" else EXIT_FAIL


def cmd_enumerate(args) -> int:
    pf = load_problem(args.file)
    space = pf.require("space")
    F = pf.require("operator")
    family = pf.require("family")
    for point in enumerate_fixed_points(space, F, family):
        print(format_product_point(point))
    return EXIT_OK


def cmd_verify(args) -> int:
    pf = load_problem(args.file)
    report = verify_uniqueness(
        pf.require("space"),
        pf.require("order"),
        pf.require("operator"),
        pf.require("family"),
        _default_lset(pf),
        condition=args.condition,
        delta=pf.delta,
    )
    points = ", ".join(format_product_point(p) for p in report.fixed_points)
    if report.verdict == "confirmed":
        print(f"THEOREM CONFIRMED, unique fixed point {points}")
        return EXIT_OK
    if report.verdict == "informational":
        clause = report.condition_report.failing_clause()
        name = clause.name if clause else "?"
        print(f"INFORMATIONAL (conditions fail: {name}); fixed points: [{points}]")
        return EXIT_OK
    if report.verdict == "hypothesis-unmet":
        print("HYPOTHESIS UNMET (no fixed point)")
        return EXIT_OK
    print(f"VIOLATION: conditions pass but fixed points are [{points}]")
    return EXIT_FAIL


def cmd_game(args) -> int:
    pf = load_problem(args.file)
    game = GameConfig(
        space=pf.require("space"),
        F=pf.require("operator"),
        family=pf.require("family"),
        order=pf.order,
        rounds=args.rounds if args.rounds is not None else (pf.rounds or 100),
        tol=args.tol if args.tol is not None else (pf.tol or 1e-9),
    )
    traj = simulate(game, pf.require("start"))
    if args.out:
        write_trajectory_csv(traj, args.out)
    print(
        f"optimal={_yesno(traj.terminated_optimal)} "
        f"rounds={len(traj.rounds)} "
        f"final={format_product_point(traj.final_selection)}"
    )
    return EXIT_OK if traj.terminated_optimal else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multifix",
        description="Multiple fixed points on partially ordered distance spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a finite space against the axiom taxonomy")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="verify a condition set on an instance")
    p.add_argument("file")
    p.add_argument(
        "--condition",
        required=True,
        choices=["omega1", "omega2", "omega3", "omega4", "mk1", "mk2", "mk-op"],
    )
    p.add_argument("--metric", choices=["sup", "sum"], default="sup")
    p.add_argument("--r-grid", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="Picard-iterate to a multiple fixed point")
    p.add_argument("file")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--start", help="'auto' or a comma-separated tuple")
    p.add_argument("--trace", help="write the residual trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enumerate", help="brute-force all multiple fixed points")
    p.add_argument("file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="grade a uniqueness theorem against the oracle")
    p.add_argument("file")
    p.add_argument(
        "--condition",
        default="omega1",
        choices=["omega1", "omega2", "omega3", "omega4", "mk1", "mk2"],
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("game", help="run the position-correction game")
    p.add_argument("file")
    p.add_argument("--rounds", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_game)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (MultifixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
