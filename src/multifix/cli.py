"""Batch command line: classify / check / solve / enumerate / verify / game.

Exit codes: 0 success or pass, 1 fail or violation, 2 usage or parse error,
3 capacity exceeded, 4 no monotone start found.
"""

from __future__ import annotations

import argparse
import collections
import gc
import math
import sys
from typing import Sequence

from .conditions import CONDITIONS
from .errors import CapacityError, MultifixError, ParseError
from .game import GameConfig, Play, write_csv, write_trajectory_csv
from .kernel import Instance
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


def _parse_r_grid(args):
    """The ``--r-grid`` values, or None for 'auto'; anything but positive
    finite numbers is a usage error."""
    text = args.r_grid
    if text is None or text == "auto":
        return None
    try:
        grid = [float(t) for t in text.split(",")]
        valid = all(math.isfinite(r) and r > 0 for r in grid)
    except ValueError:
        valid = False
    if not valid:
        args.usage_error(f"--r-grid takes 'auto' or positive finite numbers, got {text!r}")
    return grid


def _default_lset(pf) -> LSet:
    if pf.lset is not None:
        return pf.lset
    family = pf.require("family")
    return LSet.of(family.m, 1)


def _instance(pf) -> Instance:
    """The file's instance, its missing blocks named in the order of its fields."""
    space, order = pf.require("space"), pf.require("order")
    return Instance(space, order, pf.require("operator"), pf.require("family"), _default_lset(pf))


def _print_report(report) -> int:
    if report.verdict == "pass":
        print("PASS (exhaustive pairs, r in grid)" if report.grid_bound else "PASS (exhaustive)")
        return EXIT_OK
    if report.verdict == "sampled-pass":
        print(f"SAMPLED-PASS seed={report.seed} n={report.samples}")
        return EXIT_OK
    clause = report.failing_clause()
    print(f"FAIL clause: {clause.name}; witness: {clause.witness}")
    return EXIT_FAIL


def _delta(pf, condition):
    return pf.require("delta") if condition.needs_delta else None


def cmd_check(args) -> int:
    condition = CONDITIONS[args.condition]
    for name in ("metric", "r_grid", "seed", "samples"):
        if getattr(args, name) is not None and name not in condition.reads:
            args.usage_error(
                f"--{name.replace('_', '-')} is not read by --condition {args.condition}"
            )
    r_grid = _parse_r_grid(args)
    pf = load_problem(args.file)
    inst = _instance(pf)
    options = {"r_grid": r_grid, "delta": _delta(pf, condition)}
    if "metric" in condition.reads:
        options["kind"] = ProductKind(args.metric or pf.metric or "sup")
        if inst.space.is_finite and (args.seed, args.samples) != (None, None):
            args.usage_error("--seed and --samples are read only on a continuous carrier")
        options.update(seed=args.seed, samples=args.samples)
    return _print_report(condition.check(inst, **options))


def _settings(args, pf, *names) -> dict:
    """Each named setting from its option, else from the file's header; one
    given by neither is left to the config's own default."""
    values = {name: getattr(args, name) for name in names}
    values = {name: getattr(pf, name) if v is None else v for name, v in values.items()}
    return {name: v for name, v in values.items() if v is not None}


def cmd_solve(args) -> int:
    pf = load_problem(args.file)
    space = pf.require("space")
    F = pf.require("operator")
    family = pf.require("family")
    config = SolveConfig(
        kind=pf.metric or ProductKind.SUP, **_settings(args, pf, "tol", "max_iter")
    )
    if args.start == "auto":
        found = find_monotone_start(_instance(pf))
        if found is None:
            print("no monotone start")
            return EXIT_NO_START
        start, direction = found
        print(f"start={format_product_point(start)} direction={direction}")
    elif args.start is not None:
        tokens = args.start.split(",")
        try:
            start = tuple(tokens) if space.is_finite else tuple(float(t) for t in tokens)
        except ValueError:
            args.usage_error(f"--start takes 'auto' or comma-separated numbers, got {args.start!r}")
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
        write_trace_csv(report.trace, args.trace)
    return EXIT_OK if report.status == "converged" else EXIT_FAIL


def write_trace_csv(trace: Sequence[float], path: str) -> None:
    """One row per Picard step: its number and residual as ``solve`` prints
    it, with the bytes ``csv.writer`` writes."""
    write_csv(
        path,
        "iteration,residual\r\n",
        (f"{i},{_fmt(r)}\r\n" for i, r in enumerate(trace, start=1)),
    )


def cmd_enumerate(args) -> int:
    pf = load_problem(args.file)
    # The oracle reads no order, so a file without one is enumerated.
    space, F, family = pf.require("space"), pf.require("operator"), pf.require("family")
    for point in enumerate_fixed_points(Instance(space, pf.order, F, family, _default_lset(pf))):
        print(format_product_point(point))
    return EXIT_OK


def cmd_verify(args) -> int:
    pf = load_problem(args.file)
    report = verify_uniqueness(
        _instance(pf), condition=args.condition, delta=_delta(pf, CONDITIONS[args.condition])
    )
    points = ", ".join(format_product_point(p) for p in report.fixed_points)
    if report.verdict == "confirmed":
        print(f"THEOREM CONFIRMED, unique fixed point {points}")
        return EXIT_OK
    if report.verdict == "informational":
        name = report.condition_report.failing_clause().name
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
        **_settings(args, pf, "rounds", "tol"),
    )
    play = Play(game, pf.require("start"))
    if args.out:
        write_trajectory_csv(play, args.out)
    else:
        collections.deque(play, maxlen=0)
    print(
        f"optimal={_yesno(play.optimal)} "
        f"rounds={play.count} "
        f"final={format_product_point(play.last.selection)}"
    )
    return EXIT_OK if play.optimal else EXIT_FAIL


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
        choices=list(CONDITIONS),
    )
    # Each defaults to None, so that a condition set refuses one it never reads.
    p.add_argument(
        "--metric", choices=["sup", "sum"], help="product distance (default: the file's, else sup)"
    )
    p.add_argument("--r-grid", help="comma-separated r values, or 'auto' (the default)")
    p.add_argument("--seed", type=int, help="sample seed (default 0)")
    p.add_argument("--samples", type=int, help="sample count (default 10000)")
    p.set_defaults(func=cmd_check, usage_error=p.error)

    p = sub.add_parser("solve", help="Picard-iterate to a multiple fixed point")
    p.add_argument("file")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--start", help="'auto' or a comma-separated tuple")
    p.add_argument("--trace", help="write the residual trace CSV here")
    p.set_defaults(func=cmd_solve, usage_error=p.error)

    p = sub.add_parser("enumerate", help="brute-force all multiple fixed points")
    p.add_argument("file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="grade a uniqueness theorem against the oracle")
    p.add_argument("file")
    p.add_argument(
        "--condition",
        default="omega1",
        choices=[name for name, c in CONDITIONS.items() if c.verifiable],
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
    except (MultifixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry: exit with the status of ``main``, with every object
    frozen first, so the collections at exit skip what the exit frees anyway.
    ``main`` itself never freezes the collector."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
