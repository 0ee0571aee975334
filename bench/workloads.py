"""Seeded problem files, command lists and verdict oracles for the three
benchmark workloads.

Each workload is one rung of the product-size ladder N = |X|^m, chosen large
enough that compute, not interpreter and numpy start-up, dominates every
command.  The program under test only ever sees the generated files.  The
expected verdict of every command follows from how its input is built and is
computed here without running the program.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# (stdout, exit code) -> description of the mismatch, or None when correct.
Check = Callable[[str, int], Optional[str]]


@dataclass
class Command:
    metric: str  # end-to-end metric that this command's wall time adds to
    args: list  # arguments after "python -m multifix.cli"
    check: Check


@dataclass
class Workload:
    name: str
    files: dict  # file name -> problem-file text, in load order
    commands: list

    def write(self, work: Path) -> list:
        """Write the problem files into ``work``; return their paths."""
        paths = []
        for fname, text in self.files.items():
            path = work / fname
            path.write_text(text)
            paths.append(str(path))
        return paths


def _expect_lines(*lines: str) -> Check:
    want = list(lines)

    def check(out: str, rc: int) -> Optional[str]:
        got = out.splitlines()
        if rc != 0 or got != want:
            return f"exit {rc}, stdout {got[:4]!r}; expected exit 0, {want[:4]!r}"
        return None

    return check


def _matrix_lines(rows) -> list:
    return [" ".join(str(v) for v in row) for row in rows]


def _chain_block(n: int) -> list:
    return [f"{i} <= {i + 1}" for i in range(n - 1)]


# -- chain-verify -------------------------------------------------------------


def chain_verify(seed: int, work: Path, small: bool = False) -> Workload:
    # Why: condition kernels over comparable pairs.  orders.compare_L,
    # product.sup_distance and the conditions loops do almost all the work
    # here; parsing, the order closure and the classifier do almost none.
    # Every check passes, so each walks every pair instead of stopping at the
    # first witness.  The 9-point chain with d(i,j) = |i^2 - j^2| under the
    # tripled preset gives N = 729; F(x,y,z) = max(min(x,z) - 1, 0) is
    # isotone and a strict contraction in the sup product distance, with the
    # unique fixed point (0,0,0).  The seed only shuffles block lines, so
    # the work is the same on every seed.
    rng = random.Random(seed)
    n = 4 if small else 9
    order = _chain_block(n)
    table = [
        f"{x},{y},{z} -> {max(min(x, z) - 1, 0)}"
        for x, y, z in itertools.product(range(n), repeat=3)
    ]
    rng.shuffle(order)
    rng.shuffle(table)
    text = "\n".join(
        [f"points: {' '.join(map(str, range(n)))}", "dist:"]
        + _matrix_lines([[abs(i * i - j * j) for j in range(n)] for i in range(n)])
        + ["order:", *order, "lambda: tripled", "F:", *table]
        + ["L: 1 2 3", "delta const 0.5"]
    ) + "\n"
    f = str(work / "chain.txt")
    passed = _expect_lines("PASS (exhaustive)")
    return Workload(
        "chain-verify",
        {"chain.txt": text},
        [
            Command("check_omega1_s", ["check", f, "--condition", "omega1"], passed),
            Command(
                "check_mk1_s",
                ["check", f, "--condition", "mk1", "--r-grid", "0.5"],
                passed,
            ),
            Command("check_mkop_s", ["check", f, "--condition", "mk-op"], passed),
            Command(
                "verify_omega1_s",
                ["verify", f, "--condition", "omega1"],
                _expect_lines("THEOREM CONFIRMED, unique fixed point (0,0,0)"),
            ),
        ],
    )


# -- dense-classify -----------------------------------------------------------


def random_quasimetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer weights 1..32 off the diagonal, closed under shortest paths."""
    D = rng.integers(1, 33, size=(n, n), dtype=np.int64)
    np.fill_diagonal(D, 0)
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def satisfies_triangle(D: np.ndarray) -> bool:
    """d(i,j) <= d(i,k) + d(k,j) for every k, checked one k at a time."""
    return all(bool(np.all(D <= D[:, k, None] + D[None, k, :])) for k in range(len(D)))


def dense_classify(seed: int, work: Path, small: bool = False) -> Workload:
    # Why: the numpy classifier plus parsing of a large matrix.
    # spaces.classify_finite (int matmul plus the Python-level min-plus) and
    # DistanceSpace.from_matrix dominate; no operator, order or pair loop
    # runs.  N = 512 matches the ROADMAP's classify baseline.
    n = 12 if small else 512
    D = random_quasimetric(np.random.default_rng(seed), n)
    if np.array_equal(D, D.T) or not satisfies_triangle(D):
        raise RuntimeError("generated matrix is not an asymmetric quasimetric")
    text = "\n".join(
        [f"points: {' '.join(map(str, range(n)))}", "dist:"] + _matrix_lines(D.tolist())
    ) + "\n"

    def check(out: str, rc: int) -> Optional[str]:
        lines = out.splitlines()
        if rc != 0 or lines[:2] != ["symmetric: no", "quasimetric: yes"]:
            return f"exit {rc}, stdout {lines[:2]!r}; expected asymmetric quasimetric"
        return None

    f = str(work / "dense.txt")
    return Workload(
        "dense-classify", {"dense.txt": text}, [Command("classify_s", ["classify", f], check)]
    )


# -- orbit-iterate ------------------------------------------------------------

_POINT = re.compile(r"\(([^,]+),([^)]+)\)")


def _near_one_one(text: str) -> bool:
    match = _POINT.search(text)
    return bool(match) and all(abs(float(v) - 1.0) <= 1e-6 for v in match.groups())


def _csv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def mixed_monotone_table(rng: random.Random, n: int) -> dict:
    """F(a,b) = (G[a] + K[b]) // 2 with G nondecreasing and K nonincreasing.

    F is isotone in a and antitone in b, so the coupled operator is monotone
    under L = {1}, and Picard iteration from a monotone start reaches a fixed
    point without cycling.
    """
    G = sorted(rng.randrange(n) for _ in range(n))
    K = sorted((rng.randrange(n) for _ in range(n)), reverse=True)
    return {(a, b): (G[a] + K[b]) // 2 for a in range(n) for b in range(n)}


def coupled_fixed_points(F: dict, n: int) -> list:
    return [(a, b) for a in range(n) for b in range(n) if F[a, b] == a and F[b, a] == b]


def coupled_auto_solve(F: dict, n: int) -> list:
    """Expected ``solve --start auto`` lines: the first point in canonical
    order that is comparable with its image under L = {1}, then Picard
    iteration from it to the fixed point it reaches."""
    for a, b in itertools.product(range(n), repeat=2):
        u, v = F[a, b], F[b, a]
        if a <= u and v <= b:
            direction = "ascending"
        elif u <= a and b <= v:
            direction = "descending"
        else:
            continue
        x, iters = (a, b), 1
        while (F[x], F[x[::-1]]) != x:
            x, iters = (F[x], F[x[::-1]]), iters + 1
        return [
            f"start=({a},{b}) direction={direction}",
            "status=converged",
            f"iters={iters}",
            f"point=({x[0]},{x[1]})",
            "residual=0",
        ]
    raise RuntimeError("no monotone start; the table is not mixed monotone")


def orbit_iterate(seed: int, work: Path, small: bool = False) -> Workload:
    # Why: operator evaluation, long iteration, output writing and big
    # tables.  The solver, game and operators layers do the work, as do the
    # CSV writers and the table parser with its order closure on a 100-point
    # chain; compare_L runs almost never.  check_mk_operator runs on supplied
    # samples, unlike its exhaustive use in chain-verify.
    #
    # The continuous file iterates (x,y) -> (a(x-y)+1, a(y-x)+1), a
    # contraction with factor 2a toward (1,1).  With a = 0.4999 the stop test
    # at tol 1e-10 fires after about 80k Picard steps, within 2.5e-7 of
    # (1,1); at tol 1e-9 it would stop 2.5e-6 away.  The sampled
    # Meir-Keeler check passes only for delta(r) < r (1/(2a) - 1), hence
    # "delta linear 1e-4".
    rng = random.Random(seed)
    alpha, samples, n = (0.45, 1000, 8) if small else (0.4999, 100_000, 100)
    continuous = "\n".join(
        [
            "space: box -10 10",
            f"family: linear-coupled {alpha} 1",
            "delta linear 1e-4",
            "start: 0 5",
            "tol: 1e-10",
            "max_iter: 1000000",
            "rounds: 1000000",
        ]
    ) + "\n"
    F = mixed_monotone_table(rng, n)
    table = [f"{a},{b} -> {c}" for (a, b), c in F.items()]
    rng.shuffle(table)
    finite = "\n".join(
        [f"points: {' '.join(map(str, range(n)))}", "dist:"]
        + _matrix_lines([[abs(i - j) for j in range(n)] for i in range(n)])
        + ["order:", *_chain_block(n), "lambda: coupled", "F:", *table, "L: 1"]
    ) + "\n"

    cont, tab = str(work / "continuous.txt"), str(work / "table.txt")
    trace_csv, game_csv = str(work / "trace.csv"), str(work / "game.csv")

    def check_solve(out: str, rc: int) -> Optional[str]:
        fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        if rc != 0 or fields.get("status") != "converged":
            return f"exit {rc}, stdout {out[:200]!r}; expected convergence"
        if not _near_one_one(fields.get("point", "")):
            return f"point {fields.get('point')} is not within 1e-6 of (1,1)"
        if _csv_rows(trace_csv) != int(fields["iters"]):
            return f"trace CSV rows differ from iters={fields['iters']}"
        return None

    def check_game(out: str, rc: int) -> Optional[str]:
        match = re.fullmatch(r"optimal=yes rounds=(\d+) final=(\(.*\))", out.strip())
        if rc != 0 or not match or not _near_one_one(match.group(2)):
            return f"exit {rc}, stdout {out[:200]!r}; expected optimal=yes near (1,1)"
        if _csv_rows(game_csv) != 2 * int(match.group(1)):
            return "game CSV rows differ from 2 * rounds"
        return None

    return Workload(
        "orbit-iterate",
        {"continuous.txt": continuous, "table.txt": finite},
        [
            Command("solve_trace_s", ["solve", cont, "--trace", trace_csv], check_solve),
            Command("game_s", ["game", cont, "--out", game_csv], check_game),
            Command(
                "check_mkop_s",
                ["check", cont, "--condition", "mk-op",
                 "--samples", str(samples), "--seed", str(seed)],
                _expect_lines(f"SAMPLED-PASS seed={seed} n={samples}"),
            ),
            Command(
                "enumerate_s",
                ["enumerate", tab],
                _expect_lines(*(f"({a},{b})" for a, b in coupled_fixed_points(F, n))),
            ),
            Command(
                "solve_auto_s",
                ["solve", tab, "--start", "auto"],
                _expect_lines(*coupled_auto_solve(F, n)),
            ),
        ],
    )


WORKLOADS = {
    "chain-verify": chain_verify,
    "dense-classify": dense_classify,
    "orbit-iterate": orbit_iterate,
}
