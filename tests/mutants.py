"""Mutation sweep: flip the strictness of one comparison at a time and see
whether the tests notice.

Each mutant turns one ``<`` into ``<=``, ``<=`` into ``<``, ``>`` into ``>=``
or ``>=`` into ``>`` in one module of ``src/multifix``, in a temporary copy
of ``src/``; the checkout is never written.  The module's test file
(``tests/test_<module>.py``, or the files given with ``--tests``) then runs
with ``-x`` against the copy.  A mutant is killed when the run fails or
times out, and survives when it passes.  A survivor marks a missing test or
code that cannot change a result.

Run it as a script; pytest does not collect it, and a sweep takes minutes::

    python tests/mutants.py spaces.py solver.py
    python tests/mutants.py conditions.py --tests tests/test_conditions.py tests/test_kernel.py

It prints each survivor as ``module:line`` with the mutated comparison, and
exits 1 when a survivor is not listed below as equivalent.

Equivalent mutants, which cannot change a result:

- ``conditions.py``, the sampler's clips ``hi < y`` and ``lo > y``: when the
  bound equals ``y``, copying it changes nothing.
- ``spaces.py``, guards that only skip work: ``arr.min(initial=0.0) < 0`` in
  ``from_matrix`` skips the negative-entry masks, which find nothing on a
  table without a negative entry, and the column filter
  ``np.count_nonzero(A, axis=0) > A.diagonal()`` of the reachability loop
  skips columns whose only entry is on the diagonal, which add row ``y`` to
  itself.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multifix"

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}

# (module, mutated comparison) of the equivalent mutants above.
EQUIVALENT = {
    ("conditions.py", "hi <= y"),
    ("conditions.py", "lo >= y"),
    ("spaces.py", "arr.min(initial=0.0) <= 0"),
    ("spaces.py", "np.count_nonzero(A, axis=0) >= A.diagonal()"),
}


def mutants(source: str):
    """Yield (line, comparison, mutated comparison, mutated source) for each
    strictness flip; a comparison's text is joined onto one line."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(row: int, byte_col: int) -> int:
        # ast columns count UTF-8 bytes; the source string counts characters.
        line = lines[row - 1]
        return starts[row - 1] + len(line.encode()[:byte_col].decode())

    ops = [
        (starts[tok.start[0] - 1] + tok.start[1], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP and tok.string in ("<", "<=", ">", ">=")
    ]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        start = offset(node.lineno, node.col_offset)
        end = offset(node.end_lineno, node.end_col_offset)
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if type(op) in FLIPS:
                old, new = FLIPS[type(op)]
                lo = offset(left.end_lineno, left.end_col_offset)
                hi = offset(right.lineno, right.col_offset)
                (at,) = [pos for pos, string in ops if lo <= pos < hi and string == old]
                mutated = source[:at] + new + source[at + len(old):]
                text = mutated[start:end + len(new) - len(old)]
                yield node.lineno, one_line(source[start:end]), one_line(text), mutated
            left = right


def one_line(text: str) -> str:
    return " ".join(text.split())


def run_tests(src: Path, tests: list[Path], timeout: float) -> tuple[bool, float]:
    """Whether the tests pass against the package in ``src``, and how long
    they took; a run past ``timeout`` counts as a failure."""
    # No bytecode: two mutants of one module written in the same second, at
    # the same size, would share one cached file past Python's staleness check.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    # The ini's ``pythonpath = src`` would put the checkout first.
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *map(str, tests),
    ]
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, timeout
    return done.returncode == 0, time.monotonic() - started


def sweep(module: str, tests: list[Path], src: Path) -> list[tuple[int, str, str]]:
    """Run every mutant of ``module`` in the copy at ``src``; return the
    survivors as (line, comparison, mutated comparison)."""
    target = src / "multifix" / module
    original = target.read_text()
    ok, baseline = run_tests(src, tests, timeout=3600)
    if not ok:
        raise SystemExit(f"{module}: the tests fail before any mutation")
    survivors = []
    found = list(mutants(original))
    for k, (line, text, flipped, mutated) in enumerate(found, 1):
        target.write_text(mutated)
        try:
            passed, elapsed = run_tests(src, tests, timeout=max(60.0, 5 * baseline))
        finally:
            target.write_text(original)
        status = "SURVIVED" if passed else "killed"
        print(f"  [{k}/{len(found)}] {module}:{line} {flipped}: {status} ({elapsed:.0f} s)",
              flush=True)
        if passed:
            survivors.append((line, text, flipped))
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module file names under src/multifix")
    parser.add_argument(
        "--tests", nargs="+", type=lambda p: Path(p).resolve(), help="test files for every module"
    )
    args = parser.parse_args(argv)
    unlisted = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "multifix", ignore=shutil.ignore_patterns("__pycache__"))
        for module in args.modules:
            tests = args.tests or [ROOT / "tests" / f"test_{Path(module).stem}.py"]
            names = " ".join(str(t.relative_to(ROOT)) for t in tests)
            print(f"{module}: tests {names}", flush=True)
            survivors = sweep(module, tests, src)
            for line, text, flipped in survivors:
                listed = (module, flipped) in EQUIVALENT
                unlisted += not listed
                verdict = "equivalent" if listed else "SURVIVED"
                print(f"{module}:{line}: {text} -> {flipped}  [{verdict}]")
            print(f"{module}: {len(survivors)} survivor(s)", flush=True)
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
