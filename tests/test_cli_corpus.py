"""Golden CLI corpus: every module-level problem text of ``test_cli`` run
in process through each command line below.  Stdout, stderr (with the
problem file's path masked) and the exit code must match
``cli_corpus.json`` byte for byte.  A command that names ``<csv>`` writes
a CSV there; the sha256 of what it wrote (null when it wrote nothing) must
match too.

Run this file as a script to rewrite the JSON from the current code:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import test_cli
from multifix.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")
MASK = "<problem>"
CSV = "<csv>"

TEXTS = {
    name: value
    for name, value in vars(test_cli).items()
    if name.isupper() and isinstance(value, str)
}

COMMANDS = [
    ["classify"],
    ["enumerate"],
    ["solve"],
    ["solve", "--start", "auto"],
    ["game"],
    *(
        ["check", "--condition", c]
        for c in ("omega1", "omega2", "omega3", "omega4", "mk1", "mk2", "mk-op")
    ),
    ["check", "--condition", "mk-op", "--metric", "sum"],
    ["check", "--condition", "mk-op", "--r-grid", "0.5,1"],
    ["check", "--condition", "mk-op", "--metric", "sum", "--r-grid", "0.5,1"],
    # The command forms of the benchmark's workloads.
    ["check", "--condition", "mk1", "--r-grid", "0.5"],
    ["check", "--condition", "mk2", "--r-grid", "0.5"],
    ["check", "--condition", "mk-op", "--samples", "500", "--seed", "3"],
    ["solve", "--trace", CSV],
    ["game", "--out", CSV],
    # Option values outside their domain.
    ["solve", "--tol", "inf"],
    ["game", "--tol", "inf"],
    ["check", "--condition", "mk-op", "--r-grid", "inf"],
    *(
        ["verify", "--condition", c]
        for c in ("omega1", "omega2", "omega3", "omega4", "mk1", "mk2")
    ),
]


def run(directory: Path, text: str, command: list) -> dict:
    """The CLI's stdout, stderr and exit code on ``text``."""
    path = directory / "problem.prob"
    path.write_text(text)
    csv_path = directory / "out.csv"
    csv_path.unlink(missing_ok=True)
    argv = [str(csv_path) if token == CSV else token for token in command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command[0], str(path), *argv])
        except SystemExit as exc:
            code = exc.code
    result = {
        "stdout": out.getvalue().replace(str(path), MASK),
        "stderr": err.getvalue().replace(str(path), MASK),
        "code": code,
    }
    if CSV in command:
        written = csv_path.is_file()
        result["csv_sha256"] = (
            hashlib.sha256(csv_path.read_bytes()).hexdigest() if written else None
        )
    return result


def run_all(directory: Path) -> dict:
    return {
        f"{name} :: {' '.join(command)}": run(directory, text, command)
        for name, text in TEXTS.items()
        for command in COMMANDS
    }


def test_cli_output_matches_the_corpus(tmp_path):
    want = json.loads(CORPUS.read_text())
    got = run_all(tmp_path)
    assert sorted(got) == sorted(want)
    differ = [k for k in want if got[k] != want[k]]
    assert not differ, f"{len(differ)} runs differ, first {differ[0]}: {got[differ[0]]}"


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)  # as the pytest config does
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_all(Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} runs to {CORPUS}", file=sys.stderr)
