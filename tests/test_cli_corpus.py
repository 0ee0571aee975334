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
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
    ["solve", "--start", "1,1"],
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
    assert got == want, corpus_diff(want, got)


def corpus_diff(want: dict, got: dict) -> str:
    """The keys a run added, removed or changed against the corpus, with the
    changed runs' new output."""
    added = sorted(got.keys() - want.keys())
    removed = sorted(want.keys() - got.keys())
    changed = sorted(k for k in want.keys() & got.keys() if got[k] != want[k])
    lines = [f"added {len(added)}: {added}", f"removed {len(removed)}: {removed}"]
    lines.append(f"changed {len(changed)}:")
    lines += [f"  {k}: {got[k]}" for k in changed]
    return "\n".join(lines)


def test_a_corpus_diff_names_every_added_removed_and_changed_key():
    want = {"A :: solve": 1, "B :: solve": 2, "C :: solve": 3}
    got = {"A :: solve": 1, "B :: solve": 5, "D :: solve": 4}
    assert corpus_diff(want, got) == (
        "added 1: ['D :: solve']\nremoved 1: ['C :: solve']\nchanged 1:\n  B :: solve: 5"
    )


# Numbers at the edges of the float range, swapped into the corpus texts,
# and spellings that float() takes but numpy's text reader refuses, so that
# a dist block also takes the parser's row-by-row path.
EDGE_NUMBERS = ["-0", "5e-324", str(2**53 + 1), "1e308", "nan", "inf", "1e400", "1_0", "\uff11"]
# A number token: not the digit of a label such as "x0", nor part of a longer
# number.
NUMBER = re.compile(r"(?<![\w.+-])[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?(?![\w.])", re.IGNORECASE)


def number_spans(text: str) -> list:
    """Where ``text``'s number tokens are, but for a round count: a game that
    never settles would play all 2**53 + 1 rounds it is given."""
    return [
        match.span()
        for match in NUMBER.finditer(text)
        if not text[text.rfind("\n", 0, match.start()) + 1 :].startswith("rounds:")
    ]


@st.composite
def edge_runs(draw):
    """A corpus text with one or two number tokens swapped for edge numbers,
    and a corpus command line to run on it."""
    text = draw(st.sampled_from(sorted(TEXTS.values())))
    spans = draw(st.lists(st.sampled_from(number_spans(text)), min_size=1, max_size=2, unique=True))
    for start, end in sorted(spans, reverse=True):
        text = text[:start] + draw(st.sampled_from(EDGE_NUMBERS)) + text[end:]
    return text, draw(st.sampled_from(COMMANDS))


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edge")


@settings(max_examples=50, deadline=5000)
@example(case=(test_cli.OVERFLOW_TABLE, ["check", "--condition", "omega1"]))
# A fullwidth '1' in a dist row: the same table, read row by row.
@example(
    case=(
        test_cli.CONSTANT_CHAIN.replace("\n1 0 1\n", "\n\uff11 0 1\n"),
        ["verify", "--condition", "omega1"],
    )
)
@given(case=edge_runs())
def test_edge_numbers_give_a_verdict_or_an_error_message(edge_dir, case):
    # Any warning, numpy's overflow included, is raised; an exception that
    # escapes main fails the test with its traceback.
    text, command = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(edge_dir, text, command)
    assert result["code"] in (0, 1, 2, 4), result
    assert "Traceback" not in result["stderr"]


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)  # as the pytest config does
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_all(Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} runs to {CORPUS}", file=sys.stderr)
