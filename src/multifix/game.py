"""Position-correction game: players share a position space, a correction
operator rewrites the joint selection each round, and a selection is optimal
once the correction leaves it fixed."""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
import os
import stat
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

from .operators import LambdaFamily, MultiOperator, bind_lambda_f, check_lambda_arity
from .spaces import DistanceSpace

Point = Any


@dataclass
class GameConfig:
    space: DistanceSpace
    F: MultiOperator
    family: LambdaFamily
    rounds: int = 100
    tol: float = 1e-9

    def __post_init__(self):
        if self.F.m != self.family.m:
            raise ValueError("operator and index family arities differ")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and nonnegative")


@dataclass
class Round:
    selection: tuple
    nonconvenience: tuple  # per-player d(x_i, y_i) toward the corrected tuple


class Play:
    """The rounds of one game from ``start``, produced as they are played, so
    a caller that streams them keeps none.  The start is checked when the
    play is made.  The play ends at the first optimal round, at the first
    round whose non-convenience sum is not finite, or after ``rounds``.
    Iterate it once; then ``count``, ``last`` and ``optimal`` hold the
    number of rounds, the last round and whether it was optimal.
    An optimal selection outside the carrier raises :class:`CarrierError`."""

    def __init__(self, game: GameConfig, start: Sequence[Point]):
        x = tuple(start)
        for c in x:
            game.space.require(c)
        check_lambda_arity(game.F, game.family, x)
        self._game = game
        self._start = x
        self.count = 0
        self.last: Optional[Round] = None
        self.optimal = False

    def __iter__(self) -> Iterator[Round]:
        game = self._game
        lam = bind_lambda_f(game.F, game.family)
        dist = game.space.dist
        x = self._start
        for _ in range(game.rounds):
            nxt = lam(x)
            nonconv = tuple(map(dist, x, nxt))
            self.count += 1
            self.last = Round(x, nonconv)
            yield self.last
            # Added left to right, as sum_distance does.
            total = functools.reduce(operator.add, nonconv)
            if total <= game.tol:
                for c in x:  # F need not map the carrier into itself
                    game.space.require(c)
                self.optimal = True
                return
            if not math.isfinite(total):  # diverged, as picard_solve stops
                return
            x = nxt


# Lines joined into each write of a CSV file.
CSV_BLOCK_LINES = 4096


def write_csv(path: str, header: str, lines: Iterable[str]) -> None:
    """Write ``header`` and then ``lines``, each one CSV line ending in CRLF,
    to ``path``, a block of lines per write.

    All or nothing: the lines go to a sibling file that is renamed over
    ``path`` only once the last is written, so a raise while ``lines`` is
    consumed leaves an existing file untouched and creates none.  The file
    gets the mode ``open(path, "w")`` would leave.  A path that exists but is
    no writable regular file (a directory, a device, a read-only file) is
    opened in place, so it fails, or is written, as ``open`` would.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target) and os.access(target, os.W_OK)):
        with open(path, "w", newline="") as fh:
            _write_blocks(fh, header, lines)
        return
    part = f"{target}.{os.urandom(4).hex()}.part"
    try:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies
    except OSError as exc:  # name the path asked for, as open(path) would
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", newline="") as fh:
            if os.path.exists(target):  # open(path, "w") keeps an existing file's mode
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            _write_blocks(fh, header, lines)
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def _write_blocks(fh, header: str, lines: Iterable[str]) -> None:
    fh.write(header)
    lines = iter(lines)
    while block := list(itertools.islice(lines, CSV_BLOCK_LINES)):
        fh.write("".join(block))


def write_trajectory_csv(rounds: Iterable[Round], path: str) -> None:
    """Persist one row per (round, player): position and non-convenience,
    with the bytes ``csv.writer`` writes.  ``rounds`` is consumed once, so a
    :class:`Play` streams into the file."""
    write_csv(
        path,
        "round,player,position,nonconvenience\r\n",
        (
            f"{r},{i},{_field(pos)},{_field(nc)}\r\n"
            for r, rec in enumerate(rounds, start=1)
            for i, (pos, nc) in enumerate(zip(rec.selection, rec.nonconvenience), 1)
        ),
    )


def _field(value) -> str:
    """``csv.writer``'s text for one field.  A float's is its repr, which
    never needs quoting; a label's is formatted once per distinct label."""
    if type(value) is float:
        return repr(value)
    if type(value) is str:
        return _label_field(value)
    return _csv_field(value)


@functools.lru_cache(maxsize=1024)
def _label_field(label: str) -> str:
    return _csv_field(label)


def _csv_field(value) -> str:
    buf = io.StringIO()
    # The leading 0 keeps an empty value from being quoted as an empty row.
    csv.writer(buf).writerow((0, value))
    return buf.getvalue()[2:-2]
