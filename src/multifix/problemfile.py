"""Plain-text problem files: one format shared by every CLI command.

Block layout (each block at most once, in any order; '#' starts a comment):

    points: a b c          finite carrier labels
    dist:                  n rows of n nonnegative reals (row i = d(p_i, .))
    order:                 lines "a <= b" over the points (closure is taken at load)
    space: box LO HI       continuous 1-D carrier [LO, HI] instead of points/dist
    lambda:                m rows of m 1-based indices, or "lambda: coupled"
    F:                     table lines "a,b -> c", or "family: NAME ARGS"
    L: 1 3                 index subset (may be empty: "L:")
    delta linear C         Meir-Keeler modulus (also "delta const C")
    start: a b             initial tuple (labels or numbers)
    tol/max_iter/rounds/metric:   solver and game parameters

The dist, order and F headers take no text on their line: their rows follow
it.  Distances follow Python's float() grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._numpy import np
from .conditions import MeirKeelerModulus
from .errors import EvaluationError, ParseError
from .operators import (
    ElementwiseOperator,
    LambdaFamily,
    MultiOperator,
    coupled_preset,
    tripled_preset,
)
from .orders import LSet, OrderRelation
from .product import ProductKind
from .spaces import DistanceSpace


@dataclass
class ProblemFile:
    space: Optional[DistanceSpace] = None
    order: Optional[OrderRelation] = None
    family: Optional[LambdaFamily] = None
    operator: Optional[MultiOperator] = None
    lset: Optional[LSet] = None
    delta: Optional[MeirKeelerModulus] = None
    start: Optional[tuple] = None
    tol: Optional[float] = None
    max_iter: Optional[int] = None
    rounds: Optional[int] = None
    metric: Optional[ProductKind] = None

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            block = _SOURCE_BLOCKS.get(name, f"'{name}'")
            raise ParseError(f"problem file is missing the {block} block")
        return value


# The blocks that give a field whose name differs from theirs.
_SOURCE_BLOCKS = {
    "space": "'points' and 'dist', or 'space'",
    "operator": "'F' or 'family'",
    "family": "'lambda'",
}


def make_family_operator(name: str, args: list[float]) -> tuple[MultiOperator, int]:
    """Named parametric operators over continuous carriers."""
    if name == "linear-coupled":
        if len(args) != 2:
            raise ValueError("linear-coupled takes: alpha beta")
        a, b = args
        return ElementwiseOperator(2, lambda x, y: a * (x - y) + b), 2
    if name == "linear-tripled":
        if len(args) != 2:
            raise ValueError("linear-tripled takes: alpha beta")
        a, b = args
        return ElementwiseOperator(3, lambda x, y, z: a * (x - 2 * y + z) + b), 3
    if name == "affine-coupled":
        if len(args) != 3:
            raise ValueError("affine-coupled takes: a b c")
        a, b, c = args
        return ElementwiseOperator(2, lambda x, y: a * x + b * y + c), 2
    raise ValueError(f"unknown operator family {name!r}")


def _number(text: str, what: str, ln: int) -> float:
    """A finite real read from a header value, else ParseError at line ``ln``."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what} must be a number, got {text!r}", ln)
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {text!r}", ln)
    return value


def _integer(text: str, what: str, ln: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}", ln)


class _Lines:
    """The file's content lines with their 1-based numbers: comments and
    blank lines dropped, each line split and stripped once."""

    def __init__(self, text: str):
        self.items = [
            (number, line)
            for number, raw in enumerate(text.splitlines(), 1)
            if (line := raw.split("#", 1)[0].strip())
        ]
        self.pos = 0

    def next_content(self) -> Optional[tuple[int, str]]:
        """Next non-blank, non-comment line with its 1-based number."""
        if self.pos == len(self.items):
            return None
        self.pos += 1
        return self.items[self.pos - 1]

    def take(self, count: int) -> list[tuple[int, str]]:
        """The next ``count`` content lines, or all that are left."""
        start = self.pos
        self.pos = min(start + count, len(self.items))
        return self.items[start : self.pos]

    def block(self, marker: Optional[str] = None) -> list[tuple[int, str]]:
        """The content lines up to the next block header or the file's end; a
        line holding ``marker`` is a block line (a label may hold a colon)."""
        items, start = self.items, self.pos
        self.pos = len(items)
        for end, (_, line) in enumerate(items[start:], start):
            # A header has a colon or starts with "delta" (see _header);
            # most block lines hold the marker or neither, and skip the call.
            if marker is not None and marker in line:
                continue
            if (":" in line or line[:5].lower() == "delta") and _header(line) is not None:
                self.pos = end
                break
        return items[start : self.pos]


_HEADERS = {
    "points", "dist", "order", "space", "lambda", "f", "family",
    "l", "delta", "start", "tol", "max_iter", "rounds", "metric",
}


def _header(line: str) -> Optional[tuple[str, str]]:
    """(name, rest) of a line that opens a block, ``name: rest`` with a known
    name or ``delta linear|const C``; None for any other line."""
    head, colon, rest = line.partition(":")
    if not colon:
        # Only a line that starts with "delta" can be one; most are not.
        if line[:5].lower() != "delta" or line.lower().split()[:2] not in (
            ["delta", "linear"], ["delta", "const"]
        ):
            return None
        head, rest = line.split(None, 1)
    head = head.strip().lower()
    return (head, rest.strip()) if head in _HEADERS else None


def _dist_matrix(rows: list[tuple[int, str]], n: int, ln: int) -> np.ndarray:
    """The n x n table of the ``dist:`` block opened on line ``ln``, read
    from its row lines (fewer than ``n`` if the file ends), else ParseError
    at the first bad row."""
    if len(rows) == n:
        # numpy's C reader stores the double float() gives for every token
        # it accepts, but refuses some float() takes ('1_0', fullwidth
        # digits); those tables, and every refused one, take the row loop.
        try:
            matrix = np.loadtxt([line for _, line in rows], ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if matrix.shape == (n, n) and np.isfinite(matrix).all():
                return matrix
    matrix = np.empty((n, n))
    for i, (rln, row_line) in enumerate(rows):
        # Python's float() grammar, so '1_0' is 10, into one array.
        try:
            row = np.fromiter(map(float, row_line.split()), float)
        except ValueError:
            raise ParseError(f"bad distance row {row_line!r}", rln)
        if len(row) != n:
            raise ParseError(f"distance row has {len(row)} entries, expected {n}", rln)
        if not np.isfinite(row).all():
            raise ParseError(f"distance row {row_line!r} is not finite", rln)
        matrix[i] = row
    if len(rows) < n:
        raise ParseError("dist block is truncated", ln)
    return matrix


# Blocks that give the same part of a problem two ways: a file uses one.
_ALTERNATIVES = {
    "points": ("space", "carrier"),
    "space": ("points", "carrier"),
    "f": ("family", "operator"),
    "family": ("f", "operator"),
}
_SPELLING = {"f": "F", "l": "L"}


def parse_problem(text: str) -> ProblemFile:
    lines = _Lines(text)
    pf = ProblemFile()
    # Each block's header line, for errors found once the file is read.
    block_line: dict[str, int] = {}
    labels: Optional[tuple] = None
    matrix: Optional[np.ndarray] = None
    order_pairs: list[tuple] = []
    table_lines: list[tuple[int, str]] = []
    family_spec: Optional[tuple[str, list[float]]] = None
    lambda_rows: Optional[list[tuple[int, ...]]] = None
    l_spec: Optional[tuple[int, tuple[int, ...]]] = None  # (line, indices)
    start_spec: Optional[tuple[int, list[str]]] = None  # (line, tokens)

    while True:
        item = lines.next_content()
        if item is None:
            break
        ln, line = item
        header = _header(line)
        if header is None:
            head, colon, _ = line.partition(":")
            if colon:
                raise ParseError(f"unknown block {head.strip().lower()!r}", ln)
            raise ParseError(f"expected a block header 'name: ...', got {line!r}", ln)
        head, rest = header
        if head in block_line:
            name, first = _SPELLING.get(head, head), block_line[head]
            raise ParseError(f"the '{name}' block is given twice: here and on line {first}", ln)
        block_line[head] = ln
        other, what = _ALTERNATIVES.get(head, (None, None))
        if other in block_line:
            raise ParseError(
                f"the {what} is given twice: '{_SPELLING.get(head, head)}' here and "
                f"'{_SPELLING.get(other, other)}' on line {block_line[other]}",
                ln,
            )
        if rest and head in ("dist", "order", "f"):
            name = _SPELLING.get(head, head)
            raise ParseError(f"the '{name}:' header takes no text on its line, got {rest!r}", ln)

        if head == "points":
            labels = tuple(rest.split())
            if not labels:
                raise ParseError("points block lists no labels", ln)
            if len(set(labels)) != len(labels):
                raise ParseError("carrier labels must be distinct", ln)
        elif head == "dist":
            if labels is None:
                raise ParseError("dist block must follow points", ln)
            matrix = _dist_matrix(lines.take(len(labels)), len(labels), ln)
        elif head == "order":
            for pln, pair_line in lines.block("<="):
                parts = pair_line.split("<=")
                if len(parts) != 2:
                    raise ParseError(f"expected 'a <= b', got {pair_line!r}", pln)
                order_pairs.append((parts[0].strip(), parts[1].strip()))
        elif head == "space":
            toks = rest.split()
            if len(toks) != 3 or toks[0] != "box":
                raise ParseError("space block must be 'space: box LO HI'", ln)
            lo, hi = (_number(t, "box bound", ln) for t in toks[1:])
            if lo > hi:
                raise ParseError(f"box bounds need LO <= HI, got {toks[1]} > {toks[2]}", ln)
            pf.space = DistanceSpace.reals(lo, hi)
        elif head == "lambda":
            if rest == "coupled":
                pf.family = coupled_preset()
            elif rest == "tripled":
                pf.family = tripled_preset()
            elif rest:
                raise ParseError(f"unknown lambda preset {rest!r}", ln)
            else:
                lambda_rows = []
                for rln, row_line in lines.block():
                    try:
                        lambda_rows.append(tuple(int(t) for t in row_line.split()))
                    except ValueError:
                        raise ParseError(f"bad lambda row {row_line!r}", rln)
        elif head == "f":
            table_lines = lines.block("->")
        elif head == "family":
            toks = rest.split()
            if not toks:
                raise ParseError("family block needs a name", ln)
            family_spec = (toks[0], [_number(t, "family parameter", ln) for t in toks[1:]])
        elif head == "l":
            l_spec = (ln, tuple(_integer(t, "L index", ln) for t in rest.split()))
        elif head == "delta":
            toks = rest.split()
            if len(toks) != 2 or toks[0] not in ("linear", "const"):
                raise ParseError("delta block must be 'delta linear C' or 'delta const C'", ln)
            c = _number(toks[1], f"delta {toks[0]} value", ln)
            try:
                pf.delta = MeirKeelerModulus(c, toks[0])
            except ValueError as exc:
                raise ParseError(str(exc), ln)
        elif head == "start":
            start_spec = (ln, rest.split())
        elif head == "tol":
            pf.tol = _number(rest, "tol", ln)
        elif head == "max_iter":
            pf.max_iter = _integer(rest, "max_iter", ln)
        elif head == "rounds":
            pf.rounds = _integer(rest, "rounds", ln)
        elif head == "metric":
            if rest.lower() not in ("sup", "sum"):
                raise ParseError("metric must be sup or sum", ln)
            pf.metric = ProductKind.SUP if rest.lower() == "sup" else ProductKind.SUM
        else:
            raise ParseError(f"unknown block {head!r}", ln)

    # -- assemble ------------------------------------------------------------

    if "order" in block_line and labels is None:
        raise ParseError("order blocks need a finite carrier", block_line["order"])
    if labels is not None:
        if matrix is None:
            raise ParseError("points block without a dist block", block_line["points"])
        try:
            pf.space = DistanceSpace.from_matrix(labels, matrix)
        except ValueError as exc:
            raise ParseError(str(exc), block_line["dist"])
        if "order" in block_line:
            try:
                pf.order = OrderRelation.from_pairs(labels, order_pairs)
            except ValueError as exc:
                raise ParseError(str(exc), block_line["order"])

    if family_spec is not None:
        if labels is not None:
            raise ParseError("operator families need a box carrier", block_line["family"])
        try:
            pf.operator, m = make_family_operator(*family_spec)
        except ValueError as exc:
            raise ParseError(str(exc), block_line["family"])
        if pf.family is None:
            pf.family = coupled_preset() if m == 2 else tripled_preset()
    elif table_lines:
        if labels is None:
            raise ParseError("operator tables need a finite carrier", block_line["f"])
        table = {}
        points = set(labels)
        for tln, entry in table_lines:
            lhs, arrow, rhs = entry.partition("->")
            key = tuple(map(str.strip, lhs.split(",")))
            value = rhs.strip()
            if not (arrow and points.issuperset(key) and value in points and key not in table):
                if not arrow:
                    raise ParseError(f"expected 'a,b -> c', got {entry!r}", tln)
                unknown = [t for t in (*key, value) if t not in points]
                if unknown:
                    message = f"operator entry {entry!r}: {unknown[0]!r} is not a point"
                    raise ParseError(message, tln)
                raise ParseError(f"duplicate operator entry for {lhs.strip()!r}", tln)
            table[key] = value
        arity = len(next(iter(table)))
        if any(len(k) != arity for k in table):
            raise ParseError("operator table rows have inconsistent arity", block_line["f"])
        try:
            pf.operator = MultiOperator.from_table(arity, table, labels)
        except (EvaluationError, ValueError) as exc:
            raise ParseError(str(exc), block_line["f"])

    if lambda_rows is not None:
        try:
            pf.family = LambdaFamily(len(lambda_rows), tuple(lambda_rows))
        except ValueError as exc:
            raise ParseError(str(exc), block_line["lambda"])

    if matrix is not None and pf.family is not None:
        # The checks add d(x, y) + d(y, x) over the m coordinates of a
        # product point; refuse a table on which that sum overflows.
        m, largest = pf.family.m, float(matrix.max())
        if not math.isfinite(2 * m * largest):
            raise ParseError(
                f"distance {largest!r} is too large for arity {m}: 2 * {m} * {largest!r} overflows",
                block_line["dist"],
            )

    if l_spec is not None:
        lln, indices = l_spec
        if pf.family is None:
            raise ParseError("L block needs a lambda block to fix the arity", lln)
        try:
            pf.lset = LSet(pf.family.m, frozenset(indices))
        except ValueError as exc:
            raise ParseError(str(exc), lln)

    if start_spec is not None:
        sln, tokens = start_spec
        if pf.space is not None and pf.space.is_finite:
            pf.start = tuple(tokens)
        else:
            pf.start = tuple(_number(t, "start coordinate", sln) for t in tokens)

    if pf.operator is not None and pf.family is not None:
        if pf.operator.m != pf.family.m:
            raise ParseError(
                f"operator arity {pf.operator.m} does not match lambda arity {pf.family.m}",
                block_line["lambda"],
            )
    return pf


def load_problem(path: str) -> ProblemFile:
    with open(path) as fh:
        return parse_problem(fh.read())
