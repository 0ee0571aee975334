"""Plain-text problem files: one format shared by every CLI command.

Block layout (order free, '#' starts a comment):

    points: a b c          finite carrier labels
    dist:                  n rows of n nonnegative reals (row i = d(p_i, .))
    order:                 lines "a <= b" (closure is taken at load)
    space: box LO HI       continuous 1-D carrier instead of points/dist
    complete: yes|no       completeness flag for continuous carriers
    lambda:                m rows of m 1-based indices, or "lambda: coupled"
    F:                     table lines "a,b -> c", or "family: NAME ARGS"
    L: 1 3                 index subset (may be empty: "L:")
    delta linear C         Meir-Keeler modulus (also "delta const C")
    start: a b             initial tuple (labels or numbers)
    tol/max_iter/rounds/metric:   solver and game parameters
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .conditions import MeirKeelerModulus
from .errors import ParseError
from .operators import LambdaFamily, MultiOperator, coupled_preset, tripled_preset
from .orders import LSet, OrderRelation
from .product import ProductKind
from .spaces import Box, DistanceSpace


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
            raise ParseError(f"problem file is missing the '{name}' block")
        return value


def make_family_operator(name: str, args: list[float]) -> tuple[MultiOperator, int]:
    """Named parametric operators over continuous carriers."""
    if name == "linear-coupled":
        if len(args) != 2:
            raise ValueError("linear-coupled takes: alpha beta")
        a, b = args
        return MultiOperator(2, lambda x, y: a * (x - y) + b), 2
    if name == "linear-tripled":
        if len(args) != 2:
            raise ValueError("linear-tripled takes: alpha beta")
        a, b = args
        return MultiOperator(3, lambda x, y, z: a * (x - 2 * y + z) + b), 3
    if name == "affine-coupled":
        if len(args) != 3:
            raise ValueError("affine-coupled takes: a b c")
        a, b, c = args
        return MultiOperator(2, lambda x, y: a * x + b * y + c), 2
    raise ValueError(f"unknown operator family {name!r}")


def _tokens(line: str) -> list[str]:
    return line.split()


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
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self) -> Optional[tuple[int, str]]:
        """Next non-blank, non-comment line with its 1-based number."""
        while self.pos < len(self.raw):
            self.pos += 1
            line = self.raw[self.pos - 1].split("#", 1)[0].strip()
            if line:
                return self.pos, line
        return None

    def peek_header(self) -> bool:
        """True if the next content line opens a block: ``name:`` or ``delta linear|const``."""
        save = self.pos
        item = self.next_content()
        self.pos = save
        if item is None:
            return True
        head, colon, _ = item[1].lower().partition(":")
        if colon:
            return head.strip() in _HEADERS
        return head.split()[:2] in (["delta", "linear"], ["delta", "const"])


_HEADERS = {
    "points", "dist", "order", "space", "complete", "lambda", "f", "family",
    "l", "delta", "start", "tol", "max_iter", "rounds", "metric",
}


def parse_problem(text: str) -> ProblemFile:
    lines = _Lines(text)
    pf = ProblemFile()
    labels: Optional[tuple] = None
    matrix: Optional[list[list[float]]] = None
    order_pairs: list[tuple] = []
    saw_order = False
    box: Optional[Box] = None
    complete = None
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
        if ":" in line:
            head, rest = line.split(":", 1)
        else:
            head, rest = line.split(None, 1) if " " in line else (line, "")
        head = head.strip().lower()
        rest = rest.strip()

        if head == "points":
            labels = tuple(_tokens(rest))
            if not labels:
                raise ParseError("points block lists no labels", ln)
        elif head == "dist":
            if labels is None:
                raise ParseError("dist block must follow points", ln)
            matrix = []
            for _ in range(len(labels)):
                row_item = lines.next_content()
                if row_item is None:
                    raise ParseError("dist block is truncated", ln)
                rln, row_line = row_item
                try:
                    row = [float(t) for t in _tokens(row_line)]
                except ValueError:
                    raise ParseError(f"bad distance row {row_line!r}", rln)
                if len(row) != len(labels):
                    raise ParseError(
                        f"distance row has {len(row)} entries, expected {len(labels)}",
                        rln,
                    )
                # A finite sum clears the row in one step; it can only be
                # non-finite through a non-finite entry or an overflow.
                if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                    raise ParseError(f"distance row {row_line!r} is not finite", rln)
                matrix.append(row)
        elif head == "order":
            saw_order = True
            while not lines.peek_header():
                pln, pair_line = lines.next_content()
                parts = pair_line.split("<=")
                if len(parts) != 2:
                    raise ParseError(f"expected 'a <= b', got {pair_line!r}", pln)
                order_pairs.append((parts[0].strip(), parts[1].strip()))
        elif head == "space":
            toks = _tokens(rest)
            if len(toks) != 3 or toks[0] != "box":
                raise ParseError("space block must be 'space: box LO HI'", ln)
            lo, hi = (_number(t, "box bound", ln) for t in toks[1:])
            box = Box(((lo, hi),))
        elif head == "complete":
            complete = rest.lower() in ("yes", "true", "1")
        elif head == "lambda":
            if rest == "coupled":
                pf.family = coupled_preset()
            elif rest == "tripled":
                pf.family = tripled_preset()
            elif rest:
                raise ParseError(f"unknown lambda preset {rest!r}", ln)
            else:
                lambda_rows = []
                while not lines.peek_header():
                    rln, row_line = lines.next_content()
                    try:
                        lambda_rows.append(tuple(int(t) for t in _tokens(row_line)))
                    except ValueError:
                        raise ParseError(f"bad lambda row {row_line!r}", rln)
        elif head == "f":
            while not lines.peek_header():
                table_lines.append(lines.next_content())
        elif head == "family":
            toks = _tokens(rest)
            if not toks:
                raise ParseError("family block needs a name", ln)
            family_spec = (toks[0], [_number(t, "family parameter", ln) for t in toks[1:]])
        elif head == "l":
            l_spec = (ln, tuple(_integer(t, "L index", ln) for t in _tokens(rest)))
        elif head == "delta":
            toks = _tokens(rest)
            if len(toks) != 2 or toks[0] not in ("linear", "const"):
                raise ParseError("delta block must be 'delta linear C' or 'delta const C'", ln)
            c = _number(toks[1], f"delta {toks[0]} value", ln)
            try:
                pf.delta = (
                    MeirKeelerModulus.linear(c)
                    if toks[0] == "linear"
                    else MeirKeelerModulus.const(c)
                )
            except ValueError as exc:
                raise ParseError(str(exc), ln)
        elif head == "start":
            start_spec = (ln, _tokens(rest))
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

    if labels is not None:
        if matrix is None:
            raise ParseError("points block without a dist block")
        try:
            pf.space = DistanceSpace.from_matrix(labels, matrix)
        except ValueError as exc:
            raise ParseError(str(exc))
        if saw_order:
            try:
                pf.order = OrderRelation.from_pairs(labels, order_pairs)
            except ValueError as exc:
                raise ParseError(str(exc))
    elif box is not None:
        pf.space = DistanceSpace.continuous(
            lambda x, y: abs(x - y),
            box,
            completeness_assumed=True if complete is None else complete,
        )
        pf.order = OrderRelation.numeric()

    if family_spec is not None:
        try:
            pf.operator, m = make_family_operator(*family_spec)
        except ValueError as exc:
            raise ParseError(str(exc))
        if pf.family is None:
            pf.family = coupled_preset() if m == 2 else tripled_preset()
    elif table_lines:
        if labels is None:
            raise ParseError("operator tables need a finite carrier")
        table = {}
        points = set(labels)
        for tln, entry in table_lines:
            if "->" not in entry:
                raise ParseError(f"expected 'a,b -> c', got {entry!r}", tln)
            lhs, rhs = entry.split("->", 1)
            key = tuple(t.strip() for t in lhs.split(","))
            value = rhs.strip()
            unknown = [t for t in (*key, value) if t not in points]
            if unknown:
                raise ParseError(f"operator entry {entry!r}: {unknown[0]!r} is not a point", tln)
            if key in table:
                raise ParseError(f"duplicate operator entry for {lhs.strip()!r}", tln)
            table[key] = value
        arity = len(next(iter(table)))
        if any(len(k) != arity for k in table):
            raise ParseError("operator table rows have inconsistent arity")
        try:
            pf.operator = MultiOperator.from_table(arity, table, labels)
        except Exception as exc:
            raise ParseError(str(exc))

    if lambda_rows is not None:
        try:
            pf.family = LambdaFamily(len(lambda_rows), tuple(lambda_rows))
        except ValueError as exc:
            raise ParseError(str(exc))

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
                f"operator arity {pf.operator.m} does not match lambda arity {pf.family.m}"
            )
    return pf


def load_problem(path: str) -> ProblemFile:
    with open(path) as fh:
        return parse_problem(fh.read())
