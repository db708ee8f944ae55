"""Recursive-descent parser: lexer rows -> canonical QueryAst.

Clause order is fixed by the grammar:

    SELECT Strategy FROM Underlying
        [WHERE LegCondition {AND LegCondition}]
        [HAVING StratCondition {AND StratCondition}]
        [ORDER BY Field [ASC|DESC] {, Field [ASC|DESC]}]
        [LIMIT n]

BETWEEN is admitted only in HAVING, with numeric bounds in order. Errors are
ParseError with the current token's position, computed only then, and the
expected-token set; there is never a silent partial result. `parse_text`
parses the rows of the text's one scan.
"""

import math
import re
import sys

from ..errors import ParseError
from ..fields import (MONEYNESS_VALUES, canonical_aggregate_field,
                      canonical_leg_field, is_underlying)
from .ast import COMPARISON_OPS, LegCondition, OrderItem, QueryAst, StratCondition
from .lexer import ROW_KINDS, lex_error, position, scan

_LIMIT_RE = re.compile(r"\+?0*[1-9][0-9]*")
_IDENTIFIER = ("identifier",)  # the expected set where a name is due
# a kind's slot in a lexer row
_NUMBER, _KEYWORD, _IDENT, _OP, _DOT, _COMMA = (
    ROW_KINDS.index(kind) + 1
    for kind in ("NUMBER", "KEYWORD", "IDENT", "OP", "DOT", "COMMA"))


def _shown(text: str, width: int = 24) -> str:
    """A token's text for an error message, cut to `width` characters."""
    return repr(text) if len(text) <= width else repr(text[:width]) + "..."


class _Parser:
    """Parses the rows of source's scan up to rows[end], the END row. `row`
    is the current row, `pos` its index and `word` its keyword in upper
    case, or ''."""

    def __init__(self, source: str, rows: list[tuple[str, ...]], end: int):
        self.source, self.rows, self.end, self.pos = source, rows, end, 0
        row = self.row = rows[0]
        self.word = row[_KEYWORD].upper()

    def locate(self, index: int) -> tuple[int, int]:
        """The (line, column) of rows[index], for errors."""
        return position(self.source, self.rows, index)

    # ---- token plumbing ----

    def advance(self) -> None:
        """Consume the current token; its caller checked it is no END."""
        self.pos += 1
        row = self.row = self.rows[self.pos]
        self.word = row[_KEYWORD].upper()

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        got = "".join(self.row[1:]) if self.pos != self.end else "end of query"
        return ParseError(f"{message}, got {got!r}", *self.locate(self.pos),
                          expected)

    def expect_keyword(self, word: str) -> None:
        if self.word != word:
            raise self.fail(f"expected keyword {word}", (word,))
        self.advance()

    def expect(self, slot: int, what: str, expected: tuple[str, ...]) -> str:
        """Consume the current token if row[slot] holds it; its text."""
        text = self.row[slot]
        if not text:
            raise self.fail(f"expected {what}", expected)
        self.advance()
        return text

    # ---- value parsing ----

    def parse_number(self, what: str) -> float:
        """The current NUMBER token's value; one past the float range fails."""
        text = self.expect(_NUMBER, what, ("number",))
        value = float(text)
        if math.isinf(value):
            raise ParseError(f"number out of range: {_shown(text)}",
                             *self.locate(self.pos - 1))
        return value

    def parse_value(self) -> float | str:
        if self.row[_NUMBER]:
            return self.parse_number("a value")
        word = self.row[_IDENT].upper()
        if word in MONEYNESS_VALUES:
            self.advance()
            return word
        raise self.fail("expected a value", ("number", *MONEYNESS_VALUES))

    # ---- clauses ----

    def clause(self, keyword: str, item) -> list:
        """`keyword item {AND item}`; empty when keyword is absent."""
        if self.word != keyword:
            return []
        self.advance()
        items = [item()]
        while self.word == "AND":
            self.advance()
            items.append(item())
        return items

    def parse_query(self) -> QueryAst:
        self.expect_keyword("SELECT")
        strategy = self.expect(_IDENT, "a strategy name", _IDENTIFIER).upper()
        self.expect_keyword("FROM")
        at = self.pos
        underlying = self.expect(_IDENT, "an underlying ticker", _IDENTIFIER).upper()
        if not is_underlying(underlying):
            raise ParseError(f"underlying must be alphabetic, got {underlying!r}",
                             *self.locate(at), ("ticker",))

        where = self.clause("WHERE", self.parse_leg_condition)
        having = self.clause("HAVING", self.parse_strat_condition)

        order_by: list[OrderItem] = []
        if self.word == "ORDER":
            self.advance()
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.row[_COMMA]:
                self.advance()
                order_by.append(self.parse_order_item())

        limit: int | None = None
        if self.word == "LIMIT":
            self.advance()
            limit = self.parse_limit()

        if self.pos != self.end:
            raise self.fail("trailing input after query", ("end of query",))
        return QueryAst(strategy=strategy, underlying=underlying,
                        where=where, having=having, order_by=order_by,
                        limit=limit)

    def parse_leg_condition(self) -> LegCondition:
        first = self.expect(_IDENT, "a role or leg field", _IDENTIFIER)
        role: str | None = None
        if self.row[_DOT]:
            self.advance()
            role = first.upper()
            first = self.expect(_IDENT, "a leg field", _IDENTIFIER)
        if self.word == "BETWEEN":
            raise self.fail("BETWEEN is only valid in HAVING", COMPARISON_OPS)
        op = self.expect(_OP, "a comparison operator", COMPARISON_OPS)
        return LegCondition(role, canonical_leg_field(first), op,
                            self.parse_value())

    def parse_strat_condition(self) -> StratCondition:
        field = canonical_aggregate_field(
            self.expect(_IDENT, "an aggregate field", _IDENTIFIER))
        if self.word == "BETWEEN":
            self.advance()
            at = self.pos
            lo = self.parse_number("a numeric lower bound")
            self.expect_keyword("AND")
            hi = self.parse_number("a numeric upper bound")
            if lo > hi:
                raise ParseError(f"BETWEEN bounds out of order: {lo} > {hi}",
                                 *self.locate(at))
            return StratCondition(field=field, op="BETWEEN", lo=lo, hi=hi)
        op = self.expect(_OP, "a comparison operator or BETWEEN",
                         COMPARISON_OPS + ("BETWEEN",))
        return StratCondition(field, op, self.parse_value())

    def parse_order_item(self) -> OrderItem:
        field = canonical_aggregate_field(
            self.expect(_IDENT, "a sort field", _IDENTIFIER))
        direction = "ASC"
        if self.word == "ASC":
            self.advance()
        elif self.word == "DESC":
            self.advance()
            direction = "DESC"
        return OrderItem(field, direction)

    def parse_limit(self) -> int:
        text = self.expect(_NUMBER, "a positive integer LIMIT", ("integer",))
        if not _LIMIT_RE.fullmatch(text):
            raise ParseError(f"LIMIT must be a positive integer, got {text!r}",
                             *self.locate(self.pos - 1))
        digits = text.lstrip("+0")
        # checked on the digit count first: int() refuses very long text
        if len(digits) > len(str(sys.maxsize)) or int(digits) > sys.maxsize:
            raise ParseError(f"LIMIT out of range (at most {sys.maxsize}): "
                             f"{_shown(text)}", *self.locate(self.pos - 1))
        return int(digits)


def parse_text(source: str) -> QueryAst:
    """Scan and parse query text in one step. A LexError anywhere in the
    text wins over a ParseError: the parser stops at a `bad` row, and
    the rows are searched for one only once it has failed."""
    rows = scan(source)
    # the END row is the last, or the one before a bare END row that
    # follows trailing skipped text
    end = len(rows) - 1 - (len(rows) > 1 and not any(rows[-2][1:]))
    try:
        return _Parser(source, rows, end).parse_query()
    except ParseError as exc:
        raise (lex_error(source, rows) or exc) from None
