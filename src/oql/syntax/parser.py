"""Recursive-descent parser: token list -> canonical QueryAst.

Clause order is fixed by the grammar:

    SELECT Strategy FROM Underlying
        [WHERE LegCondition {AND LegCondition}]
        [HAVING StratCondition {AND StratCondition}]
        [ORDER BY Field [ASC|DESC] {, Field [ASC|DESC]}]
        [LIMIT n]

BETWEEN is admitted only in HAVING, with numeric bounds in order. Errors are
ParseError with the current token's position and the expected-token set;
there is never a silent partial result.
"""

import math
import sys

from ..errors import ParseError
from ..fields import SYMBOLIC_VALUES, canonical_aggregate_field, canonical_leg_field
from .ast import COMPARISON_OPS, LegCondition, OrderItem, QueryAst, StratCondition
from .lexer import Token, TokenKind, tokenize

_INT_RE_DIGITS = "0123456789"


def _shown(text: str, width: int = 24) -> str:
    """A token's text for an error message, cut to `width` characters."""
    return repr(text) if len(text) <= width else repr(text[:width]) + "..."


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ---- token plumbing ----

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.END:
            self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.current
        got = tok.text if tok.kind is not TokenKind.END else "end of query"
        return ParseError(f"{message}, got {got!r}", tok.line, tok.column, expected)

    def at_keyword(self, word: str) -> bool:
        tok = self.current
        return tok.kind is TokenKind.KEYWORD and tok.upper() == word

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.fail(f"expected keyword {word}", (word,))
        return self.advance()

    def expect_identifier(self, what: str) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise self.fail(f"expected {what}", ("identifier",))
        return self.advance()

    # ---- value parsing ----

    def number(self) -> float:
        """The current NUMBER token's value; one past the float range fails."""
        tok = self.current
        value = float(tok.text)
        if math.isinf(value):
            raise ParseError(f"number out of range: {_shown(tok.text)}",
                             tok.line, tok.column)
        self.advance()
        return value

    def parse_number(self, what: str) -> float:
        if self.current.kind is not TokenKind.NUMBER:
            raise self.fail(f"expected {what}", ("number",))
        return self.number()

    def parse_value(self) -> float | str:
        tok = self.current
        if tok.kind is TokenKind.NUMBER:
            return self.number()
        if tok.kind is TokenKind.IDENT and tok.upper() in SYMBOLIC_VALUES:
            return self.advance().upper()
        raise self.fail("expected a value",
                        ("number", "CALL", "PUT", "ATM", "OTM", "ITM"))

    # ---- clauses ----

    def parse_query(self) -> QueryAst:
        self.expect_keyword("SELECT")
        strategy = self.expect_identifier("a strategy name").upper()
        self.expect_keyword("FROM")
        underlying_tok = self.current
        underlying = self.expect_identifier("an underlying ticker").upper()
        if not underlying.isalpha():
            raise ParseError(
                f"underlying must be alphabetic, got {underlying!r}",
                underlying_tok.line, underlying_tok.column, ("ticker",))

        where: list[LegCondition] = []
        if self.at_keyword("WHERE"):
            self.advance()
            where.append(self.parse_leg_condition())
            while self.at_keyword("AND"):
                self.advance()
                where.append(self.parse_leg_condition())

        having: list[StratCondition] = []
        if self.at_keyword("HAVING"):
            self.advance()
            having.append(self.parse_strat_condition())
            while self.at_keyword("AND"):
                self.advance()
                having.append(self.parse_strat_condition())

        order_by: list[OrderItem] = []
        if self.at_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.current.kind is TokenKind.COMMA:
                self.advance()
                order_by.append(self.parse_order_item())

        limit: int | None = None
        if self.at_keyword("LIMIT"):
            self.advance()
            limit = self.parse_limit()

        if self.current.kind is not TokenKind.END:
            raise self.fail("trailing input after query", ("end of query",))
        return QueryAst(strategy=strategy, underlying=underlying,
                        where=tuple(where), having=tuple(having),
                        order_by=tuple(order_by), limit=limit)

    def parse_leg_condition(self) -> LegCondition:
        first = self.expect_identifier("a role or leg field")
        role: str | None = None
        if self.current.kind is TokenKind.DOT:
            self.advance()
            field_tok = self.expect_identifier("a leg field")
            role = first.upper()
            field = canonical_leg_field(field_tok.text)
        else:
            field = canonical_leg_field(first.text)
        if self.at_keyword("BETWEEN"):
            raise self.fail("BETWEEN is only valid in HAVING", COMPARISON_OPS)
        if self.current.kind is not TokenKind.OP:
            raise self.fail("expected a comparison operator", COMPARISON_OPS)
        op = self.advance().text
        value = self.parse_value()
        return LegCondition(role=role, field=field, op=op, value=value)

    def parse_strat_condition(self) -> StratCondition:
        field = canonical_aggregate_field(
            self.expect_identifier("an aggregate field").text)
        if self.at_keyword("BETWEEN"):
            self.advance()
            lo_tok = self.current
            lo = self.parse_number("a numeric lower bound")
            self.expect_keyword("AND")
            hi = self.parse_number("a numeric upper bound")
            if lo > hi:
                raise ParseError(
                    f"BETWEEN bounds out of order: {lo} > {hi}",
                    lo_tok.line, lo_tok.column)
            return StratCondition(field=field, op="BETWEEN", lo=lo, hi=hi)
        if self.current.kind is not TokenKind.OP:
            raise self.fail("expected a comparison operator or BETWEEN",
                            COMPARISON_OPS + ("BETWEEN",))
        op = self.advance().text
        value = self.parse_value()
        return StratCondition(field=field, op=op, value=value)

    def parse_order_item(self) -> OrderItem:
        field = canonical_aggregate_field(
            self.expect_identifier("a sort field").text)
        direction = "ASC"
        if self.at_keyword("ASC"):
            self.advance()
        elif self.at_keyword("DESC"):
            self.advance()
            direction = "DESC"
        return OrderItem(field=field, direction=direction)

    def parse_limit(self) -> int:
        tok = self.current
        if tok.kind is not TokenKind.NUMBER:
            raise self.fail("expected a positive integer LIMIT", ("integer",))
        text = tok.text.lstrip("+").lstrip("0")
        if not text or any(ch not in _INT_RE_DIGITS for ch in text):
            raise ParseError(f"LIMIT must be a positive integer, got {tok.text!r}",
                             tok.line, tok.column)
        # checked on the digit count first: int() refuses very long text
        if len(text) > len(str(sys.maxsize)) or int(text) > sys.maxsize:
            raise ParseError(f"LIMIT out of range (at most {sys.maxsize}): "
                             f"{_shown(tok.text)}", tok.line, tok.column)
        self.advance()
        return int(text)


def parse(tokens: list[Token]) -> QueryAst:
    """Parse a token list (as produced by tokenize) into a canonical AST."""
    return _Parser(tokens).parse_query()


def parse_text(source: str) -> QueryAst:
    """Tokenize and parse query text in one step."""
    return parse(tokenize(source))
