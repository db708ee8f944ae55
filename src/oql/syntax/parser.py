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
import re
import sys

from ..errors import ParseError
from ..fields import MONEYNESS_VALUES, canonical_aggregate_field, canonical_leg_field
from .ast import COMPARISON_OPS, LegCondition, OrderItem, QueryAst, StratCondition
from .lexer import Token, TokenKind, tokenize

_LIMIT_RE = re.compile(r"\+?0*[1-9][0-9]*")
_END, _IDENT, _KEYWORD = TokenKind.END, TokenKind.IDENT, TokenKind.KEYWORD


def _shown(text: str, width: int = 24) -> str:
    """A token's text for an error message, cut to `width` characters."""
    return repr(text) if len(text) <= width else repr(text[:width]) + "..."


class _Parser:
    """`tok` is the current token and `word` its keyword spelling in upper
    case, None when it is no keyword; `advance` moves both."""

    def __init__(self, tokens: list[Token]):
        self.tokens, self.pos = tokens, 0
        tok = self.tok = tokens[0]
        self.word = tok.text.upper() if tok.kind is _KEYWORD else None

    # ---- token plumbing ----

    def advance(self) -> Token:
        """Consume the current token; its caller checked it is no END."""
        tok = self.tok
        self.pos += 1
        new = self.tok = self.tokens[self.pos]
        self.word = new.text.upper() if new.kind is _KEYWORD else None
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.tok
        got = tok.text if tok.kind is not _END else "end of query"
        return ParseError(f"{message}, got {got!r}", tok.line, tok.column, expected)

    def expect_keyword(self, word: str) -> Token:
        if self.word != word:
            raise self.fail(f"expected keyword {word}", (word,))
        return self.advance()

    def expect_identifier(self, what: str) -> Token:
        if self.tok.kind is not _IDENT:
            raise self.fail(f"expected {what}", ("identifier",))
        return self.advance()

    # ---- value parsing ----

    def parse_number(self, what: str) -> float:
        """The current NUMBER token's value; one past the float range fails."""
        tok = self.tok
        if tok.kind is not TokenKind.NUMBER:
            raise self.fail(f"expected {what}", ("number",))
        value = float(tok.text)
        if math.isinf(value):
            raise ParseError(f"number out of range: {_shown(tok.text)}",
                             tok.line, tok.column)
        self.advance()
        return value

    def parse_value(self) -> float | str:
        tok = self.tok
        if tok.kind is TokenKind.NUMBER:
            return self.parse_number("a value")
        if tok.kind is _IDENT and tok.upper() in MONEYNESS_VALUES:
            return self.advance().upper()
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
        strategy = self.expect_identifier("a strategy name").upper()
        self.expect_keyword("FROM")
        underlying_tok = self.expect_identifier("an underlying ticker")
        underlying = underlying_tok.upper()
        if not underlying.isalpha():
            raise ParseError(
                f"underlying must be alphabetic, got {underlying!r}",
                underlying_tok.line, underlying_tok.column, ("ticker",))

        where = self.clause("WHERE", self.parse_leg_condition)
        having = self.clause("HAVING", self.parse_strat_condition)

        order_by: list[OrderItem] = []
        if self.word == "ORDER":
            self.advance()
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.tok.kind is TokenKind.COMMA:
                self.advance()
                order_by.append(self.parse_order_item())

        limit: int | None = None
        if self.word == "LIMIT":
            self.advance()
            limit = self.parse_limit()

        if self.tok.kind is not _END:
            raise self.fail("trailing input after query", ("end of query",))
        return QueryAst(strategy=strategy, underlying=underlying,
                        where=where, having=having, order_by=order_by,
                        limit=limit)

    def parse_leg_condition(self) -> LegCondition:
        first = self.expect_identifier("a role or leg field")
        role: str | None = None
        if self.tok.kind is TokenKind.DOT:
            self.advance()
            field_tok = self.expect_identifier("a leg field")
            role = first.upper()
            field = canonical_leg_field(field_tok.text)
        else:
            field = canonical_leg_field(first.text)
        if self.tok.kind is not TokenKind.OP:
            if self.word == "BETWEEN":
                raise self.fail("BETWEEN is only valid in HAVING", COMPARISON_OPS)
            raise self.fail("expected a comparison operator", COMPARISON_OPS)
        op = self.advance().text
        value = self.parse_value()
        return LegCondition(role, field, op, value)

    def parse_strat_condition(self) -> StratCondition:
        field = canonical_aggregate_field(
            self.expect_identifier("an aggregate field").text)
        if self.word == "BETWEEN":
            self.advance()
            lo_tok = self.tok
            lo = self.parse_number("a numeric lower bound")
            self.expect_keyword("AND")
            hi = self.parse_number("a numeric upper bound")
            if lo > hi:
                raise ParseError(
                    f"BETWEEN bounds out of order: {lo} > {hi}",
                    lo_tok.line, lo_tok.column)
            return StratCondition(field=field, op="BETWEEN", lo=lo, hi=hi)
        if self.tok.kind is not TokenKind.OP:
            raise self.fail("expected a comparison operator or BETWEEN",
                            COMPARISON_OPS + ("BETWEEN",))
        op = self.advance().text
        value = self.parse_value()
        return StratCondition(field, op, value)

    def parse_order_item(self) -> OrderItem:
        field = canonical_aggregate_field(
            self.expect_identifier("a sort field").text)
        direction = "ASC"
        if self.word == "ASC":
            self.advance()
        elif self.word == "DESC":
            self.advance()
            direction = "DESC"
        return OrderItem(field, direction)

    def parse_limit(self) -> int:
        tok = self.tok
        if tok.kind is not TokenKind.NUMBER:
            raise self.fail("expected a positive integer LIMIT", ("integer",))
        if not _LIMIT_RE.fullmatch(tok.text):
            raise ParseError(f"LIMIT must be a positive integer, got {tok.text!r}",
                             tok.line, tok.column)
        text = tok.text.lstrip("+0")
        # checked on the digit count first: int() refuses very long text
        if len(text) > len(str(sys.maxsize)) or int(text) > sys.maxsize:
            raise ParseError(f"LIMIT out of range (at most {sys.maxsize}): "
                             f"{_shown(tok.text)}", tok.line, tok.column)
        self.advance()
        return int(text)


def parse(tokens: list[Token]) -> QueryAst:
    """Parse a token list ending in END, as tokenize gives, into an AST."""
    if not tokens or tokens[-1].kind is not _END:
        line, column = (tokens[-1].line, tokens[-1].column) if tokens else (1, 1)
        raise ParseError("token list does not end in an END token", line, column)
    return _Parser(tokens).parse_query()


def parse_text(source: str) -> QueryAst:
    """Tokenize and parse query text in one step."""
    return parse(tokenize(source))
