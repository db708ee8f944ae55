"""The lexer's oracle: a probe-by-probe scanner, the differential that
holds the one-pattern tokenize to it, and the differential between the
two consumers of that pattern's scan.

oracle_tokenize tries each token kind at each position in turn, so it
shares no pattern with oql.syntax.lexer; tokenize must match it token for
token and error for error. parse_text parses the scan's rows directly and
parse the Token list tokenize builds from them; on the same text both
must give the same AST, or the same error stage, line, column, message
and expected set. Like query_text.py, the module imports neither pytest
nor numpy, so the differentials also run on their own, on any supported
interpreter:

    PYTHONPATH=src python3 tests/lexer_oracle.py
"""

import random
import re
import sys
import time

import test_query_corpus
from oql.errors import LexError, OqlError
from oql.syntax import KEYWORDS, Token, TokenKind, parse, parse_text, tokenize
from query_text import random_query_text

_WS_RE = re.compile(r"[ \t\r\n]+")
_COMMENT_RE = re.compile(r"--[^\n]*")
# sign binds to the literal; a lone sign is not a token
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\d+|\.\d+)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPERATORS = ("<=", ">=", "!=", "=", "<", ">", "~")


def oracle_tokenize(source: str) -> list[Token]:
    """Scan source text to a token list ending with an END token."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _WS_RE.match(source, pos)
        if m:
            chunk = m.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = pos + chunk.rfind("\n") + 1
            pos = m.end()
            continue
        m = _COMMENT_RE.match(source, pos)
        if m:
            pos = m.end()
            continue
        col = pos - line_start + 1
        m = _NUMBER_RE.match(source, pos)
        if m:
            tokens.append(Token(TokenKind.NUMBER, m.group(), line, col))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            text = m.group()
            kind = TokenKind.KEYWORD if text.upper() in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
            pos = m.end()
            continue
        two = source[pos:pos + 2]
        if two in _OPERATORS:
            tokens.append(Token(TokenKind.OP, two, line, col))
            pos += 2
            continue
        one = source[pos]
        if one in _OPERATORS:
            tokens.append(Token(TokenKind.OP, one, line, col))
            pos += 1
            continue
        if one == ".":
            tokens.append(Token(TokenKind.DOT, one, line, col))
            pos += 1
            continue
        if one == ",":
            tokens.append(Token(TokenKind.COMMA, one, line, col))
            pos += 1
            continue
        raise LexError(f"unexpected character {one!r}", line, col)
    tokens.append(Token(TokenKind.END, "", line, n - line_start + 1))
    return tokens


def scan(scanner, source):
    """(kind, text, line, column) per token, or the LexError's details."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in scanner(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


def outcome(parser, source):
    """The AST parser gives for source, or its error's stage, line,
    column, message and expected set."""
    try:
        return parser(source)
    except OqlError as exc:
        return (exc.stage, exc.line, exc.column, str(exc),
                getattr(exc, "expected", None))


def parse_tokens(source):
    return parse(tokenize(source))


def check_both_parsers_agree(source: str):
    """parse_text's outcome on source, which parse's must equal."""
    got = outcome(parse_text, source)
    assert got == outcome(parse_tokens, source), source
    return got


RANDOM_TEXTS = 20_000

# skipped text long enough that a scan which backtracked into it, or
# started again inside it, takes seconds; a linear one about a millisecond
LONG_SKIPPED_TEXTS = {
    "spaces": " " * 10 ** 5,
    "comment-lines": "-- note\n" * 5 * 10 ** 4,
    "junk-after-spaces": "SELECT" + " \t\r\n" * 25_000 + "@",
    "dashes": "-" * 10 ** 5,
    "comments-then-spaces": "x" + "\n-- a -- b" * 20_000 + "\n  ",
}


def check_random_texts() -> None:
    """tokenize matches the oracle, and parse_text parse, on RANDOM_TEXTS
    seeded query texts."""
    rng = random.Random(9)
    for _ in range(RANDOM_TEXTS):
        source = random_query_text(rng)
        assert scan(tokenize, source) == scan(oracle_tokenize, source), source
        check_both_parsers_agree(source)


def check_query_corpus_texts() -> int:
    """parse_text matches parse on every query-corpus case; returns how
    many of them parse."""
    parsed = 0
    for source, _ in test_query_corpus.cases(test_query_corpus._load()["bases"]):
        parsed += not isinstance(check_both_parsers_agree(source), tuple)
    return parsed


def check_long_skipped_text(source: str) -> None:
    """tokenize matches the oracle on `source` within half a second."""
    start = time.perf_counter()
    got = scan(tokenize, source)
    elapsed = time.perf_counter() - start
    assert got == scan(oracle_tokenize, source)
    assert elapsed < 0.5, f"{elapsed:.2f} s"


if __name__ == "__main__":
    check_random_texts()
    for text in LONG_SKIPPED_TEXTS.values():
        check_long_skipped_text(text)
    parsed = check_query_corpus_texts()
    print(f"{RANDOM_TEXTS} random and {len(LONG_SKIPPED_TEXTS)} long texts "
          f"matched the oracle, and parse_text matched parse on them and on "
          f"{test_query_corpus.CASES} query-corpus texts ({parsed} parse), "
          f"on Python {sys.version.split()[0]}")
