"""The lexer's oracle: a probe-by-probe scanner, and the differential
that holds the one-pattern tokenize to it.

oracle_tokenize tries each token kind at each position in turn, so it
shares no pattern with oql.syntax.lexer; tokenize must match it token for
token and error for error. Like query_text.py, the module imports neither
pytest nor numpy, so the differential also runs on its own, on any
supported interpreter:

    PYTHONPATH=src python3 tests/lexer_oracle.py
"""

import random
import re
import sys
import time

from oql.errors import LexError
from oql.syntax import KEYWORDS, Token, TokenKind, tokenize
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
    """tokenize matches the oracle on RANDOM_TEXTS seeded query texts."""
    rng = random.Random(9)
    for _ in range(RANDOM_TEXTS):
        source = random_query_text(rng)
        assert scan(tokenize, source) == scan(oracle_tokenize, source), source


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
    print(f"{RANDOM_TEXTS} random and {len(LONG_SKIPPED_TEXTS)} long texts "
          f"matched the oracle on Python {sys.version.split()[0]}")
