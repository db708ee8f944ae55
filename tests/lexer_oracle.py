"""The lexer's oracle: a probe-by-probe scanner, and the differential
that holds the lexer's one-pattern scan to it.

oracle_tokenize tries each token kind at each position in turn, so it
shares no pattern with oql.syntax.lexer. scan_tokens turns the rows of
lexer.scan into the same (kind, text, line, column) tokens: the kind is
the row's non-empty slot, and the line and column are the ones
lexer.position gives the parser's errors. The two must match token for
token and error for error. Like query_text.py, the module imports neither pytest nor numpy,
so the differential also runs on its own, on any supported interpreter:

    PYTHONPATH=src python3 tests/lexer_oracle.py
"""

import random
import re
import sys
import time

import test_query_corpus
from oql.errors import LexError
from oql.syntax import KEYWORDS, lexer
from query_text import random_query_text

_WS_RE = re.compile(r"[ \t\r\n]+")
_COMMENT_RE = re.compile(r"--[^\n]*")
# sign binds to the literal; a lone sign is not a token
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\d+|\.\d+)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPERATORS = ("<=", ">=", "!=", "=", "<", ">", "~")


def oracle_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Scan source text to (kind, text, line, column) tokens ending with an
    END token."""
    tokens = []
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
            tokens.append(("NUMBER", m.group(), line, col))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            text = m.group()
            kind = "KEYWORD" if text.upper() in KEYWORDS else "IDENT"
            tokens.append((kind, text, line, col))
            pos = m.end()
            continue
        two = source[pos:pos + 2]
        if two in _OPERATORS:
            tokens.append(("OP", two, line, col))
            pos += 2
            continue
        one = source[pos]
        if one in _OPERATORS:
            tokens.append(("OP", one, line, col))
            pos += 1
            continue
        if one == ".":
            tokens.append(("DOT", one, line, col))
            pos += 1
            continue
        if one == ",":
            tokens.append(("COMMA", one, line, col))
            pos += 1
            continue
        raise LexError(f"unexpected character {one!r}", line, col)
    tokens.append(("END", "", line, n - line_start + 1))
    return tokens


def scan_tokens(source: str) -> list[tuple[str, str, int, int]]:
    """lexer.scan's rows as (kind, text, line, column) tokens ending with
    an END token; the LexError of the first `bad` row if there is one."""
    rows = lexer.scan(source)
    error = lexer.lex_error(source, rows)
    if error:
        raise error
    tokens = []
    for index, (_, *slots, _) in enumerate(rows):
        kind = next((kind for kind, slot in zip(lexer.ROW_KINDS, slots) if slot),
                    "END")
        tokens.append((kind, "".join(slots), *lexer.position(source, rows, index)))
        if kind == "END":  # a bare END row may follow it
            break
    return tokens


def lexed(scanner, source):
    """The tokens scanner gives for source, or its LexError's details."""
    try:
        return scanner(source)
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


def check_text(source: str):
    """scan_tokens' outcome on source, which the oracle's must equal."""
    got = lexed(scan_tokens, source)
    assert got == lexed(oracle_tokenize, source), source
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
    """The scan matches the oracle on RANDOM_TEXTS seeded query texts."""
    rng = random.Random(9)
    for _ in range(RANDOM_TEXTS):
        check_text(random_query_text(rng))


def check_query_corpus_texts() -> int:
    """The scan matches the oracle on every query-corpus case; returns how
    many of them lex without error."""
    return sum(isinstance(check_text(source), list) for source, _ in
               test_query_corpus.cases(test_query_corpus._load()["bases"]))


def check_long_skipped_text(source: str) -> None:
    """The scan matches the oracle on `source` within half a second."""
    start = time.perf_counter()
    got = lexed(scan_tokens, source)
    elapsed = time.perf_counter() - start
    assert got == lexed(oracle_tokenize, source)
    assert elapsed < 0.5, f"{elapsed:.2f} s"


if __name__ == "__main__":
    check_random_texts()
    for text in LONG_SKIPPED_TEXTS.values():
        check_long_skipped_text(text)
    lexed_cleanly = check_query_corpus_texts()
    print(f"the scan matched the oracle on {RANDOM_TEXTS} random, "
          f"{len(LONG_SKIPPED_TEXTS)} long and {test_query_corpus.CASES} "
          f"query-corpus texts ({lexed_cleanly} lex without error), "
          f"on Python {sys.version.split()[0]}")
