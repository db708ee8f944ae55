"""Lexer for OQL query text.

Token alphabet: keywords, identifiers, signed numeric literals, comparison
operators (= != < > <= >= ~), dot, comma. `--` starts a line comment.
Keywords are recognized case-insensitively. Anything else is a LexError
pointing at the offending character.

One pattern match per token: the whitespace and comments before a token
fold into its match, and the first alternative that matches after them
wins. So `--` always opens a comment (`--5` is never `-` then `-5`), a
number wins over a dot (`.5` is one literal), a keyword wins over an
identifier only when no word character follows it, and two-character
operators win over one-character ones (`<=` is one token). Some
alternative always matches where the skipped prefix stops (`bad` takes any
character, `\\Z` the end of the text), so the prefix is never backtracked
into and a long run of spaces or comments is scanned once.

`scan` is one C-level call over the whole text: a row per match holds the
skipped prefix, a slot per kind in ROW_KINDS, then `bad`, and only the
slot of the token's kind is non-empty (none in END's row). The parser
reads rows and asks `position` for a line and column only for an error.
"""

import re

from ..errors import LexError

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "HAVING",
    "ORDER", "BY", "LIMIT", "ASC", "DESC", "BETWEEN",
})


# the skipped prefix, then one group per token kind but END (`\Z`), named
# after it, and `bad` for any other character; keywords match ASCII
# letters in either case
_TOKEN_RE = re.compile(r"""
    ( (?: [ \t\r\n]+ | --[^\n]* )* )
    (?: (?P<NUMBER>  [+-]? (?: \d+\.\d* | \d+ | \.\d+ ) )  # a lone sign is not a token
      | (?P<KEYWORD> (?ai: %s ) (?![A-Za-z0-9_]) )
      | (?P<IDENT>   [A-Za-z_][A-Za-z0-9_]* )
      | (?P<OP>      <= | >= | != | [=<>~] )
      | (?P<DOT>     \. )
      | (?P<COMMA>   , )
      | \Z
      | (?P<bad>     . ) )
""" % " | ".join(sorted(KEYWORDS)), re.VERBOSE | re.DOTALL)
scan = _TOKEN_RE.findall
# the kind of row[1], row[2], ...: the named groups in pattern order;
# row[-1] is `bad`
ROW_KINDS = tuple(sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))[:-1]


def position(source: str, rows: list[tuple[str, ...]],
             index: int) -> tuple[int, int]:
    """(line, column), 1-based, of the token in rows[index]."""
    start = len("".join(map("".join, rows[:index]))) + len(rows[index][0])
    return source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)


def lex_error(source: str, rows: list[tuple[str, ...]]) -> LexError | None:
    """The LexError of the first `bad` row, or None when there is none."""
    for index, row in enumerate(rows):
        if row[-1]:
            return LexError(f"unexpected character {row[-1]!r}",
                            *position(source, rows, index))
    return None
