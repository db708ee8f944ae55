"""Tokenizer for OQL query text.

Token alphabet: keywords, identifiers, signed numeric literals, comparison
operators (= != < > <= >= ~), dot, comma. `--` starts a line comment.
Keywords are recognized case-insensitively. Anything else is a LexError
pointing at the offending character.

One pattern scans the text; at each position the first alternative that
matches wins. So `--` always opens a comment (`--5` is never `-` then
`-5`), a number wins over a dot (`.5` is one literal), and two-character
operators win over one-character ones (`<=` is one token).
"""

import re
from enum import Enum
from typing import NamedTuple

from ..errors import LexError

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "HAVING",
    "ORDER", "BY", "LIMIT", "ASC", "DESC", "BETWEEN",
})


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    NUMBER = "number"
    OP = "operator"
    DOT = "dot"
    COMMA = "comma"
    END = "end"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int    # 1-based
    column: int  # 1-based

    def upper(self) -> str:
        return self.text.upper()


# group names other than skip, word and bad are TokenKind names
_KINDS = {kind.name: kind for kind in TokenKind}
_TOKEN_RE = re.compile(r"""
      (?P<skip>   [ \t\r\n]+ | --[^\n]* )
    | (?P<NUMBER> [+-]? (?: \d+\.\d* | \d+ | \.\d+ ) )  # a lone sign is not a token
    | (?P<word>   [A-Za-z_][A-Za-z0-9_]* )
    | (?P<OP>     <= | >= | != | [=<>~] )
    | (?P<DOT>    \. )
    | (?P<COMMA>  , )
    | (?P<bad>    . )
""", re.VERBOSE | re.DOTALL)


def tokenize(source: str) -> list[Token]:
    """Scan source text to a token list ending with an END token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "skip":  # the only text that can hold a newline
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise LexError(f"unexpected character {text!r}", line, col)
        if kind == "word":
            kind = "KEYWORD" if text.upper() in KEYWORDS else "IDENT"
        tokens.append(Token(_KINDS[kind], text, line, col))
    tokens.append(Token(TokenKind.END, "", line, len(source) - line_start + 1))
    return tokens
