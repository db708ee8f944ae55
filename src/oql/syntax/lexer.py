"""Tokenizer for OQL query text.

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
character, `END` the end of the text), so the prefix is never backtracked
into and a long run of spaces or comments is scanned once.
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


# one group per token kind, named after it, and `bad` for any other
# character; keywords match ASCII letters in either case
_TOKEN_RE = re.compile(r"""
    (?: [ \t\r\n]+ | --[^\n]* )*
    (?: (?P<NUMBER>  [+-]? (?: \d+\.\d* | \d+ | \.\d+ ) )  # a lone sign is not a token
      | (?P<KEYWORD> (?ai: %s ) (?![A-Za-z0-9_]) )
      | (?P<IDENT>   [A-Za-z_][A-Za-z0-9_]* )
      | (?P<OP>      <= | >= | != | [=<>~] )
      | (?P<DOT>     \. )
      | (?P<COMMA>   , )
      | (?P<END>     \Z )
      | (?P<bad>     . ) )
""" % " | ".join(sorted(KEYWORDS)), re.VERBOSE | re.DOTALL)
_NAMES = {index: name for name, index in _TOKEN_RE.groupindex.items()}
# group number -> token kind, None for `bad`; a match's kind is the kind of
# its last matched group
_KINDS = [TokenKind.__members__.get(_NAMES.get(group))
          for group in range(_TOKEN_RE.groups + 1)]
_END = TokenKind.END
# builds a Token without the Python-level __new__ NamedTuple generates,
# which checks nothing: over the 720 seed-1 `attempts` texts `tokenize`
# takes 5.2-5.4 ms this way against 6.3-6.6 ms with Token(...) (2-core
# AMD EPYC, Python 3.11.7); keep it only while Token defines no __new__
_tuple_new = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Scan source text to a token list ending with an END token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    last = source.rfind("\n")  # newlines lie in skipped text, none past it
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        start = m.start(group)
        if line_start <= last and start != m.start():
            newlines = source.count("\n", m.start(), start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", 0, start) + 1
        kind = _KINDS[group]
        if kind is None:
            raise LexError(f"unexpected character {m[group]!r}", line,
                           start - line_start + 1)
        tokens.append(_tuple_new(Token, (kind, m[group], line,
                                         start - line_start + 1)))
        if kind is _END:  # trailing skipped text ends in it
            break
    return tokens
