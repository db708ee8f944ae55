"""Random query text over the lexer's token alphabet.

It imports neither pytest nor helpers (which needs numpy), so the query
corpus that draws from it runs on an interpreter that has neither.
"""

import random

# pieces of the token alphabet, whitespace and comments
_PIECES = (
    "SELECT", "from", "Where", "AND", "having", "Order", "BY", "limit",
    "asc", "DESC", "between", "SC", "Dte", "_x1", "a", "Z9",
    "0", "7", "30", "0.25", ".5", "7.", "+", "-", "+1.5", "-0.05",
    "=", "!=", "<", ">", "<=", ">=", "~", ".", ",",
    " ", "\t", "\n", "\r", "\r\n", "\n\r", "-- note", "--", "--5",
)
# characters outside the alphabet, or inside it only by Unicode's \d
_JUNK = ("!", "#", "\u00e9", "\0", "\f", "\v", "\u00a0", "\u2028",
         "\u0663", "\u00b2")


def random_query_text(rng: random.Random) -> str:
    """Up to 12 pieces, run together or spaced at random; a few are junk."""
    return "".join(
        rng.choice(_JUNK if rng.random() < 0.05 else _PIECES)
        + rng.choice(("", "", " "))
        for _ in range(rng.randint(0, 12)))
