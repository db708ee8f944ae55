"""OQL surface syntax: lexer, AST, parser, pretty-printer."""

from .ast import COMPARISON_OPS, LegCondition, OrderItem, QueryAst, StratCondition
from .lexer import KEYWORDS
from .parser import parse_text
from .printer import pretty_print

__all__ = [
    "COMPARISON_OPS", "KEYWORDS",
    "LegCondition", "OrderItem", "QueryAst", "StratCondition",
    "parse_text", "pretty_print",
]
