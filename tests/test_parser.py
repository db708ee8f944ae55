"""Parser behavior: reference queries, canonicalization, round trips,
clause order, and rejection of malformed input."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONDOR_QUERY_QQQ, CONDOR_QUERY_TSLA
from helpers import MANDATORY_KEYWORDS, random_ast
from oql.errors import ParseError
from oql.syntax import (LegCondition, OrderItem, QueryAst, StratCondition,
                        parse_text, pretty_print, tokenize)
from oql.syntax.lexer import TokenKind

# ============================================================
# Reference queries
# ============================================================


def test_condor_query_qqq_parses_to_expected_ast():
    ast = parse_text(CONDOR_QUERY_QQQ)
    assert ast.strategy == "IRON_CONDOR"
    assert ast.underlying == "QQQ"
    assert ast.where == tuple(
        LegCondition(role, "Dte", "~", 30.0)
        for role in ("SC", "LC", "SP", "LP"))
    assert ast.having == (StratCondition("net_credit", ">=", 100.0),)
    assert ast.order_by == (OrderItem("rr_ratio", "DESC"),)
    assert ast.limit is None


def test_condor_query_qqq_is_already_canonical():
    ast = parse_text(CONDOR_QUERY_QQQ)
    assert pretty_print(ast) == CONDOR_QUERY_QQQ


def test_condor_query_tsla_parses_to_expected_ast():
    ast = parse_text(CONDOR_QUERY_TSLA)
    assert ast.strategy == "IRON_CONDOR"
    assert ast.underlying == "TSLA"
    assert ast.where == (
        LegCondition(None, "Dte", "~", 30.0),
        LegCondition("SC", "Delta", "<", 0.20),
        LegCondition("LC", "Delta", "<", 0.05),
        LegCondition("SP", "Delta", ">", -0.20),
        LegCondition("LP", "Delta", ">", -0.05),
    )
    assert ast.having == (
        StratCondition("net_theta", ">", 0.0),
        StratCondition("max_loss", "<", 500.0),
    )
    assert ast.order_by == ()
    assert ast.limit == 10


def test_condor_query_tsla_round_trips_through_canonical_text():
    ast = parse_text(CONDOR_QUERY_TSLA)
    canonical = pretty_print(ast)
    # numeral spellings normalize (0.20 -> 0.2); the AST must survive intact
    assert canonical == (
        "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.2 "
        "AND LC.Delta < 0.05 AND SP.Delta > -0.2 AND LP.Delta > -0.05 "
        "HAVING net_theta > 0 AND max_loss < 500 LIMIT 10"
    )
    assert parse_text(canonical) == ast
    assert pretty_print(parse_text(canonical)) == canonical


# ============================================================
# Canonicalization
# ============================================================


def test_case_insensitive_input_canonicalizes():
    ast = parse_text(
        "select iron_condor from qqq where sc.dte ~ 30 "
        "having NET_CREDIT >= 100 order by RR_RATIO desc limit 5")
    assert ast.strategy == "IRON_CONDOR"
    assert ast.underlying == "QQQ"
    assert ast.where == (LegCondition("SC", "Dte", "~", 30.0),)
    assert ast.having == (StratCondition("net_credit", ">=", 100.0),)
    assert ast.order_by == (OrderItem("rr_ratio", "DESC"),)
    assert ast.limit == 5


def test_symbolic_values_uppercase():
    ast = parse_text("SELECT LONG_CALL FROM SPY WHERE Moneyness = atm")
    assert ast.where == (LegCondition(None, "Moneyness", "=", "ATM"),)


def test_unknown_strategy_and_fields_are_syntactically_fine():
    # schema binding happens in validation, not here
    ast = parse_text("SELECT SOMETHING FROM SPY WHERE Custom > 1")
    assert ast.strategy == "SOMETHING"
    assert ast.where[0].field == "Custom"


def test_comments_and_whitespace_are_insignificant():
    ast = parse_text(
        "SELECT STRADDLE -- a two-leg structure\n"
        "  FROM   SPY\n"
        "WHERE C.Dte ~ 30 -- near the monthly\n")
    assert ast == parse_text("SELECT STRADDLE FROM SPY WHERE C.Dte ~ 30")


def test_order_by_directions_and_default():
    ast = parse_text("SELECT STRADDLE FROM SPY ORDER BY width, rr_ratio DESC, "
                     "net_debit ASC")
    assert ast.order_by == (
        OrderItem("width", "ASC"),
        OrderItem("rr_ratio", "DESC"),
        OrderItem("net_debit", "ASC"),
    )


def test_between_bounds_inclusive_spelling():
    ast = parse_text("SELECT STRADDLE FROM SPY HAVING width BETWEEN 5 AND 20")
    assert ast.having == (StratCondition("width", "BETWEEN", lo=5.0, hi=20.0),)


def test_signed_numbers_in_conditions():
    ast = parse_text("SELECT LONG_PUT FROM SPY WHERE P.Delta > -0.35 "
                     "HAVING net_theta >= -12.5")
    assert ast.where[0].value == -0.35
    assert ast.having[0].value == -12.5


# ============================================================
# Rejections
# ============================================================


@pytest.mark.parametrize("bad", [
    "",
    "SELECT",
    "SELECT FROM SPY",
    "SELECT LONG_CALL",
    "SELECT LONG_CALL FROM",
    "SELECT LONG_CALL SPY",
    "FROM SPY SELECT LONG_CALL",
    "SELECT LONG_CALL FROM SPY WHERE",
    "SELECT LONG_CALL FROM SPY WHERE Dte",
    "SELECT LONG_CALL FROM SPY WHERE Dte ~",
    "SELECT LONG_CALL FROM SPY WHERE Dte 30",
    "SELECT LONG_CALL FROM SPY WHERE L. ~ 30",
    "SELECT LONG_CALL FROM SPY HAVING",
    "SELECT LONG_CALL FROM SPY HAVING net_debit",
    "SELECT LONG_CALL FROM SPY ORDER width",
    "SELECT LONG_CALL FROM SPY ORDER BY",
    "SELECT LONG_CALL FROM SPY ORDER BY width,",
    "SELECT LONG_CALL FROM SPY LIMIT",
    "SELECT LONG_CALL FROM SPY LIMIT 0",
    "SELECT LONG_CALL FROM SPY LIMIT -3",
    "SELECT LONG_CALL FROM SPY LIMIT 2.5",
    "SELECT LONG_CALL FROM SPY LIMIT ten",
    "SELECT LONG_CALL FROM SPY extra",
    "SELECT LONG_CALL FROM SPY WHERE Dte ~ 30 WHERE Dte ~ 60",
    "SELECT LONG_CALL FROM SPY ORDER BY width WHERE Dte ~ 30",
    "SELECT LONG_CALL FROM SPY LIMIT 5 ORDER BY width",
    "SELECT LONG_CALL FROM 123",
    "SELECT LONG_CALL FROM A1PHA",
])
def test_malformed_queries_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse_text(bad)


BIG = "9" * 400


@pytest.mark.parametrize("prefix,literal", [
    ("SELECT LONG_CALL FROM SPY WHERE Dte ~ ", BIG),
    ("SELECT LONG_CALL FROM SPY WHERE Delta > ", f"-{BIG}.5"),
    ("SELECT LONG_CALL FROM SPY HAVING width BETWEEN 1 AND ", BIG),
    ("SELECT LONG_CALL FROM SPY HAVING net_debit < ", BIG),
], ids=["where", "signed", "between", "having"])
def test_number_past_the_float_range_is_a_parse_error(prefix, literal):
    with pytest.raises(ParseError, match="number out of range") as exc_info:
        parse_text(prefix + literal)
    assert (exc_info.value.line, exc_info.value.column) == (1, len(prefix) + 1)
    assert len(str(exc_info.value)) < 200  # the literal is cut short


@pytest.mark.parametrize("limit", ["9" * 5000, "9223372036854775808",
                                   "0" * 5000 + "1" + "0" * 19],
                         ids=["5000-digits", "int64-max-plus-1", "zero-padded"])
def test_limit_past_the_int64_range_is_a_parse_error(limit):
    with pytest.raises(ParseError, match="LIMIT out of range") as exc_info:
        parse_text(f"SELECT LONG_CALL FROM SPY LIMIT {limit}")
    assert (exc_info.value.line, exc_info.value.column) == (1, 33)


def test_largest_limit_and_leading_zeros_parse():
    assert parse_text("SELECT LONG_CALL FROM SPY LIMIT 9223372036854775807"
                      ).limit == 2 ** 63 - 1
    assert parse_text("SELECT LONG_CALL FROM SPY LIMIT " + "0" * 5000 + "12"
                      ).limit == 12


def test_between_rejected_in_where():
    with pytest.raises(ParseError, match="HAVING"):
        parse_text("SELECT LONG_CALL FROM SPY WHERE Dte BETWEEN 20 AND 40")


def test_between_bounds_out_of_order_rejected():
    with pytest.raises(ParseError, match="out of order"):
        parse_text("SELECT LONG_CALL FROM SPY HAVING width BETWEEN 20 AND 5")


def test_between_bounds_must_be_numeric():
    with pytest.raises(ParseError):
        parse_text("SELECT LONG_CALL FROM SPY HAVING width BETWEEN low AND 5")


def test_parse_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as exc_info:
        parse_text("SELECT LONG_CALL SPY")
    err = exc_info.value
    assert (err.line, err.column) == (1, 18)
    assert "FROM" in err.expected
    assert "line 1" in str(err) and "column 18" in str(err)


def test_error_position_on_second_line():
    with pytest.raises(ParseError) as exc_info:
        parse_text("SELECT LONG_CALL FROM SPY\nWHERE Dte 30")
    assert exc_info.value.line == 2
    assert exc_info.value.column == 11


# ============================================================
# Mandatory-keyword deletion never yields a partial AST
# ============================================================


def _drop_token(text: str, index: int) -> str:
    tokens = [t for t in tokenize(text) if t.kind is not TokenKind.END]
    del tokens[index]
    return " ".join(t.text for t in tokens)


def mandatory_keyword_deletions(text: str):
    tokens = [t for t in tokenize(text) if t.kind is not TokenKind.END]
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.KEYWORD and tok.upper() in MANDATORY_KEYWORDS:
            yield _drop_token(text, i)


@pytest.mark.parametrize("query", [
    CONDOR_QUERY_QQQ,
    CONDOR_QUERY_TSLA,
    "SELECT STRADDLE FROM SPY HAVING width BETWEEN 5 AND 20 "
    "ORDER BY net_debit DESC LIMIT 3",
])
def test_deleting_any_mandatory_keyword_raises(query):
    mutants = list(mandatory_keyword_deletions(query))
    assert mutants  # the guard below must actually exercise something
    for mutant in mutants:
        with pytest.raises(ParseError):
            parse_text(mutant)


# ============================================================
# Round-trip property
# ============================================================


def test_thousand_random_asts_round_trip():
    rng = random.Random(20250823)
    for _ in range(1000):
        ast = random_ast(rng)
        text = pretty_print(ast)
        assert parse_text(text) == ast
        assert pretty_print(parse_text(text)) == text


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**48))
def test_round_trip_property(seed):
    ast = random_ast(random.Random(seed))
    assert parse_text(pretty_print(ast)) == ast


@settings(max_examples=100, deadline=None)
@given(limit=st.integers(min_value=1, max_value=10**9))
def test_any_positive_limit_round_trips(limit):
    ast = QueryAst(strategy="LONG_CALL", underlying="SPY", limit=limit)
    assert parse_text(pretty_print(ast)).limit == limit
