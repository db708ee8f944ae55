"""Lexer behavior, read through the (kind, text, line, column) tokens
scan_tokens projects from the scan's rows: token stream shape, positions,
and rejections."""

import pytest

from lexer_oracle import (LONG_SKIPPED_TEXTS, check_long_skipped_text,
                          check_query_corpus_texts, check_random_texts,
                          scan_tokens)
from oql.errors import LexError, ParseError
from oql.syntax import parse_text


def kinds_and_texts(source):
    return [(kind, text) for kind, text, _, _ in scan_tokens(source)]


def test_simple_query_token_stream():
    tokens = kinds_and_texts("SELECT LONG_CALL FROM SPY")
    assert tokens == [
        ("KEYWORD", "SELECT"),
        ("IDENT", "LONG_CALL"),
        ("KEYWORD", "FROM"),
        ("IDENT", "SPY"),
        ("END", ""),
    ]


def test_keywords_recognized_case_insensitively():
    tokens = kinds_and_texts(
        "select From wHeRe and HAVING order by limit asc desc between")
    assert all(kind == "KEYWORD" for kind, _ in tokens[:-1])
    assert [text.upper() for _, text in tokens[:-1]] == [
        "SELECT", "FROM", "WHERE", "AND", "HAVING", "ORDER", "BY", "LIMIT",
        "ASC", "DESC", "BETWEEN",
    ]


def test_role_dot_field_splits_into_three_tokens():
    tokens = kinds_and_texts("SC.Dte")
    assert tokens[:3] == [
        ("IDENT", "SC"),
        ("DOT", "."),
        ("IDENT", "Dte"),
    ]


@pytest.mark.parametrize("text", ["30", "0.25", "-0.05", "+1.5", ".5", "7."])
def test_number_literal_forms(text):
    tokens = kinds_and_texts(text)
    assert tokens[0] == ("NUMBER", text)
    assert tokens[1][0] == "END"


def test_sign_binds_to_the_literal_after_an_operator():
    tokens = kinds_and_texts("Delta > -0.05")
    assert tokens == [
        ("IDENT", "Delta"),
        ("OP", ">"),
        ("NUMBER", "-0.05"),
        ("END", ""),
    ]


@pytest.mark.parametrize("op", ["=", "!=", "<", ">", "<=", ">=", "~"])
def test_every_comparison_operator_is_one_token(op):
    tokens = scan_tokens(f"x {op} 1")
    assert tokens[1] == ("OP", op, 1, 3)


def test_token_is_a_four_field_tuple():
    # kind, text, then the 1-based line and column lexer.position reports
    assert scan_tokens("\n    select")[0] == ("KEYWORD", "select", 2, 5)
    assert scan_tokens("select")[0] == ("KEYWORD", "select", 1, 1)


def test_two_character_operators_win_over_one_character():
    # no space between operator and number: ">=" must not split into > and =
    tokens = kinds_and_texts("a>=1")
    assert tokens[1] == ("OP", ">=")


def test_comma_token():
    tokens = kinds_and_texts("ORDER BY a ASC, b DESC")
    assert ("COMMA", ",") in tokens


def test_comments_run_to_end_of_line():
    source = "SELECT X -- pick a strategy\nFROM Y -- trailing"
    tokens = kinds_and_texts(source)
    assert tokens == [
        ("KEYWORD", "SELECT"),
        ("IDENT", "X"),
        ("KEYWORD", "FROM"),
        ("IDENT", "Y"),
        ("END", ""),
    ]


def test_line_and_column_are_one_based_and_track_newlines():
    by_text = {text: (line, column)
               for _, text, line, column in scan_tokens("SELECT X\nFROM  YY")}
    assert by_text["SELECT"] == (1, 1)
    assert by_text["X"] == (1, 8)
    assert by_text["FROM"] == (2, 1)
    assert by_text["YY"] == (2, 7)


def positions(source):
    return [(text, line, column) for _, text, line, column in scan_tokens(source)]


def test_one_line_text_positions():
    # no newline at all: every token is on line 1, its column its offset + 1
    assert positions("  SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ -30 LIMIT 5") == [
        ("SELECT", 1, 3), ("IRON_CONDOR", 1, 10), ("FROM", 1, 22),
        ("TSLA", 1, 27), ("WHERE", 1, 32), ("Dte", 1, 38), ("~", 1, 42),
        ("-30", 1, 44), ("LIMIT", 1, 48), ("5", 1, 54), ("", 1, 55)]


def test_positions_after_a_newline_that_ends_a_comment():
    # the text's only newline ends a `--` comment
    assert positions("SELECT X -- a comment\n  FROM Y") == [
        ("SELECT", 1, 1), ("X", 1, 8), ("FROM", 2, 3), ("Y", 2, 8),
        ("", 2, 9)]
    # a comment that ends the text: END sits after its newline
    assert positions("SELECT X -- done\n") == [
        ("SELECT", 1, 1), ("X", 1, 8), ("", 2, 1)]


def test_positions_across_crlf_gaps():
    # \r is whitespace; only \n starts a line
    assert positions("SELECT X\r\nFROM Y\r\n\r\n WHERE Dte ~ 30") == [
        ("SELECT", 1, 1), ("X", 1, 8), ("FROM", 2, 1), ("Y", 2, 6),
        ("WHERE", 4, 2), ("Dte", 4, 8), ("~", 4, 12), ("30", 4, 14),
        ("", 4, 16)]


@pytest.mark.parametrize("source,line,column", [
    ("SELECT X FROM @", 1, 15),
    ("SELECT X -- a comment\nFROM $Y", 2, 6),
    ("SELECT X\r\n\r\n  FROM Y;", 3, 9),
])
def test_lex_error_positions(source, line, column):
    with pytest.raises(LexError) as exc_info:
        scan_tokens(source)
    assert (exc_info.value.line, exc_info.value.column) == (line, column)
    assert f"(line {line}, column {column})" in str(exc_info.value)


@pytest.mark.parametrize("source,line,column", [
    ("SELECT X FROM Y LIMIT 0", 1, 23),
    ("SELECT X -- a comment\nFROM 5", 2, 6),
    ("SELECT X\r\nFROM Y\r\n\r\n  WHERE Dte BETWEEN 1 AND 2", 4, 13),
])
def test_parse_error_positions(source, line, column):
    with pytest.raises(ParseError) as exc_info:
        parse_text(source)
    assert (exc_info.value.line, exc_info.value.column) == (line, column)
    assert f"(line {line}, column {column})" in str(exc_info.value)


def test_end_token_is_always_appended():
    assert scan_tokens("")[-1][0] == "END"
    assert scan_tokens("x")[-1][0] == "END"


@pytest.mark.parametrize("bad", ["@", "$", "#", ";", "'STRADDLE'", '"x"'])
def test_unexpected_characters_raise_lex_error(bad):
    with pytest.raises(LexError):
        scan_tokens(f"SELECT {bad}")


def test_lex_error_reports_position():
    with pytest.raises(LexError) as exc_info:
        scan_tokens("SELECT X\nFROM $Y")
    err = exc_info.value
    assert err.line == 2
    assert err.column == 6


def test_lone_sign_is_not_a_token():
    with pytest.raises(LexError):
        scan_tokens("a - 5")


def test_scan_matches_the_probe_by_probe_oracle():
    check_random_texts()


def test_scan_matches_the_oracle_on_the_query_corpus():
    # the differential compares tokens as well as errors
    assert check_query_corpus_texts() >= 500


@pytest.mark.parametrize("source", list(LONG_SKIPPED_TEXTS.values()),
                         ids=list(LONG_SKIPPED_TEXTS))
def test_long_skipped_text_lexes_in_linear_time(source):
    check_long_skipped_text(source)
