"""Tokenizer behavior: token stream shape, positions, and rejections."""

import pytest

from lexer_oracle import (LONG_SKIPPED_TEXTS, check_long_skipped_text,
                          check_query_corpus_texts, check_random_texts)
from oql.errors import LexError, ParseError
from oql.syntax import parse_text
from oql.syntax.lexer import Token, TokenKind, tokenize


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_simple_query_token_stream():
    tokens = kinds_and_texts("SELECT LONG_CALL FROM SPY")
    assert tokens == [
        (TokenKind.KEYWORD, "SELECT"),
        (TokenKind.IDENT, "LONG_CALL"),
        (TokenKind.KEYWORD, "FROM"),
        (TokenKind.IDENT, "SPY"),
        (TokenKind.END, ""),
    ]


def test_keywords_recognized_case_insensitively():
    tokens = tokenize("select From wHeRe and HAVING order by limit asc desc between")
    assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])
    assert [t.upper() for t in tokens[:-1]] == [
        "SELECT", "FROM", "WHERE", "AND", "HAVING", "ORDER", "BY", "LIMIT",
        "ASC", "DESC", "BETWEEN",
    ]


def test_role_dot_field_splits_into_three_tokens():
    tokens = kinds_and_texts("SC.Dte")
    assert tokens[:3] == [
        (TokenKind.IDENT, "SC"),
        (TokenKind.DOT, "."),
        (TokenKind.IDENT, "Dte"),
    ]


@pytest.mark.parametrize("text", ["30", "0.25", "-0.05", "+1.5", ".5", "7."])
def test_number_literal_forms(text):
    tokens = tokenize(text)
    assert tokens[0].kind is TokenKind.NUMBER
    assert tokens[0].text == text
    assert tokens[1].kind is TokenKind.END


def test_sign_binds_to_the_literal_after_an_operator():
    tokens = kinds_and_texts("Delta > -0.05")
    assert tokens == [
        (TokenKind.IDENT, "Delta"),
        (TokenKind.OP, ">"),
        (TokenKind.NUMBER, "-0.05"),
        (TokenKind.END, ""),
    ]


@pytest.mark.parametrize("op", ["=", "!=", "<", ">", "<=", ">=", "~"])
def test_every_comparison_operator_is_one_token(op):
    tokens = tokenize(f"x {op} 1")
    assert tokens[1] == Token(TokenKind.OP, op, 1, 3)


def test_token_is_a_four_field_tuple():
    tok = Token(TokenKind.KEYWORD, "select", 2, 5)
    assert (tok.kind, tok.text, tok.line, tok.column) == (
        TokenKind.KEYWORD, "select", 2, 5)
    assert repr(tok) == ("Token(kind=<TokenKind.KEYWORD: 'keyword'>, "
                         "text='select', line=2, column=5)")
    assert tok.upper() == "SELECT"
    assert tok == Token(TokenKind.KEYWORD, "select", 2, 5)
    assert tok != Token(TokenKind.KEYWORD, "select", 2, 6)
    # a tuple: it unpacks and equals the plain 4-tuple of its fields
    kind, text, line, column = tok
    assert tok == (kind, text, line, column)
    assert tokenize("select")[0] == (TokenKind.KEYWORD, "select", 1, 1)


def test_two_character_operators_win_over_one_character():
    # no space between operator and number: ">=" must not split into > and =
    tokens = kinds_and_texts("a>=1")
    assert tokens[1] == (TokenKind.OP, ">=")


def test_comma_token():
    tokens = kinds_and_texts("ORDER BY a ASC, b DESC")
    assert (TokenKind.COMMA, ",") in tokens


def test_comments_run_to_end_of_line():
    source = "SELECT X -- pick a strategy\nFROM Y -- trailing"
    tokens = kinds_and_texts(source)
    assert tokens == [
        (TokenKind.KEYWORD, "SELECT"),
        (TokenKind.IDENT, "X"),
        (TokenKind.KEYWORD, "FROM"),
        (TokenKind.IDENT, "Y"),
        (TokenKind.END, ""),
    ]


def test_line_and_column_are_one_based_and_track_newlines():
    tokens = tokenize("SELECT X\nFROM  YY")
    by_text = {t.text: t for t in tokens if t.text}
    assert (by_text["SELECT"].line, by_text["SELECT"].column) == (1, 1)
    assert (by_text["X"].line, by_text["X"].column) == (1, 8)
    assert (by_text["FROM"].line, by_text["FROM"].column) == (2, 1)
    assert (by_text["YY"].line, by_text["YY"].column) == (2, 7)


def positions(source):
    return [(t.text, t.line, t.column) for t in tokenize(source)]


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
        tokenize(source)
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
    assert tokenize("")[-1].kind is TokenKind.END
    assert tokenize("x")[-1].kind is TokenKind.END


@pytest.mark.parametrize("bad", ["@", "$", "#", ";", "'STRADDLE'", '"x"'])
def test_unexpected_characters_raise_lex_error(bad):
    with pytest.raises(LexError):
        tokenize(f"SELECT {bad}")


def test_lex_error_reports_position():
    with pytest.raises(LexError) as exc_info:
        tokenize("SELECT X\nFROM $Y")
    err = exc_info.value
    assert err.line == 2
    assert err.column == 6


def test_lone_sign_is_not_a_token():
    with pytest.raises(LexError):
        tokenize("a - 5")


def test_tokenize_matches_the_probe_by_probe_oracle():
    check_random_texts()


def test_parse_text_matches_parse_on_the_query_corpus():
    # the differential compares ASTs as well as errors
    assert check_query_corpus_texts() >= 500


@pytest.mark.parametrize("source", list(LONG_SKIPPED_TEXTS.values()),
                         ids=list(LONG_SKIPPED_TEXTS))
def test_long_skipped_text_lexes_in_linear_time(source):
    check_long_skipped_text(source)
