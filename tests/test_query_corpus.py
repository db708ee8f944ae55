"""Query-text byte gate: seeded mutations of attempt texts against
recorded hashes.

tests/data/query_corpus_sha256.json holds the base texts (the distinct
attempt texts of the benchmark's seed-1 `attempts` workload, in first-use
order) and one sha256 per case. A case is a base text with one to three
seeded defects: a keyword's case flipped; the space between two tokens
made a newline, a tab, a `--` comment or nothing; a token dropped,
duplicated or swapped with another; a junk character, a Unicode digit or
a query_text.random_query_text fragment put in.

The hash is of pretty_print(ast) plus the validate outcome when the text
parses, or of `stage:line:column:message:expected` when lexing or parsing
refuses it. Every case must reproduce its hash, so a change to what a
text parses to, or to a syntax error's text, stage, position or expected
set, fails here; the lexer oracle gates tokens only.

The module needs neither pytest nor numpy, so the check also runs on
its own, on any supported interpreter:

    PYTHONPATH=src python3 tests/test_query_corpus.py

Recording (only when the syntax contract changes on purpose):

    PYTHONPATH=src python3 tests/test_query_corpus.py --record
"""

import collections
import hashlib
import json
import os
import random
import re
import sys

from oql.catalog import validate
from oql.errors import OqlError
from oql.syntax import parse_text, pretty_print
from query_text import random_query_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_FILE = os.path.join(ROOT, "tests", "data", "query_corpus_sha256.json")
SEED = 20_261_019
CASES = 2_000

# one query token, or one character outside the token alphabet
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[+-]?[0-9.]+|[<>!]=|\S")
_GAPS = ("\n", "\t", "\r\n", "  ", " -- note\n", "--\n", "\n\n\t",
         " -- a -- b\n", "\t--x\r\n ", "")
_JUNK = ("!", "#", ";", "$", "&", "'", "\u00e9", "\0", "\u00a0", "\u2028",
         "\u0663", "\u00b2", "\uff11", "\u0669\u0660",
         # letters that only Unicode case folding equates with a keyword's
         "\u017fELECT", "A\u017fC", "L\u0130MIT")
# ASCII digits to Arabic-Indic ones, which Unicode's \d also matches
_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66a))))


def split(text: str) -> tuple[list[str], list[str]]:
    """(tokens, gaps): gaps[i] is the text before tokens[i]; the last gap
    follows the last token."""
    tokens, gaps, at = [], [], 0
    for m in _TOKEN_RE.finditer(text):
        gaps.append(text[at:m.start()])
        tokens.append(m.group())
        at = m.end()
    gaps.append(text[at:])
    return tokens, gaps


def _flip_case(rng: random.Random, word: str) -> str:
    how = rng.choice(("lower", "swap", "title", "mixed"))
    if how == "mixed":
        return "".join(c.upper() if rng.random() < 0.5 else c.lower()
                       for c in word)
    return getattr(word, {"lower": "lower", "swap": "swapcase",
                          "title": "title"}[how])()


def mutate(rng: random.Random, tokens: list[str], gaps: list[str]) -> str:
    """Apply one defect in place; returns its description."""
    kind = rng.choice(("case", "case", "gap", "gap", "gap", "drop",
                       "duplicate", "swap", "junk", "digits", "fragment"))
    if not tokens:
        kind = "fragment"
    at = rng.randrange(len(tokens)) if tokens else 0
    if kind == "case":
        words = [i for i, t in enumerate(tokens) if t[:1].isalpha()]
        at = rng.choice(words) if words else at
        tokens[at] = _flip_case(rng, tokens[at])
        return f"case {tokens[at]!r}"
    if kind == "gap":
        at = rng.randrange(len(gaps))
        gaps[at] = rng.choice(_GAPS)
        return f"gap {at} {gaps[at]!r}"
    if kind == "drop":
        del tokens[at]
        gaps[at:at + 2] = [gaps[at] + gaps[at + 1]]
        return f"drop {at}"
    if kind == "duplicate":
        tokens.insert(at, tokens[at])
        gaps.insert(at + 1, rng.choice((" ", "", "\n")))
        return f"duplicate {at}"
    if kind == "swap":
        other = min(len(tokens) - 1, at + rng.choice((1, 1, 2, 5)))
        tokens[at], tokens[other] = tokens[other], tokens[at]
        return f"swap {at} {other}"
    if kind == "digits":
        numbers = [i for i, t in enumerate(tokens) if t[-1:].isdigit()]
        at = rng.choice(numbers) if numbers else at
        tokens[at] = tokens[at].translate(_DIGITS)
        return f"digits {tokens[at]!r}"
    where = rng.randrange(len(tokens) + 1)
    text = rng.choice(_JUNK) if kind == "junk" else random_query_text(rng)
    tokens.insert(where, text)
    gaps.insert(where + 1, rng.choice((" ", "")))
    return f"{kind} {where} {text!r}"


def join(tokens: list[str], gaps: list[str]) -> str:
    return "".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]


def cases(bases: list[str]):
    """Every (text, description) case in corpus order."""
    rng = random.Random(SEED)
    for _ in range(CASES):
        tokens, gaps = split(rng.choice(bases))
        notes = [mutate(rng, tokens, gaps)
                 for _ in range(rng.choice((1, 1, 1, 2, 2, 3)))]
        yield join(tokens, gaps), "; ".join(notes)


def outcome_text(text: str) -> str:
    """pretty_print(ast) and the validate outcome, or the syntax error as
    `stage:line:column:message:expected`."""
    try:
        ast = parse_text(text)
    except OqlError as exc:
        return (f"{exc.stage}:{getattr(exc, 'line', None)}:"
                f"{getattr(exc, 'column', None)}:{exc}:"
                f"{getattr(exc, 'expected', None)}")
    printed = pretty_print(ast)
    try:
        vq = validate(ast)
    except OqlError as exc:
        return f"{printed}\n{exc.stage}:{exc}"
    return (f"{printed}\nvalid:{vq.schema.name}:{vq.per_role_conditions}:"
            f"{vq.ast.having}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load() -> dict:
    with open(CORPUS_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_reproduces_its_recorded_hash():
    corpus = _load()
    all_cases = list(cases(corpus["bases"]))
    got = [_digest(outcome_text(text)) for text, _ in all_cases]
    assert len(got) == len(corpus["sha256"]) == CASES
    moved = [f"{i} ({all_cases[i][1]}): {all_cases[i][0]!r}"
             for i, (a, b) in enumerate(zip(got, corpus["sha256"])) if a != b]
    assert moved == [], f"{len(moved)} cases moved, first {moved[:10]}"


def test_the_cases_cover_what_the_gate_is_for():
    kinds = collections.Counter()
    for text, _ in cases(_load()["bases"]):
        result = outcome_text(text)
        stage = result.split(":", 1)[0] if "\n" not in result else (
            result.split("\n")[-1].split(":", 1)[0])
        kinds[stage] += 1
        if "\n" in text.strip():
            kinds["multi-line"] += 1
            if stage in ("lex", "parse") and result.split(":")[1] != "1":
                kinds[stage, "past line 1"] += 1
    least = {"lex": 300, "parse": 600, "validate": 100, "valid": 400,
             "multi-line": 500, ("lex", "past line 1"): 50,
             ("parse", "past line 1"): 120}
    for kind, count in least.items():
        assert kinds[kind] >= count, (kind, kinds)


def _attempt_texts() -> list[str]:
    """The distinct attempt texts of the seed-1 `attempts` workload."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs
    texts = [a for case in inputs._attempt_cases(1) for a in case["attempts"]]
    return list(dict.fromkeys(texts))


def record() -> None:
    bases = _attempt_texts()
    digests = [_digest(outcome_text(text)) for text, _ in cases(bases)]
    with open(CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "bases": bases, "sha256": digests}, fh,
                  indent=0)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:]:
        sys.exit("usage: test_query_corpus.py [--record]")
    else:
        test_every_case_reproduces_its_recorded_hash()
        print(f"{CASES} cases held on Python {sys.version.split()[0]}")
