"""Load byte gate: seeded mutations of a chain file against recorded hashes.

tests/data/load_corpus_sha256.json holds one sha256 per case. A case is
tests/data/chain_spy_edges.csv, or its JSONL twin, with one or two
seeded defects: a cell or value made empty, nan, inf, 1e400, a bad date,
non-ASCII digits, a bad type code, a JSON bool, list, object or null; a
row duplicated, dropped, truncated or swapped; a key added or removed;
the metadata line changed. Two defects land in different rows, so the
order in which a loader reports them is gated too.

The hash is of snapshot_to_text (in the case's format) plus
exclusion_summary() when the file loads, or of `stage:row:message` when
it is refused. Every case must reproduce its hash, so a change to what
loads, what enrich excludes or backfills, or to an error's text, stage,
row or precedence fails here.

Recording (only when the load contract changes on purpose):

    PYTHONPATH=src python3 tests/test_load_corpus.py --record
"""

import collections
import hashlib
import json
import os
import random
import sys
import tempfile

from oql.chain import load_snapshot, snapshot_to_text
from oql.errors import OqlError

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS_FILE = os.path.join(DATA_DIR, "load_corpus_sha256.json")
BASE_FILE = os.path.join(DATA_DIR, "chain_spy_edges.csv")
SEED = 20_261_020
CASES = 400

# cell texts, by the kind of column they are drawn for
_NUMBER_TEXTS = ("", "nan", "NaN", "inf", "-inf", "Infinity", "1e400",
                 "-1e400", "abc", " ", "１００",
                 "٣", "0", "-0", "-5", "1e-320", "12.5", "1_000",
                 " 7 ", "+3", "0.01", "500", "0.3")
_DATE_TEXTS = ("", "2025-13-02", "20250602", "2025-W23-1", "2025-06-31",
               " 2025-06-02", "2025-06-02", "2025-06-01", "2025-07-02",
               "2025-08-01", "２０２５-06-02", "2025-6-2",
               "2025-07-02T00:00")
_TYPE_TEXTS = ("", "X", "c", "p", "CALL", "C", "P", " C")
_TEXT_TEXTS = ("", "SPY", "QQQ", "spy", "O:SPY250702C00100000")

# JSON values; _RAW marks text written into the line as is
_RAW = "\x00raw:"
_JSON_VALUES = (True, False, None, [], [1], {}, {"a": 1}, "", "3.5", "abc",
                float("nan"), float("inf"), _RAW + "1e400", _RAW + "-1e400",
                -0.0, 12.0, 12.5, 10 ** 30, 0, -5, "１００",
                12345, "2025-06-02", "20250602", "C", "P", "X", 0.01, 500)

KEYS = ("ticker", "underlying", "as_of", "expiry", "strike", "type",
        "price", "volume", "iv", "delta", "gamma", "vega", "theta")
_DATE_KEYS = ("as_of", "expiry")
_TEXT_KEYS = ("ticker", "underlying")


def _base_csv() -> list[str]:
    with open(BASE_FILE, "r", encoding="utf-8", newline="") as fh:
        return fh.read().split("\n")[:-1]


def _base_jsonl(csv_lines: list[str]) -> tuple[dict, list[dict]]:
    """The JSONL twin of the base file: its meta and its record objects."""
    meta = {"underlying": "SPY", "as_of": "2025-06-02", "spot": 100.0,
            "rate": 0.04}
    rows = []
    for line in csv_lines[2:]:
        raw = dict(zip(KEYS, line.split(",")))
        obj = {}
        for key, text in raw.items():
            if key in ("strike", "price"):
                obj[key] = float(text)
            elif key == "volume":
                obj[key] = int(text)
            elif key in KEYS[8:]:
                obj[key] = None if text == "" else float(text)
            else:
                obj[key] = text
        rows.append(obj)
    return meta, rows


def _cell_text(rng: random.Random, column: int) -> str:
    key = KEYS[column]
    if rng.random() < 0.25:
        pool = _NUMBER_TEXTS
    elif key in _DATE_KEYS:
        pool = _DATE_TEXTS
    elif key == "type":
        pool = _TYPE_TEXTS
    elif key in _TEXT_KEYS:
        pool = _TEXT_TEXTS
    else:
        pool = _NUMBER_TEXTS
    return rng.choice(pool)


def _mutate_csv(rng: random.Random, lines: list[str], row: int) -> str:
    """Apply one defect to data row `row` (an index into lines[2:]) or, now
    and then, to the metadata or header line; returns its description."""
    at = 2 + row
    parts = lines[at].split(",")
    kind = rng.choice(("cell", "cell", "cell", "cell", "blank-model",
                       "blank-model", "blank-model", "duplicate", "duplicate-ticker", "drop", "truncate",
                       "cut", "extra", "blank-line", "swap", "meta"))
    if kind == "cell":
        column = rng.randrange(len(KEYS))
        parts[column] = _cell_text(rng, column)
        lines[at] = ",".join(parts)
        return f"cell {KEYS[column]}={parts[column]!r}"
    if kind == "blank-model":
        # what enrich fills in or excludes: no iv, no Greek, zero iv, a
        # price under the floor, expiry on as_of
        column, text = rng.choice(((8, ""), (9, ""), (10, ""), (11, ""),
                                   (12, ""), (8, "0"), (6, "0.01"),
                                   (3, "2025-06-02")))
        parts[column] = text
        if rng.random() < 0.5:
            parts[8] = ""
        lines[at] = ",".join(parts)
        return f"model {KEYS[column]}={text!r}"
    if kind == "duplicate":
        lines.insert(rng.randrange(2, len(lines) + 1), lines[at])
        return "duplicate"
    if kind == "duplicate-ticker":
        other = list(parts)
        other[4] = str(float(parts[4]) + 0.5)
        lines.insert(rng.randrange(2, len(lines) + 1), ",".join(other))
        return "duplicate ticker"
    if kind == "drop":
        del lines[at]
        return "drop"
    if kind == "truncate":
        lines[at] = ",".join(parts[:rng.randrange(len(parts))])
        return "truncate"
    if kind == "cut":
        lines[at] = lines[at][:rng.randrange(len(lines[at]))]
        return "cut"
    if kind == "extra":
        lines[at] = lines[at] + "," + rng.choice(("", "1", "x"))
        return "extra field"
    if kind == "blank-line":
        lines.insert(at, "")
        return "blank line"
    if kind == "swap":
        other = 2 + rng.randrange(len(lines) - 2)
        lines[at], lines[other] = lines[other], lines[at]
        return "swap"
    which = rng.choice(("spot", "rate", "as_of", "underlying", "drop-key",
                        "junk", "header", "no-meta"))
    if which == "header":
        lines[1] = lines[1].replace("volume", "vol")
    elif which == "no-meta":
        del lines[0]
    elif which == "junk":
        lines[0] += " junk"
    else:
        pairs = lines[0].split(" ")
        for i, pair in enumerate(pairs):
            if pair.startswith(which + "=") or (which == "drop-key"
                                                and pair.startswith("spot=")):
                if which == "drop-key":
                    del pairs[i]
                else:
                    value = rng.choice(_DATE_TEXTS if which == "as_of"
                                       else _NUMBER_TEXTS)
                    pairs[i] = f"{which}={value}"
                break
        lines[0] = " ".join(pairs)
    return f"meta {which}"


def _json_line(obj) -> str:
    text = json.dumps(obj)
    for value in ("1e400", "-1e400"):
        text = text.replace(json.dumps(_RAW + value), value)
    return text


def _mutate_jsonl(rng: random.Random, meta: dict, rows: list,
                  row: int) -> str:
    """Apply one defect to record `row` or, now and then, to the meta
    object; rows hold dicts, or text for a line that is not one."""
    obj = rows[row]
    kind = rng.choice(("value", "value", "value", "value", "blank-model",
                       "blank-model", "blank-model", "del-key", "add-key", "duplicate", "drop", "cut",
                       "not-object", "blank-line", "swap", "meta"))
    if isinstance(obj, str) and kind in ("value", "blank-model", "del-key",
                                         "add-key"):
        kind = "drop"
    if kind == "value":
        key = rng.choice(KEYS)
        obj[key] = rng.choice(_JSON_VALUES)
        return f"value {key}={obj[key]!r}"
    if kind == "blank-model":
        key, value = rng.choice((("iv", None), ("delta", None),
                                 ("gamma", None), ("theta", None),
                                 ("iv", 0), ("price", 0.01),
                                 ("expiry", "2025-06-02")))
        obj[key] = value
        if rng.random() < 0.5:
            obj["iv"] = None
        return f"model {key}={value!r}"
    if kind == "del-key":
        key = rng.choice(KEYS)
        del obj[key]
        return f"del {key}"
    if kind == "add-key":
        obj[rng.choice(("extra", "Strike", "meta"))] = 1
        return "add key"
    if kind == "duplicate":
        copy = obj if isinstance(obj, str) else dict(obj)
        rows.insert(rng.randrange(len(rows) + 1), copy)
        return "duplicate"
    if kind == "drop":
        del rows[row]
        return "drop"
    if kind == "cut":
        text = obj if isinstance(obj, str) else _json_line(obj)
        rows[row] = text[:rng.randrange(len(text))]
        return "cut"
    if kind == "not-object":
        rows[row] = rng.choice(("[1]", "1", '"x"', "null"))
        return "not an object"
    if kind == "blank-line":
        rows.insert(row, "")
        return "blank line"
    if kind == "swap":
        other = rng.randrange(len(rows))
        rows[row], rows[other] = rows[other], rows[row]
        return "swap"
    key = rng.choice(("underlying", "as_of", "spot", "rate"))
    if rng.random() < 0.2:
        del meta[key]
        return f"meta del {key}"
    meta[key] = rng.choice(_JSON_VALUES)
    return f"meta {key}={meta[key]!r}"


def cases():
    """Every (format, file text, description) case in corpus order."""
    rng = random.Random(SEED)
    base = _base_csv()
    base_meta, base_rows = _base_jsonl(base)
    for case in range(CASES):
        fmt = ("csv", "jsonl")[case % 2]
        n_rows = len(base) - 2
        first = rng.randrange(n_rows)
        rows_hit = [first]
        if rng.random() < 0.4:
            rows_hit.append(rng.choice([r for r in range(n_rows) if r != first]))
        notes = []
        if fmt == "csv":
            lines = list(base)
            # the later row first, so the earlier row's index still holds
            for row in sorted(rows_hit, reverse=True):
                row = min(row, len(lines) - 3)
                if row >= 0:
                    notes.append(f"row {row}: {_mutate_csv(rng, lines, row)}")
            text = "\n".join(lines) + "\n"
        else:
            meta = dict(base_meta)
            rows = [dict(obj) for obj in base_rows]
            for row in sorted(rows_hit, reverse=True):
                row = min(row, len(rows) - 1)
                if row >= 0:
                    notes.append(
                        f"row {row}: {_mutate_jsonl(rng, meta, rows, row)}")
            lines = [_json_line({"meta": meta})]
            lines += [obj if isinstance(obj, str) else _json_line(obj)
                      for obj in rows]
            text = "\n".join(lines) + "\n"
        yield fmt, text, "; ".join(notes)


def outcome_text(fmt: str, text: str, path: str) -> str:
    """The loaded file's canonical text and exclusions, or
    `stage:row:message`; the file is written to `path` + its format."""
    path += "." + fmt
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        snapshot = load_snapshot(path)
    except OqlError as exc:
        return f"{exc.stage}:{getattr(exc, 'row', None)}:{exc}"
    return snapshot_to_text(snapshot, fmt) + snapshot.exclusion_summary()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_reproduces_its_recorded_hash(tmp_path):
    with open(CORPUS_FILE, "r", encoding="utf-8") as fh:
        want = json.load(fh)["sha256"]
    all_cases = list(cases())
    got = [_digest(outcome_text(fmt, text, str(tmp_path / f"case{i}")))
           for i, (fmt, text, _) in enumerate(all_cases)]
    assert len(got) == len(want) == CASES
    moved = [f"{i} ({all_cases[i][0]}: {all_cases[i][2]})"
             for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert moved == [], f"{len(moved)} cases moved, first {moved[:10]}"


def test_the_cases_cover_what_the_gate_is_for(tmp_path):
    kinds = collections.Counter()
    refused_rows = collections.defaultdict(set)
    for i, (fmt, text, notes) in enumerate(cases()):
        result = outcome_text(fmt, text, str(tmp_path / f"case{i}"))
        if result.startswith("load:"):
            message = result.split(":", 2)[2]
            refused_rows[fmt].add(result.split(":")[1])
            kinds[fmt, "duplicate" if "duplicate" in message
                  else "refused"] += 1
            kinds[fmt, "two defects"] += ";" in notes
        else:
            kinds[fmt, "excluded" if "excluded:" in result else "clean"] += 1
    for fmt in ("csv", "jsonl"):
        for kind in ("refused", "duplicate", "excluded", "clean"):
            assert kinds[fmt, kind] >= 5, (fmt, kind, kinds[fmt, kind])
        # refusals with two defects gate which one is reported
        assert kinds[fmt, "two defects"] >= 40, (fmt, kinds[fmt, "two defects"])
        assert len(refused_rows[fmt]) >= 10, sorted(refused_rows[fmt])


def record() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        digests = [_digest(outcome_text(fmt, text,
                                        os.path.join(workdir, f"case{i}")))
                   for i, (fmt, text, _) in enumerate(cases())]
    with open(CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "sha256": digests}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_load_corpus.py --record")
    record()
