"""Chain data model: file formats, validation, enrichment, generators."""

import datetime as dt
import json
import math
import re

import numpy as np
import pytest

from oql import chain
from oql.chain import (CSV_HEADER, GREEK_FIELDS, ChainSnapshot,
                       ContractRecord, enrich, generate_path,
                       generate_synthetic, load_snapshot, moneyness_codes,
                       occ_ticker, save_snapshot, smile_vol, snapshot_to_text)
from oql.config import RunConfig
from oql.engine import execute
from oql.errors import ChainError
from oql.fields import MONEYNESS_VALUES
from oql.pricing import MarketParams, bsm_price, greeks, implied_vol

AS_OF = dt.date(2025, 6, 2)
EXPIRY = dt.date(2025, 7, 2)


def small_snapshot(**kwargs):
    params = dict(
        underlying="SPY", as_of=AS_OF, spot=100.0, rate=0.04,
        expiries=[EXPIRY], strikes=[90.0, 100.0, 110.0], base_vol=0.3,
        seed=3)
    params.update(kwargs)
    return generate_synthetic(**params)


def record(**kwargs):
    base = dict(
        ticker="O:SPY250702C00100000", underlying="SPY", as_of=AS_OF,
        expiry=EXPIRY, strike=100.0, option_type="call", price=3.5,
        volume=120, iv=0.3, delta=0.5, gamma=0.02, vega=11.0, theta=-18.0)
    base.update(kwargs)
    return ContractRecord(**base)


# ============================================================
# Tickers and moneyness
# ============================================================


def test_ticker_prefix_marks_each_ticker_that_prefixes_another():
    names = ("BA", "C", "ABC", "A", "B", "AB")
    records = [record(ticker=name, strike=100.0 + i)
               for i, name in enumerate(names)]
    columns = chain.record_columns(records)
    flagged = {rec.ticker: flag for rec, flag in zip(
        records, columns["ticker_prefix"].tolist())}
    assert flagged == {"A": True, "AB": True, "ABC": False, "B": True,
                       "BA": False, "C": False}
    assert columns["ticker_prefix"].dtype == bool
    assert not chain.record_columns([])["ticker_prefix"].any()


def test_occ_ticker_format():
    assert occ_ticker("TSLA", dt.date(2025, 12, 19), "put", 300.0) == \
        "O:TSLA251219P00300000"
    assert occ_ticker("SPY", dt.date(2025, 7, 2), "call", 2.5) == \
        "O:SPY250702C00002500"
    assert occ_ticker("QQQ", dt.date(2026, 1, 16), "call", 512.5) == \
        "O:QQQ260116C00512500"
    assert occ_ticker("SPY", EXPIRY, "call", 99999.999) == \
        "O:SPY250702C99999999"


def moneyness(option_type: str, strike: float) -> str:
    """The label of one contract's code, spot 100 and atm_band 0.01."""
    code = moneyness_codes(option_type == "call", strike, 100.0, 0.01)
    assert code.dtype == np.int8
    return MONEYNESS_VALUES[code]


@pytest.mark.parametrize("option_type,strike,expected", [
    ("call", 95.0, "ITM"),
    ("call", 105.0, "OTM"),
    ("put", 95.0, "OTM"),
    ("put", 105.0, "ITM"),
    ("call", 100.5, "ATM"),
    ("put", 99.5, "ATM"),
    ("call", 101.0, "ATM"),   # the band edge is inclusive
    ("put", 99.0, "ATM"),
])
def test_moneyness_classification(option_type, strike, expected):
    assert moneyness(option_type, strike) == expected


def test_moneyness_just_outside_band():
    assert moneyness("call", 101.01) == "OTM"
    assert moneyness("put", 98.99) == "OTM"


def test_dte_and_tau():
    rec = record()
    assert rec.dte() == 30
    assert rec.tau() == pytest.approx(30.0 / 365.0, abs=0)


# ============================================================
# File formats
# ============================================================


def test_csv_text_starts_with_meta_and_header():
    text = snapshot_to_text(small_snapshot(), "csv")
    lines = text.splitlines()
    assert lines[0] == "# oql-chain underlying=SPY as_of=2025-06-02 spot=100 rate=0.04"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 6  # 3 strikes x call/put


def test_csv_round_trip_is_byte_identical(tmp_path):
    snapshot = small_snapshot()
    path = tmp_path / "chain.csv"
    save_snapshot(snapshot, str(path))
    first = path.read_bytes()
    loaded = load_snapshot(str(path))
    save_snapshot(loaded, str(path))
    assert path.read_bytes() == first


def test_jsonl_round_trip_is_byte_identical(tmp_path):
    snapshot = small_snapshot()
    path = tmp_path / "chain.jsonl"
    save_snapshot(snapshot, str(path))
    first = path.read_bytes()
    loaded = load_snapshot(str(path))
    save_snapshot(loaded, str(path))
    assert path.read_bytes() == first
    assert first.splitlines()[0].startswith(b'{"meta":')


def test_csv_and_jsonl_agree(tmp_path):
    snapshot = small_snapshot()
    csv_path, jsonl_path = tmp_path / "c.csv", tmp_path / "c.jsonl"
    save_snapshot(snapshot, str(csv_path))
    save_snapshot(snapshot, str(jsonl_path))
    a = load_snapshot(str(csv_path))
    b = load_snapshot(str(jsonl_path))
    assert a.records == b.records
    assert (a.underlying, a.as_of, a.spot, a.rate) == \
        (b.underlying, b.as_of, b.spot, b.rate)


def test_format_detection(tmp_path):
    snapshot = small_snapshot()
    path = tmp_path / "chain.dat"
    with pytest.raises(ChainError, match="^cannot infer the snapshot format"):
        save_snapshot(snapshot, str(path))
    assert not path.exists()
    path.write_text(snapshot_to_text(snapshot, "csv"), encoding="utf-8")
    with pytest.raises(ChainError, match="^cannot infer the snapshot format"):
        load_snapshot(str(path))


@pytest.mark.parametrize("mark", [",", "\n"], ids=["comma", "line-break"])
def test_csv_save_refuses_a_ticker_its_loader_would_split(tmp_path, mark):
    from dataclasses import replace
    snapshot = small_snapshot()
    ticker = "O:SPY" + mark + "X"
    snapshot = replace(snapshot, records=(
        replace(snapshot.records[0], ticker=ticker),) + snapshot.records[1:])
    jsonl = tmp_path / "chain.jsonl"
    save_snapshot(snapshot, str(jsonl))
    loaded = load_snapshot(str(jsonl))
    assert loaded.records[0].ticker == ticker
    # the refusal names the ticker and leaves no file behind, nor
    # truncates one that is there
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("old", encoding="utf-8")
    for path in (fresh, kept):
        with pytest.raises(ChainError) as exc_info:
            save_snapshot(loaded, str(path))
        assert repr(ticker) in str(exc_info.value)
    assert not fresh.exists() and kept.read_text(encoding="utf-8") == "old"
    # JSONL keeps such a ticker, byte for byte
    again = tmp_path / "again.jsonl"
    save_snapshot(loaded, str(again))
    assert again.read_bytes() == jsonl.read_bytes()


def write_csv(tmp_path, lines):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# how a ChainError words a record that parses but breaks a chain invariant
_INVARIANT = (r"^row \d+: (bad option type|(underlying|as_of) \S+ does not "
              r"match|strike must be > 0|(price|volume|iv) must be >= 0|"
              r"expiry \S+ is before|(call|put) delta must lie|duplicate )")

GOOD_META = "# oql-chain underlying=SPY as_of=2025-06-02 spot=100 rate=0.04"
GOOD_ROW = ("O:SPY250702C00100000,SPY,2025-06-02,2025-07-02,100,C,"
            "3.5,120,0.3,0.5,0.02,11,-18")


def test_missing_meta_line_rejected(tmp_path):
    path = write_csv(tmp_path, [CSV_HEADER, GOOD_ROW])
    with pytest.raises(ChainError,
                       match="^row 1: first line must start with") as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 1


def test_wrong_header_rejected(tmp_path):
    path = write_csv(tmp_path, [GOOD_META, "ticker,underlying", GOOD_ROW])
    with pytest.raises(ChainError,
                       match="^row 2: second line must be the header") as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 2


def test_wrong_field_count_reports_row(tmp_path):
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, GOOD_ROW,
                                "only,three,fields"])
    with pytest.raises(ChainError, match="^row 4: expected 13 fields") as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 4
    assert "13" in str(exc_info.value)


@pytest.mark.parametrize("mutate,message", [
    (lambda p: p.__setitem__(5, "X"), "type code"),
    (lambda p: p.__setitem__(6, "abc"), "price"),
    (lambda p: p.__setitem__(7, "12.5"), "volume"),
    (lambda p: p.__setitem__(3, "not-a-date"), "expiry"),
])
def test_malformed_cells_rejected(tmp_path, mutate, message):
    parts = GOOD_ROW.split(",")
    mutate(parts)
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, ",".join(parts)])
    with pytest.raises(ChainError, match=f"^row 3: bad {message} "):
        load_snapshot(path)


@pytest.mark.parametrize("mutate,message", [
    (lambda p: p.__setitem__(4, "-5"), "strike"),
    (lambda p: p.__setitem__(6, "-1"), "price"),
    (lambda p: p.__setitem__(7, "-3"), "volume"),
    (lambda p: p.__setitem__(3, "2025-05-30"), "before"),
    (lambda p: p.__setitem__(1, "QQQ"), "underlying"),
    (lambda p: p.__setitem__(2, "2025-06-03"), "as_of"),
    (lambda p: p.__setitem__(8, "-0.2"), "iv"),
    (lambda p: p.__setitem__(9, "1.4"), "delta"),
])
def test_invariant_violations_rejected(tmp_path, mutate, message):
    parts = GOOD_ROW.split(",")
    mutate(parts)
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, ",".join(parts)])
    with pytest.raises(ChainError, match=message) as exc_info:
        load_snapshot(path)
    assert re.match(_INVARIANT, str(exc_info.value))


def test_put_delta_sign_convention(tmp_path):
    parts = GOOD_ROW.split(",")
    parts[0] = "O:SPY250702P00100000"
    parts[5] = "P"
    parts[9] = "0.5"  # puts carry non-positive delta
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, ",".join(parts)])
    with pytest.raises(ChainError, match="^row 3: put delta must lie in"):
        load_snapshot(path)


def test_duplicate_contract_rejected(tmp_path):
    other = GOOD_ROW.replace("O:SPY250702C00100000", "O:SPY250702C00100000X")
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, GOOD_ROW, other])
    with pytest.raises(ChainError, match="^row 4: duplicate contract") as exc_info:
        load_snapshot(path)
    assert "row 3" in str(exc_info.value)


def test_two_contracts_sharing_a_ticker_rejected(tmp_path):
    other = GOOD_ROW.replace(",100,C,", ",100.0001,C,")
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, GOOD_ROW, other])
    with pytest.raises(ChainError,
                       match="^row 4: duplicate ticker 'O:SPY250702C00100000'") as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 4
    assert "first seen at row 3" in str(exc_info.value)


@pytest.mark.parametrize("second,message", [
    # two calls, strikes 100 and 110, both tickered O:SPY250702C00100000:
    # assembly would read them as one contract and build no spread
    (dict(strike=110.0, price=1.0, delta=0.2),
     "duplicate ticker 'O:SPY250702C00100000'; first seen at row 0"),
    (dict(ticker="O:QQQ250702C00110000", underlying="QQQ", strike=110.0),
     "underlying 'QQQ' does not match snapshot 'SPY'"),
    (dict(ticker="O:SPY250702P00110000", option_type="put", strike=110.0),
     r"put delta must lie in \[-1, 0\], got 0.5"),
    (dict(ticker="O:SPY250702C00100000X"),
     r"duplicate contract \(2025-07-02, 100, call\); first seen at row 0"),
    (dict(ticker="O:SPY250702C00110000", strike=110.0, volume=-1),
     "volume must be >= 0, got -1"),
    (dict(ticker="O:SPY250702C00000000", strike=0.0),
     "strike must be > 0, got 0.0"),
    (dict(ticker="O:SPY250602C00110000", expiry=dt.date(2025, 6, 1),
          strike=110.0),
     "expiry 2025-06-01 is before as_of 2025-06-02"),
    (dict(ticker="O:SPY250702C00110000", option_type="CALL", strike=110.0),
     "bad option type 'CALL'"),
    (dict(ticker="O:SPY250702C00110000", strike=110.0, iv=-0.2),
     r"iv must be >= 0, got -0.2"),
], ids=["shared-ticker", "wrong-underlying", "put-delta-positive",
        "contract-under-second-ticker", "negative-volume", "strike-zero",
        "expiry-before-as-of", "option-type-CALL", "negative-iv"])
def test_snapshot_built_in_memory_with_a_shared_ticker_rejected(second,
                                                                message):
    # a snapshot built in memory never passed the load checks; execute
    # runs them before anything is priced, with record positions as rows
    snapshot = ChainSnapshot(
        underlying="SPY", as_of=AS_OF, spot=100.0, rate=0.04,
        records=(record(), record(**second)))
    with pytest.raises(ChainError, match=f"^row 1: {message}") as exc_info:
        execute("SELECT BULL_CALL_SPREAD FROM SPY", snapshot, RunConfig())
    assert exc_info.value.row == 1
    assert exc_info.value.stage == "load"


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ChainError, match="^row 1: empty file; missing header$"):
        load_snapshot(str(path))


@pytest.mark.parametrize("column,text", [
    (12, "nan"), (12, "NaN"), (6, "inf"), (4, "-inf"), (8, "Infinity"),
])
def test_non_finite_cells_rejected_with_row_and_field(tmp_path, column, text):
    parts = GOOD_ROW.split(",")
    parts[column] = text
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, GOOD_ROW.replace(
        "C00100000", "C00105000").replace(",100,C,", ",105,C,"), ",".join(parts)])
    field = CSV_HEADER.split(",")[column]
    with pytest.raises(ChainError, match=f"{field} must be finite") as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 4


def test_jsonl_meta_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "chain.jsonl"
    path.write_text('{"meta": [1]}\n', encoding="utf-8")
    with pytest.raises(ChainError) as exc_info:
        load_snapshot(str(path))
    assert str(exc_info.value) == 'row 1: first line must be {"meta": {...}}'


def test_unknown_snapshot_text_format_rejected():
    with pytest.raises(ChainError) as exc_info:
        snapshot_to_text(small_snapshot(), "xml")
    assert str(exc_info.value) == "unknown snapshot format 'xml'"


@pytest.mark.parametrize("meta,message", [
    ("spot=0", "spot must be > 0"),
    ("spot=-100", "spot must be > 0"),
    ("spot=nan", "spot must be finite"),
    ("rate=inf", "rate must be finite"),
])
def test_bad_metadata_numbers_rejected(tmp_path, meta, message):
    key = meta.split("=")[0]
    line = " ".join(meta if pair.startswith(key + "=") else pair
                    for pair in GOOD_META.split(" "))
    path = write_csv(tmp_path, [line, CSV_HEADER, GOOD_ROW])
    with pytest.raises(ChainError, match=message) as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 1


def _jsonl_lines(snapshot):
    return snapshot_to_text(snapshot, fmt="jsonl").splitlines()


@pytest.mark.parametrize("key,value,message", [
    ("theta", math.nan, "theta must be finite"),
    ("price", math.inf, "price must be finite"),
    ("volume", math.nan, "bad volume"),
])
def test_jsonl_non_finite_literals_rejected(tmp_path, key, value, message):
    lines = _jsonl_lines(small_snapshot())
    obj = json.loads(lines[2])
    obj[key] = value
    lines[2] = json.dumps(obj)  # writes the NaN / Infinity literals
    assert "NaN" in lines[2] or "Infinity" in lines[2]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ChainError, match=message) as exc_info:
        load_snapshot(str(path))
    assert exc_info.value.row == 3


@pytest.mark.parametrize("value", [["C"], {"C": 1}, 1])
def test_jsonl_type_that_is_not_a_code_rejected(tmp_path, value):
    lines = _jsonl_lines(small_snapshot())
    obj = json.loads(lines[2])
    obj["type"] = value
    lines[2] = json.dumps(obj)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ChainError, match="bad type code") as exc_info:
        load_snapshot(str(path))
    assert exc_info.value.row == 3


@pytest.mark.parametrize("key,value,message", [
    ("volume", True, "bad volume True"),
    ("volume", False, "bad volume False"),
    ("volume", 12.9, "bad volume 12.9"),
    ("strike", True, "bad strike True"),
    ("price", False, "bad price False"),
    ("iv", True, "bad iv True"),
    ("theta", False, "bad theta False"),
    ("ticker", 12345, "bad ticker 12345"),
    ("ticker", None, "bad ticker None"),
    ("underlying", ["SPY"], "bad underlying ['SPY']"),
    ("as_of", 20250602, "bad as_of 20250602"),
    ("expiry", {"y": 2025}, "bad expiry {'y': 2025}"),
])
def test_jsonl_value_of_the_wrong_kind_rejected(tmp_path, key, value, message):
    lines = _jsonl_lines(small_snapshot())
    obj = json.loads(lines[3])
    obj[key] = value
    lines[3] = json.dumps(obj)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ChainError) as exc_info:
        load_snapshot(str(path))
    assert str(exc_info.value) == f"row 4: {message}"
    assert exc_info.value.row == 4


@pytest.mark.parametrize("value,want", [(1200.0, 1200), ("1200", 1200)])
def test_jsonl_whole_volume_as_float_or_text_loads(tmp_path, value, want):
    lines = _jsonl_lines(small_snapshot())
    obj = json.loads(lines[3])
    obj["volume"] = value
    lines[3] = json.dumps(obj)
    path = tmp_path / "ok.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_snapshot(str(path))
    assert loaded.records[2].volume == want
    assert type(loaded.records[2].volume) is int


@pytest.mark.parametrize("key,value,message", [
    ("underlying", 12345, "bad underlying 12345"),
    ("as_of", 20250602, "bad as_of 20250602"),
    ("spot", True, "bad spot True"),
    ("rate", False, "bad rate False"),
])
def test_jsonl_metadata_value_of_the_wrong_kind_rejected(tmp_path, key, value,
                                                         message):
    lines = _jsonl_lines(small_snapshot())
    head = json.loads(lines[0])
    head["meta"][key] = value
    lines[0] = json.dumps(head)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ChainError) as exc_info:
        load_snapshot(str(path))
    assert str(exc_info.value) == f"row 1: {message}"


@pytest.mark.parametrize("column,text", [
    (2, "20250602"), (3, "20250702"), (3, "2025-W27-3"), (2, "2025-153"),
    (3, "2025-7-2"),
])
def test_dates_other_than_yyyy_mm_dd_rejected(tmp_path, column, text):
    parts = GOOD_ROW.split(",")
    parts[column] = text
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, ",".join(parts)])
    field = CSV_HEADER.split(",")[column]
    with pytest.raises(ChainError) as exc_info:
        load_snapshot(path)
    assert str(exc_info.value) == (
        f"row 3: bad {field} {text!r}; want YYYY-MM-DD")


def test_metadata_date_other_than_yyyy_mm_dd_rejected(tmp_path):
    path = write_csv(tmp_path, [GOOD_META.replace("2025-06-02", "20250602"),
                                CSV_HEADER, GOOD_ROW])
    with pytest.raises(ChainError) as exc_info:
        load_snapshot(path)
    assert str(exc_info.value) == (
        "row 1: bad as_of '20250602'; want YYYY-MM-DD")


def test_jsonl_metadata_spot_zero_rejected(tmp_path):
    lines = _jsonl_lines(small_snapshot())
    lines[0] = lines[0].replace('"spot": 100.0', '"spot": 0')
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ChainError, match="spot must be > 0"):
        load_snapshot(str(path))


# ============================================================
# Enrichment
# ============================================================


def strip(rec: ContractRecord, *fields) -> ContractRecord:
    from dataclasses import replace
    return replace(rec, **{f: None for f in fields})


def test_enrich_backfills_iv_from_price():
    base = small_snapshot()
    bare = ChainSnapshot(
        underlying=base.underlying, as_of=base.as_of, spot=base.spot,
        rate=base.rate,
        records=tuple(strip(r, "iv", "delta", "gamma", "vega", "theta")
                      for r in base.records))
    out = enrich(bare)
    assert len(out.records) == len(base.records)
    for got, want in zip(out.records, base.records):
        assert got.iv == pytest.approx(want.iv, abs=1e-9)
        assert got.delta == pytest.approx(want.delta, abs=1e-9)
        assert got.theta == pytest.approx(want.theta, rel=1e-9, abs=1e-9)


def test_enrich_keeps_stored_greeks_without_recompute():
    base = small_snapshot()
    from dataclasses import replace
    tweaked = ChainSnapshot(
        underlying=base.underlying, as_of=base.as_of, spot=base.spot,
        rate=base.rate,
        records=tuple(replace(r, delta=0.123 if r.option_type == "call" else -0.123)
                      for r in base.records))
    out = enrich(tweaked)
    assert all(abs(r.delta) == 0.123 for r in out.records)


def test_enrich_is_idempotent():
    base = small_snapshot()
    bare = ChainSnapshot(
        underlying=base.underlying, as_of=base.as_of, spot=base.spot,
        rate=base.rate,
        records=tuple(strip(r, "iv", "gamma") for r in base.records))
    once = enrich(bare)
    twice = enrich(once)
    assert once.records == twice.records
    assert once.excluded == twice.excluded


def test_enrich_returns_an_enriched_snapshot_as_is():
    from dataclasses import replace
    bare = replace(small_snapshot())
    assert not bare.enriched
    once = enrich(bare)
    assert once.enriched
    assert enrich(once) is once


def test_replace_drops_the_enriched_flag():
    from dataclasses import replace
    once = enrich(small_snapshot())
    assert not replace(once, records=once.records[:1]).enriched
    copy = replace(once)
    assert not copy.enriched
    assert copy == once  # the flag takes no part in equality or repr
    assert "enriched" not in repr(once)


def test_load_snapshot_is_enriched(tmp_path):
    path = tmp_path / "chain.csv"
    save_snapshot(small_snapshot(), str(path))
    snap = load_snapshot(str(path))
    assert snap.enriched
    assert enrich(snap) is snap


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list of its calls' args."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("fmt,first_row", [("csv", 3), ("jsonl", 2)])
def test_load_checks_each_record_once_with_its_file_row(tmp_path, monkeypatch,
                                                         fmt, first_row):
    snapshot = small_snapshot(expiries=[EXPIRY, dt.date(2025, 8, 1)])
    path = tmp_path / f"chain.{fmt}"
    save_snapshot(snapshot, str(path))
    validated = _counted(monkeypatch, chain, "_validate_record")
    duplicates = _counted(monkeypatch, chain, "_check_duplicates")
    loaded = load_snapshot(str(path))
    rows = list(range(first_row, first_row + len(snapshot.records)))
    assert [args[3] for args in validated] == rows
    assert [list(args[1]) for args in duplicates] == [rows]
    assert loaded == snapshot


def test_a_copy_of_a_loaded_snapshot_is_checked_again(tmp_path):
    from dataclasses import replace
    path = tmp_path / "chain.csv"
    save_snapshot(small_snapshot(), str(path))
    loaded = load_snapshot(str(path))
    first = loaded.records[0]
    copy = replace(loaded, records=(first, replace(first, ticker=first.ticker + "X")))
    assert not copy.enriched and not copy._load_checked
    with pytest.raises(ChainError, match="^row 1: duplicate contract") as exc_info:
        enrich(copy)
    assert exc_info.value.row == 1
    assert exc_info.value.stage == "load"


def test_enrich_builds_one_floor_per_expiry_and_prices_each_record(monkeypatch):
    base = small_snapshot(expiries=[EXPIRY, dt.date(2025, 8, 1)])
    bare = ChainSnapshot(base.underlying, base.as_of, base.spot, base.rate,
                         base.records)
    params = _counted(monkeypatch, chain.pricing, "MarketParams")
    prices = _counted(monkeypatch, chain.pricing, "bsm_price")
    out = enrich(bare)
    # every record carries its iv and Greeks: no inversion, no backfill
    assert [args[2:] for args in params] == [
        (0.0, (EXPIRY - AS_OF).days / 365.0), (0.0, 60 / 365.0)]
    assert len(prices) == len(base.records) == 12
    assert out.records == base.records


def test_enriched_greeks_are_model_consistent():
    from dataclasses import replace
    base = small_snapshot()
    out = enrich(replace(base, records=tuple(strip(r, *GREEK_FIELDS)
                                             for r in base.records)))
    for rec in out.records:
        params = MarketParams(out.spot, out.rate, rec.iv, rec.tau())
        vec = greeks(params, rec.strike, rec.option_type)
        assert rec.delta == vec.delta
        assert rec.gamma == vec.gamma
        assert rec.vega == vec.vega
        assert rec.theta == vec.theta
        assert bsm_price(params, rec.strike, rec.option_type) == \
            pytest.approx(rec.price, abs=1e-9)


def test_enrich_excludes_expiring_today():
    rec = record(expiry=AS_OF, ticker="O:SPY250602C00100000")
    snap = ChainSnapshot("SPY", AS_OF, 100.0, 0.04, (rec,))
    out = enrich(snap)
    assert out.records == ()
    assert len(out.excluded) == 1
    assert "as_of" in out.excluded[0].reason
    assert "excluded" in out.exclusion_summary()


def test_enrich_excludes_price_below_no_arbitrage_floor():
    # deep ITM call quoted below spot - discounted strike
    floor = 100.0 - 50.0 * math.exp(-0.04 * 30 / 365)
    rec = record(strike=50.0, price=floor - 1.0, iv=None, delta=None,
                 gamma=None, vega=None, theta=None,
                 ticker="O:SPY250702C00050000")
    out = enrich(ChainSnapshot("SPY", AS_OF, 100.0, 0.04, (rec,)))
    assert out.records == ()
    assert "floor" in out.excluded[0].reason


def test_enrich_excludes_a_price_above_the_top_of_the_vol_bracket():
    # a 30-day at-the-money call worth more than it is at vol 10
    rec = record(price=99.0, iv=None, delta=None, gamma=None, vega=None,
                 theta=None)
    out = enrich(ChainSnapshot("SPY", AS_OF, 100.0, 0.04, (rec,)))
    bound = bsm_price(MarketParams(100.0, 0.04, 10.0, 30 / 365), 100.0, "call")
    assert out.records == ()
    assert out.excluded[0].reason == (
        f"iv inversion failed: price 99.0 above the bound {bound:.10g} "
        "at vol=10.0")


def test_enrich_excludes_zero_iv():
    rec = record(iv=0.0)
    out = enrich(ChainSnapshot("SPY", AS_OF, 100.0, 0.04, (rec,)))
    assert out.records == ()
    assert "zero iv" in out.excluded[0].reason


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["price", "iv", "gamma", "vega", "theta"])
def test_enrich_refuses_a_non_finite_model_value(field, value):
    # finite_number refuses these in a file; a record built in memory
    # meets the same check, with its position as the row
    snapshot = ChainSnapshot("SPY", AS_OF, 100.0, 0.04, (
        record(ticker="O:SPY250702C00090000", strike=90.0, price=11.0),
        record(**{field: value})))
    with pytest.raises(ChainError,
                       match=f"^row 1: {field} must be finite, got {value}$"):
        enrich(snapshot)


def test_load_snapshot_backfills_missing_columns(tmp_path):
    parts = GOOD_ROW.split(",")
    parts[8] = ""   # iv
    parts[10] = ""  # gamma
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, ",".join(parts)])
    snap = load_snapshot(path)
    rec = snap.records[0]
    assert rec.iv is not None and rec.gamma is not None
    # the stored price pins the backfilled iv
    assert bsm_price(MarketParams(100.0, 0.04, rec.iv, rec.tau()),
                     100.0, "call") == pytest.approx(3.5, abs=1e-9)
    # stored delta survives untouched
    assert rec.delta == 0.5


def test_load_snapshot_backfills_greeks_whose_inputs_near_the_float_range(
        tmp_path):
    # strike * tau is about 8e308 here: a rate sensitivity would leave the
    # float range, but the four Greeks a record stores are finite
    path = write_csv(tmp_path, [
        "# oql-chain underlying=X as_of=2025-06-02 spot=1e+305 rate=0",
        CSV_HEADER,
        "O:X,X,2025-06-02,9999-12-31,1e+305,C,3.562573024633503e+303,1,"
        "0.001,,,,"])
    (rec,) = load_snapshot(path).records
    want = greeks(MarketParams(1e305, 0.0, 0.001, rec.tau()), 1e305, "call")
    assert (rec.delta, rec.gamma, rec.vega, rec.theta) == (
        want.delta, want.gamma, want.vega, want.theta)
    assert all(math.isfinite(x) for x in (rec.delta, rec.gamma, rec.vega,
                                          rec.theta))


# ============================================================
# Synthetic generator
# ============================================================


def test_generate_synthetic_is_deterministic():
    a = snapshot_to_text(small_snapshot(), "csv")
    b = snapshot_to_text(small_snapshot(), "csv")
    assert a == b
    c = snapshot_to_text(small_snapshot(seed=4), "csv")
    assert c != a


def test_generate_synthetic_grid_order_and_tickers():
    snap = small_snapshot(expiries=[EXPIRY, dt.date(2025, 8, 1)])
    keys = [(r.expiry, r.strike, r.option_type) for r in snap.records]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], 0 if k[2] == "call" else 1))
    assert snap.records[0].ticker == "O:SPY250702C00090000"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_saved_synthetic_chain_loads_in_expiry_strike_ticker_order(
        tmp_path, fmt):
    # the engine numbers rows by record: a chain generate_synthetic wrote
    # loads with its rows already in (expiry, strike, ticker) order
    snapshot = small_snapshot(
        expiries=[dt.date(2025, 9, 19), EXPIRY, dt.date(2025, 6, 20)],
        strikes=[250.0, 7.5, 100.0, 95.5, 0.5], spot=90.0)
    path = tmp_path / f"chain.{fmt}"
    save_snapshot(snapshot, str(path))
    loaded = load_snapshot(str(path))
    assert len(loaded.records) > 20
    keys = [(r.expiry, r.strike, r.ticker) for r in loaded.records]
    assert keys == sorted(keys)


def test_generate_synthetic_prices_and_greeks_are_model_values():
    snap = small_snapshot()
    for rec in snap.records:
        iv = smile_vol(rec.strike, snap.spot, rec.tau(), 0.3, 0.0, 0.0)
        assert rec.iv == iv
        params = MarketParams(snap.spot, snap.rate, iv, rec.tau())
        assert rec.price == bsm_price(params, rec.strike, rec.option_type)
        vec = greeks(params, rec.strike, rec.option_type)
        assert (rec.delta, rec.gamma, rec.vega, rec.theta) == \
            (vec.delta, vec.gamma, vec.vega, vec.theta)


def test_generated_snapshot_is_enriched_and_keeps_its_table():
    snap = small_snapshot()
    assert snap.enriched and enrich(snap) is snap
    assert "columns" not in vars(snap)
    execute("SELECT LONG_CALL FROM SPY", snap, RunConfig())
    assert "columns" in vars(snap)


def test_generated_prices_invert_to_the_smile_vol():
    snap = small_snapshot(base_vol=0.4, skew=-0.15, term=0.08)
    for rec in snap.records:
        recovered = implied_vol(snap.spot, snap.rate, rec.tau(), rec.strike,
                                rec.option_type, rec.price)
        assert abs(recovered - rec.iv) <= 1e-6


def test_smile_vol_shape():
    assert smile_vol(100.0, 100.0, 1.0, 0.2, -0.1, 0.05) == \
        pytest.approx(0.25, abs=1e-12)
    # skew raises the low wing when negative
    low = smile_vol(80.0, 100.0, 1.0, 0.2, -0.1, 0.0)
    high = smile_vol(120.0, 100.0, 1.0, 0.2, -0.1, 0.0)
    assert low > 0.2 > high
    # floored away from zero
    assert smile_vol(500.0, 100.0, 0.01, 0.05, -0.5, 0.0) == 0.01


def test_volumes_decay_away_from_spot():
    snap = small_snapshot(strikes=[60.0, 100.0, 170.0], seed=12)
    by_strike = {}
    for rec in snap.records:
        by_strike.setdefault(rec.strike, []).append(rec.volume)
    atm = sum(by_strike[100.0]) / 2
    far_low = sum(by_strike[60.0]) / 2
    far_high = sum(by_strike[170.0]) / 2
    assert atm > far_low and atm > far_high
    assert all(v >= 0 for vols in by_strike.values() for v in vols)


def test_generate_synthetic_refuses_an_underlying_no_query_can_name():
    for underlying in ("SP Y", "S,P", "", "SPY1", "spy", "SPÝ"):
        with pytest.raises(ValueError, match="upper-case ASCII letters"):
            small_snapshot(underlying=underlying)


def test_an_underlying_no_query_can_name_is_refused(tmp_path):
    # a file names its metadata row; a snapshot built by hand has no row
    text = CSV_HEADER.join((
        f"# oql-chain underlying=spy as_of={AS_OF} spot=100 rate=0.04\n",
        "\nO:SPY250702C00100000,spy,2025-06-02,2025-07-02,100,C,5,10,0.3,,,,\n"))
    path = tmp_path / "lower.csv"
    path.write_text(text)
    with pytest.raises(ChainError) as refused:
        chain.load_snapshot(str(path))
    assert str(refused.value) == ("row 1: underlying must be upper-case ASCII "
                                  "letters, got 'spy'")
    for underlying in ("spy", "SP Y", "SPY1", ""):
        bare = ChainSnapshot(underlying, AS_OF, 100.0, 0.04,
                             (record(underlying=underlying),))
        with pytest.raises(ChainError) as refused:
            enrich(bare)
        assert refused.value.row is None
        assert str(refused.value) == ("underlying must be upper-case ASCII "
                                      f"letters, got {underlying!r}")


def test_generate_synthetic_argument_errors():
    with pytest.raises(ValueError):
        small_snapshot(strikes=[])
    with pytest.raises(ValueError):
        small_snapshot(expiries=[AS_OF])
    with pytest.raises(ValueError):
        small_snapshot(strikes=[-5.0])
    with pytest.raises(ValueError, match="one ticker O:SPY250702C00100000"):
        small_snapshot(strikes=[100.0, 100.0001])
    with pytest.raises(ValueError, match="8 digits"):
        small_snapshot(strikes=[1e6])


# ============================================================
# Spot paths
# ============================================================


def test_generate_path_shape_and_determinism():
    path = generate_path(100.0, 0.05, 0.2, 30, seed=9)
    assert len(path) == 31
    assert path[0] == 100.0
    assert path == generate_path(100.0, 0.05, 0.2, 30, seed=9)
    assert path != generate_path(100.0, 0.05, 0.2, 30, seed=10)
    assert all(level > 0 for level in path)


def test_generate_path_log_increment_statistics():
    # mean and variance of daily log returns must match the discretization
    mu, sigma, days = 0.07, 0.3, 120_000
    path = np.array(generate_path(100.0, mu, sigma, days, seed=5))
    steps = np.diff(np.log(path))
    dt_step = 1.0 / 365.0
    want_mean = (mu - 0.5 * sigma * sigma) * dt_step
    se_mean = sigma * math.sqrt(dt_step) / math.sqrt(days)
    assert abs(steps.mean() - want_mean) < 3.0 * se_mean
    want_var = sigma * sigma * dt_step
    se_var = want_var * math.sqrt(2.0 / days)
    assert abs(steps.var() - want_var) < 3.0 * se_var


def test_zero_vol_path_is_deterministic_drift():
    path = generate_path(100.0, 0.05, 0.0, 10, seed=1)
    factor = math.exp(0.05 / 365.0)
    for a, b in zip(path, path[1:]):
        assert b == pytest.approx(a * factor, rel=1e-12)


def test_generate_path_argument_errors():
    with pytest.raises(ValueError):
        generate_path(-1.0, 0.0, 0.2, 10)
    with pytest.raises(ValueError):
        generate_path(100.0, 0.0, -0.2, 10)
    with pytest.raises(ValueError):
        generate_path(100.0, 0.0, 0.2, -1)
