"""Chain data model: file formats, validation, enrichment, generators."""

import datetime as dt
import json
import math

import numpy as np
import pytest

from oql.chain import (CSV_HEADER, ChainSnapshot, ContractRecord, enrich,
                       generate_path, generate_synthetic, load_snapshot,
                       moneyness, occ_ticker, save_snapshot, smile_vol,
                       snapshot_to_text)
from oql.errors import FormatError, InvariantViolation
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


def test_occ_ticker_format():
    assert occ_ticker("TSLA", dt.date(2025, 12, 19), "put", 300.0) == \
        "O:TSLA251219P00300000"
    assert occ_ticker("SPY", dt.date(2025, 7, 2), "call", 2.5) == \
        "O:SPY250702C00002500"
    assert occ_ticker("QQQ", dt.date(2026, 1, 16), "call", 512.5) == \
        "O:QQQ260116C00512500"


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
    assert moneyness(option_type, strike, 100.0, atm_band=0.01) == expected


def test_moneyness_just_outside_band():
    assert moneyness("call", 101.01, 100.0, atm_band=0.01) == "OTM"
    assert moneyness("put", 98.99, 100.0, atm_band=0.01) == "OTM"


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
    with pytest.raises(FormatError, match="infer"):
        save_snapshot(snapshot, str(path))
    save_snapshot(snapshot, str(path), fmt="csv")
    assert load_snapshot(str(path), fmt="csv").records == \
        enrich(snapshot).records


def write_csv(tmp_path, lines):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


GOOD_META = "# oql-chain underlying=SPY as_of=2025-06-02 spot=100 rate=0.04"
GOOD_ROW = ("O:SPY250702C00100000,SPY,2025-06-02,2025-07-02,100,C,"
            "3.5,120,0.3,0.5,0.02,11,-18")


def test_missing_meta_line_rejected(tmp_path):
    path = write_csv(tmp_path, [CSV_HEADER, GOOD_ROW])
    with pytest.raises(FormatError) as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 1


def test_wrong_header_rejected(tmp_path):
    path = write_csv(tmp_path, [GOOD_META, "ticker,underlying", GOOD_ROW])
    with pytest.raises(FormatError) as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 2


def test_wrong_field_count_reports_row(tmp_path):
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, GOOD_ROW,
                                "only,three,fields"])
    with pytest.raises(FormatError) as exc_info:
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
    with pytest.raises(FormatError, match=message):
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
    with pytest.raises(InvariantViolation, match=message):
        load_snapshot(path)


def test_put_delta_sign_convention(tmp_path):
    parts = GOOD_ROW.split(",")
    parts[0] = "O:SPY250702P00100000"
    parts[5] = "P"
    parts[9] = "0.5"  # puts carry non-positive delta
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, ",".join(parts)])
    with pytest.raises(InvariantViolation, match="put delta"):
        load_snapshot(path)


def test_duplicate_contract_rejected(tmp_path):
    other = GOOD_ROW.replace("O:SPY250702C00100000", "O:SPY250702C00100000X")
    path = write_csv(tmp_path, [GOOD_META, CSV_HEADER, GOOD_ROW, other])
    with pytest.raises(InvariantViolation, match="duplicate") as exc_info:
        load_snapshot(path)
    assert "row 3" in str(exc_info.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError):
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
    with pytest.raises(FormatError, match=f"{field} must be finite") as exc_info:
        load_snapshot(path)
    assert exc_info.value.row == 4


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
    with pytest.raises(FormatError, match=message) as exc_info:
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
    with pytest.raises(FormatError, match=message) as exc_info:
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
    with pytest.raises(FormatError, match="bad type code") as exc_info:
        load_snapshot(str(path))
    assert exc_info.value.row == 3


def test_jsonl_metadata_spot_zero_rejected(tmp_path):
    lines = _jsonl_lines(small_snapshot())
    lines[0] = lines[0].replace('"spot": 100.0', '"spot": 0')
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="spot must be > 0"):
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
    fixed = enrich(tweaked, recompute=True)
    assert all(abs(r.delta) != 0.123 for r in fixed.records)


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
    bare = small_snapshot()
    assert not bare.enriched
    once = enrich(bare)
    assert once.enriched
    assert enrich(once) is once


def test_enrich_recompute_still_recomputes_an_enriched_snapshot():
    from dataclasses import replace
    once = enrich(small_snapshot())
    tweaked = replace(once, records=tuple(
        replace(r, delta=0.123 if r.option_type == "call" else -0.123)
        for r in once.records))
    object.__setattr__(tweaked, "enriched", True)
    assert enrich(tweaked) is tweaked
    fixed = enrich(tweaked, recompute=True)
    assert fixed is not tweaked and fixed.enriched
    assert all(abs(r.delta) != 0.123 for r in fixed.records)


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


def test_enriched_greeks_are_model_consistent():
    out = enrich(small_snapshot(), recompute=True)
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


def test_enrich_excludes_zero_iv():
    rec = record(iv=0.0)
    out = enrich(ChainSnapshot("SPY", AS_OF, 100.0, 0.04, (rec,)))
    assert out.records == ()
    assert "zero iv" in out.excluded[0].reason


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


def test_generate_synthetic_prices_and_greeks_are_model_values():
    snap = small_snapshot()
    for rec in snap.records:
        iv = smile_vol(rec.strike, snap.spot, rec.tau(), 0.3, 0.0, 0.0)
        assert rec.iv == iv
        params = MarketParams(snap.spot, snap.rate, iv, rec.tau())
        assert rec.price == bsm_price(params, rec.strike, rec.option_type)
        assert rec.delta == greeks(params, rec.strike, rec.option_type).delta


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


def test_generate_synthetic_argument_errors():
    with pytest.raises(ValueError):
        small_snapshot(strikes=[])
    with pytest.raises(ValueError):
        small_snapshot(expiries=[AS_OF])
    with pytest.raises(ValueError):
        small_snapshot(strikes=[-5.0])


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
