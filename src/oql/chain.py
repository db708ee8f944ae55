"""Option-chain data model, canonical file formats, and synthetic data.

A snapshot holds every listed contract of one underlying at one as_of date,
plus the spot and rate used for model values. On disk a snapshot is either
CSV or JSONL; both carry a metadata line first and round-trip byte-exactly
through load -> save.

CSV layout:

    # oql-chain underlying=TSLA as_of=2025-06-02 spot=300 rate=0.04
    ticker,underlying,as_of,expiry,strike,type,price,volume,iv,delta,gamma,vega,theta
    O:TSLA251219P00300000,TSLA,2025-06-02,2025-12-19,300,P,19.95,1200,0.52,-0.29,...

JSONL: first line {"meta": {...}}, then one record object per line.
"""

import datetime as _dt
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import pricing
from .errors import FormatError, InvariantViolation, NoSolution, NonConvergence
from .serialize import format_date, format_number, parse_date

CSV_HEADER = ("ticker,underlying,as_of,expiry,strike,type,"
              "price,volume,iv,delta,gamma,vega,theta")
_KEYS = tuple(CSV_HEADER.split(","))

_META_PREFIX = "# oql-chain "

DAYS_PER_YEAR = 365.0

_TYPE_CODES = {"call": "C", "put": "P"}
_CODE_TYPES = {"C": "call", "P": "put"}

GREEK_FIELDS = ("delta", "gamma", "vega", "theta")

# the model fields a record may lack; each has a `<name>_ok` table column
_OPTIONAL_FIELDS = ("iv",) + GREEK_FIELDS

_TABLE_DTYPE = np.dtype(
    [("row", np.int64), ("ticker_rank", np.int64), ("ticker_len", np.int64),
     ("expiry", np.int64), ("dte", float), ("strike", float), ("price", float),
     ("volume", float), ("is_call", bool)]
    + [(name + suffix, dtype) for name in _OPTIONAL_FIELDS
       for suffix, dtype in (("", float), ("_ok", bool))])


@dataclass(frozen=True)
class ContractRecord:
    """One listed option contract at the snapshot instant."""

    ticker: str
    underlying: str
    as_of: _dt.date
    expiry: _dt.date
    strike: float
    option_type: str  # "call" | "put"
    price: float
    volume: int
    iv: float | None = None
    delta: float | None = None
    gamma: float | None = None
    vega: float | None = None
    theta: float | None = None

    def dte(self) -> int:
        """Calendar days to expiry."""
        return (self.expiry - self.as_of).days

    def tau(self) -> float:
        """Year fraction to expiry (dte / 365)."""
        return self.dte() / DAYS_PER_YEAR


@dataclass(frozen=True)
class ExcludedRecord:
    record: ContractRecord
    reason: str


@dataclass(frozen=True)
class ChainSnapshot:
    underlying: str
    as_of: _dt.date
    spot: float
    rate: float
    records: tuple[ContractRecord, ...]
    excluded: tuple[ExcludedRecord, ...] = ()
    # set by enrich() on the snapshot it returns; dataclasses.replace
    # yields an un-enriched copy, so the flag never outlives its records
    enriched: bool = field(default=False, init=False, compare=False, repr=False)

    @cached_property
    def table(self) -> np.ndarray:
        """record_table(self.records), built on first use."""
        return record_table(self.records)

    @cached_property
    def iv_by_contract(self) -> dict[tuple, dict[float, float]]:
        """(expiry, option_type) -> strike -> iv; the first record with an
        iv wins.

        Keyed by expiry and type first so the map holds a few tuples, not
        one per contract: tuples are objects the cyclic garbage collector
        tracks, and thousands of new ones set off a full collection.
        """
        out: dict[tuple, dict[float, float]] = {}
        for rec in self.records:
            if rec.iv is not None:
                out.setdefault((rec.expiry, rec.option_type), {}).setdefault(
                    rec.strike, rec.iv)
        return out

    def exclusion_summary(self) -> str:
        if not self.excluded:
            return "no records excluded"
        lines = [f"{len(self.excluded)} record(s) excluded:"]
        for item in self.excluded:
            lines.append(f"  {item.record.ticker}: {item.reason}")
        return "\n".join(lines)


def occ_ticker(underlying: str, expiry: _dt.date, option_type: str,
               strike: float) -> str:
    """OCC-style ticker: O:{UND}{YYMMDD}{C|P}{strike*1000, 8 digits}."""
    code = _TYPE_CODES[option_type]
    return f"O:{underlying}{expiry.strftime('%y%m%d')}{code}{int(round(strike * 1000)):08d}"


def moneyness(option_type, strike, spot: float, atm_band: float = 0.01):
    """ATM within |K-S|/S <= atm_band; else calls are ITM iff K < S, puts reversed.

    option_type and strike may be arrays; the result then is an array of
    labels, one per element.
    """
    strike = np.asarray(strike, dtype=float)
    in_the_money = np.where(np.asarray(option_type) == "call",
                            strike < spot, strike > spot)
    label = np.where(np.abs(strike - spot) / spot <= atm_band, "ATM",
                     np.where(in_the_money, "ITM", "OTM"))
    return label if label.ndim else str(label)


def record_table(records) -> np.ndarray:
    """The records as one numpy structured array, one row per record.

    Columns: `row` (the record's position), `ticker_rank` (the ticker's
    rank in Python string order among the records' tickers) and
    `ticker_len`, `expiry` (date ordinal), `dte`, `strike`, `price`,
    `volume`, `is_call`, and iv and each Greek with a `<name>_ok` mask. A
    missing value reads 0.0 with `_ok` False, so no column holds NaN.
    """
    table = np.zeros(len(records), dtype=_TABLE_DTYPE)
    table["row"] = np.arange(len(records))
    tickers = [rec.ticker for rec in records]
    rank = {name: i for i, name in enumerate(sorted(set(tickers)))}
    table["ticker_rank"] = [rank[name] for name in tickers]
    table["ticker_len"] = [len(name) for name in tickers]
    table["expiry"] = [rec.expiry.toordinal() for rec in records]
    table["dte"] = [rec.dte() for rec in records]
    table["strike"] = [rec.strike for rec in records]
    table["price"] = [rec.price for rec in records]
    # a volume past the float range reads as the largest float
    table["volume"] = [min(rec.volume, sys.float_info.max) for rec in records]
    table["is_call"] = [rec.option_type == "call" for rec in records]
    for name in _OPTIONAL_FIELDS:
        values = [getattr(rec, name) for rec in records]
        table[name] = [0.0 if v is None else v for v in values]
        table[name + "_ok"] = [v is not None for v in values]
    return table


# ============================================================
# Validation and enrichment
# ============================================================


def _validate_record(rec: ContractRecord, snapshot_underlying: str,
                     as_of: _dt.date, row: int) -> None:
    if rec.option_type not in _TYPE_CODES:
        raise InvariantViolation(f"bad option type {rec.option_type!r}", row)
    if rec.underlying != snapshot_underlying:
        raise InvariantViolation(
            f"underlying {rec.underlying!r} does not match snapshot "
            f"{snapshot_underlying!r}", row)
    if rec.as_of != as_of:
        raise InvariantViolation(
            f"as_of {rec.as_of} does not match snapshot {as_of}", row)
    if not (rec.strike > 0.0):
        raise InvariantViolation(f"strike must be > 0, got {rec.strike}", row)
    if rec.price < 0.0:
        raise InvariantViolation(f"price must be >= 0, got {rec.price}", row)
    if rec.volume < 0:
        raise InvariantViolation(f"volume must be >= 0, got {rec.volume}", row)
    if rec.expiry < rec.as_of:
        raise InvariantViolation(
            f"expiry {rec.expiry} is before as_of {rec.as_of}", row)
    if rec.iv is not None and rec.iv < 0.0:
        raise InvariantViolation(f"iv must be >= 0, got {rec.iv}", row)
    if rec.delta is not None:
        if rec.option_type == "call" and not (0.0 <= rec.delta <= 1.0):
            raise InvariantViolation(
                f"call delta must lie in [0, 1], got {rec.delta}", row)
        if rec.option_type == "put" and not (-1.0 <= rec.delta <= 0.0):
            raise InvariantViolation(
                f"put delta must lie in [-1, 0], got {rec.delta}", row)


def _check_duplicates(records, rows) -> None:
    seen: dict[tuple, int] = {}
    for rec, row in zip(records, rows):
        key = (rec.expiry, rec.strike, rec.option_type)
        if key in seen:
            raise InvariantViolation(
                f"duplicate contract ({rec.expiry}, {format_number(rec.strike)}, "
                f"{rec.option_type}); first seen at row {seen[key]}", row)
        seen[key] = row


def _low_bound(spot: float, rate: float, tau: float, strike: float,
               option_type: str) -> float:
    """Price floor as vol -> 0 (the European no-arbitrage lower bound)."""
    discounted = strike * math.exp(-rate * tau)
    if option_type == "call":
        return max(spot - discounted, 0.0)
    return max(discounted - spot, 0.0)


def enrich(snapshot: ChainSnapshot, recompute: bool = False) -> ChainSnapshot:
    """Complete model fields; exclude records they cannot be computed for.

    For each record: iv is taken as stored, else inverted from price; Greeks
    are backfilled where missing (all four recomputed when recompute=True).
    Records that expire on as_of, price below the no-arbitrage floor, carry
    zero iv, or defeat the vol inversion are moved to snapshot.excluded with
    a reason. Enrichment is idempotent: an already enriched snapshot is
    returned as is unless recompute=True.
    """
    if snapshot.enriched and not recompute:
        return snapshot
    kept: list[ContractRecord] = []
    excluded = list(snapshot.excluded)
    for rec in snapshot.records:
        tau = rec.tau()
        if tau == 0.0:
            excluded.append(ExcludedRecord(rec, "expires on as_of; model values undefined"))
            continue
        floor = _low_bound(snapshot.spot, snapshot.rate, tau, rec.strike,
                           rec.option_type)
        if rec.price < floor - 1e-9:
            excluded.append(ExcludedRecord(
                rec, f"price {format_number(rec.price)} below the no-arbitrage "
                     f"floor {floor:.6g}"))
            continue
        iv = rec.iv
        if iv is None:
            try:
                iv = pricing.implied_vol(snapshot.spot, snapshot.rate, tau,
                                         rec.strike, rec.option_type, rec.price)
            except (NoSolution, NonConvergence) as exc:
                excluded.append(ExcludedRecord(rec, f"iv inversion failed: {exc}"))
                continue
        if iv == 0.0:
            excluded.append(ExcludedRecord(rec, "zero iv; Greeks undefined"))
            continue
        needs = recompute or any(getattr(rec, g) is None for g in GREEK_FIELDS)
        updates: dict = {}
        if iv != rec.iv:
            updates["iv"] = iv
        if needs:
            vec = pricing.greeks(
                pricing.MarketParams(snapshot.spot, snapshot.rate, iv, tau),
                rec.strike, rec.option_type)
            for g in GREEK_FIELDS:
                if recompute or getattr(rec, g) is None:
                    updates[g] = getattr(vec, g)
        kept.append(replace(rec, **updates) if updates else rec)
    out = replace(snapshot, records=tuple(kept), excluded=tuple(excluded))
    object.__setattr__(out, "enriched", True)
    return out


# ============================================================
# File formats
# ============================================================


def _parse_meta_pairs(text: str, row: int) -> dict:
    meta: dict = {}
    for pair in text.split():
        if "=" not in pair:
            raise FormatError(f"bad metadata entry {pair!r}", row)
        key, _, value = pair.partition("=")
        meta[key] = value
    missing = {"underlying", "as_of", "spot", "rate"} - set(meta)
    if missing:
        raise FormatError(f"metadata missing {', '.join(sorted(missing))}", row)
    return meta


def _finite(value, what: str, row: int) -> float:
    """A number from CSV text or a JSON value; nan and inf are rejected."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise FormatError(f"bad {what} {value!r}", row) from None
    if not math.isfinite(number):
        raise FormatError(f"{what} must be finite, got {value!r}", row)
    return number


def _opt_float(text: str, what: str, row: int) -> float | None:
    return None if text == "" else _finite(text, what, row)


def _req_float(text: str, what: str, row: int) -> float:
    if text == "":
        raise FormatError(f"missing {what}", row)
    return _finite(text, what, row)


def _opt_json(value, what: str, row: int) -> float | None:
    return None if value is None else _finite(value, what, row)


def _spot_rate(meta: dict) -> tuple[float, float]:
    """Metadata spot (finite, > 0) and rate (finite), reported at row 1."""
    spot = _req_float(meta["spot"], "spot", 1)
    if not spot > 0.0:
        raise FormatError(f"spot must be > 0, got {meta['spot']!r}", 1)
    return spot, _req_float(meta["rate"], "rate", 1)


def _req_date(text: str, what: str, row: int) -> _dt.date:
    try:
        return parse_date(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}; want YYYY-MM-DD", row) from None


def _record(raw: dict, row: int, number, optional) -> ContractRecord:
    """One record from its raw values, keyed like the CSV header.

    number(value, what, row) reads a required numeric value and
    optional(value, what, row) one that may be missing.
    """
    # a tuple compares by ==, so a JSON list or object is refused, not hashed
    if raw["type"] not in tuple(_CODE_TYPES):
        raise FormatError(f"bad type code {raw['type']!r}; want C or P", row)
    try:
        volume = int(raw["volume"])
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"bad volume {raw['volume']!r}", row) from None
    return ContractRecord(
        ticker=str(raw["ticker"]),
        underlying=str(raw["underlying"]),
        as_of=_req_date(str(raw["as_of"]), "as_of", row),
        expiry=_req_date(str(raw["expiry"]), "expiry", row),
        strike=number(raw["strike"], "strike", row),
        option_type=_CODE_TYPES[raw["type"]],
        price=number(raw["price"], "price", row),
        volume=volume,
        **{name: optional(raw[name], name, row) for name in _OPTIONAL_FIELDS})


def _snapshot(meta: dict, numbered) -> ChainSnapshot:
    """The snapshot of (row, record) pairs, each validated as it comes."""
    underlying = str(meta["underlying"])
    as_of = _req_date(str(meta["as_of"]), "as_of", 1)
    spot, rate = _spot_rate(meta)
    records: list[ContractRecord] = []
    rows: list[int] = []
    for row, rec in numbered:
        _validate_record(rec, underlying, as_of, row)
        records.append(rec)
        rows.append(row)
    _check_duplicates(records, rows)
    return ChainSnapshot(underlying=underlying, as_of=as_of, spot=spot,
                         rate=rate, records=tuple(records))


def _load_csv(lines: list[str]) -> ChainSnapshot:
    if not lines or not lines[0].startswith(_META_PREFIX):
        raise FormatError(f"first line must start with {_META_PREFIX!r}", 1)
    meta = _parse_meta_pairs(lines[0][len(_META_PREFIX):], 1)
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        raise FormatError(f"second line must be the header {CSV_HEADER!r}", 2)

    def numbered():
        for idx, line in enumerate(lines[2:], start=3):
            if line == "":
                continue
            parts = line.split(",")
            if len(parts) != len(_KEYS):
                raise FormatError(f"expected 13 fields, got {len(parts)}", idx)
            yield idx, _record(dict(zip(_KEYS, parts)), idx, _req_float,
                               _opt_float)

    return _snapshot(meta, numbered())


def _load_jsonl(lines: list[str]) -> ChainSnapshot:
    if not lines:
        raise FormatError("empty file; first line must be the meta object", 1)

    def parse_obj(line: str, row: int) -> dict:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc}", row) from None
        if not isinstance(obj, dict):
            raise FormatError("each line must hold a JSON object", row)
        return obj

    head = parse_obj(lines[0], 1)
    if "meta" not in head or not isinstance(head["meta"], dict):
        raise FormatError('first line must be {"meta": {...}}', 1)
    meta = head["meta"]
    missing = {"underlying", "as_of", "spot", "rate"} - set(meta)
    if missing:
        raise FormatError(f"metadata missing {', '.join(sorted(missing))}", 1)

    def numbered():
        for idx, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            obj = parse_obj(line, idx)
            extra = set(obj) - set(_KEYS)
            if extra:
                raise FormatError(f"unknown keys: {', '.join(sorted(extra))}", idx)
            missing_keys = set(_KEYS) - set(obj)
            if missing_keys:
                raise FormatError(
                    f"missing keys: {', '.join(sorted(missing_keys))}", idx)
            yield idx, _record(obj, idx, _finite, _opt_json)

    return _snapshot(meta, numbered())


def _detect_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise FormatError(f"unknown snapshot format {fmt!r}")
        return fmt
    lower = path.lower()
    if lower.endswith(".csv"):
        return "csv"
    if lower.endswith(".jsonl") or lower.endswith(".ndjson"):
        return "jsonl"
    raise FormatError(f"cannot infer format from {path!r}; pass fmt='csv'|'jsonl'")


def load_snapshot(path: str, fmt: str | None = None) -> ChainSnapshot:
    """Read, validate, and backfill a snapshot file.

    Stored Greeks are kept as-is; only missing model fields are filled in
    (see enrich). Unresolvable records land in snapshot.excluded.
    """
    fmt = _detect_format(path, fmt)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty file; missing header", 1)
    snapshot = _load_csv(lines) if fmt == "csv" else _load_jsonl(lines)
    return enrich(snapshot)


def _stored(rec: ContractRecord) -> dict:
    """A record's stored values, keyed and ordered like the CSV header."""
    return dict(zip(_KEYS, (
        rec.ticker, rec.underlying, format_date(rec.as_of),
        format_date(rec.expiry), rec.strike, _TYPE_CODES[rec.option_type],
        rec.price, rec.volume, rec.iv, rec.delta, rec.gamma, rec.vega,
        rec.theta)))


def _csv_record_line(rec: ContractRecord) -> str:
    return ",".join(
        "" if value is None
        else str(value) if key == "volume" or isinstance(value, str)
        else format_number(value)
        for key, value in _stored(rec).items())


def snapshot_to_text(snapshot: ChainSnapshot, fmt: str = "csv") -> str:
    """Canonical file text for a snapshot (excluded records are dropped)."""
    if fmt == "csv":
        meta = (f"{_META_PREFIX}underlying={snapshot.underlying} "
                f"as_of={format_date(snapshot.as_of)} "
                f"spot={format_number(snapshot.spot)} "
                f"rate={format_number(snapshot.rate)}")
        lines = [meta, CSV_HEADER]
        lines.extend(_csv_record_line(r) for r in snapshot.records)
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        head = json.dumps({"meta": {
            "underlying": snapshot.underlying,
            "as_of": format_date(snapshot.as_of),
            "spot": snapshot.spot,
            "rate": snapshot.rate,
        }})
        lines = [head]
        lines.extend(json.dumps(_stored(r)) for r in snapshot.records)
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown snapshot format {fmt!r}")


def save_snapshot(snapshot: ChainSnapshot, path: str, fmt: str | None = None) -> None:
    """Write the canonical file form; load(save(load(x))) is byte-identical."""
    fmt = _detect_format(path, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(snapshot_to_text(snapshot, fmt))


# ============================================================
# Synthetic data
# ============================================================


def smile_vol(strike: float, spot: float, tau: float, base_vol: float,
              skew: float, term: float) -> float:
    """Deterministic vol surface: base + skew*ln(K/S) + term*sqrt(tau), floored at 0.01."""
    return max(0.01, base_vol + skew * math.log(strike / spot)
               + term * math.sqrt(tau))


def generate_synthetic(underlying: str, as_of: _dt.date, spot: float,
                       rate: float, expiries: list[_dt.date],
                       strikes: list[float], *, base_vol: float = 0.2,
                       skew: float = 0.0, term: float = 0.0,
                       seed: int = 0) -> ChainSnapshot:
    """A fully priced synthetic chain over the (expiry, strike, type) grid.

    ivs come from smile_vol, prices and Greeks from the pricing module, and
    volumes from a seeded generator that decays in |ln(K/S)|. The same seed
    always yields the same snapshot, byte for byte.
    """
    if not expiries or not strikes:
        raise ValueError("need at least one expiry and one strike")
    rng = np.random.default_rng(seed)
    records: list[ContractRecord] = []
    for expiry in sorted(set(expiries)):
        if expiry <= as_of:
            raise ValueError(f"expiry {expiry} must be after as_of {as_of}")
        tau = (expiry - as_of).days / DAYS_PER_YEAR
        for strike in sorted(set(strikes)):
            if strike <= 0:
                raise ValueError(f"strike must be > 0, got {strike}")
            iv = smile_vol(strike, spot, tau, base_vol, skew, term)
            params = pricing.MarketParams(spot, rate, iv, tau)
            for option_type in ("call", "put"):
                price = pricing.bsm_price(params, strike, option_type)
                vec = pricing.greeks(params, strike, option_type)
                volume = int(round(2000.0 * math.exp(-3.0 * abs(math.log(strike / spot)))
                                   * rng.uniform(0.5, 1.5)))
                records.append(ContractRecord(
                    ticker=occ_ticker(underlying, expiry, option_type, strike),
                    underlying=underlying,
                    as_of=as_of,
                    expiry=expiry,
                    strike=float(strike),
                    option_type=option_type,
                    price=price,
                    volume=volume,
                    iv=iv,
                    delta=vec.delta,
                    gamma=vec.gamma,
                    vega=vec.vega,
                    theta=vec.theta,
                ))
    return ChainSnapshot(underlying=underlying, as_of=as_of, spot=float(spot),
                         rate=float(rate), records=tuple(records))


def generate_path(spot: float, mu: float, sigma: float, days: int,
                  seed: int = 0) -> list[float]:
    """Exact GBM discretization, one step per calendar day, days+1 points.

    S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) z_k), dt=1/365.
    """
    if spot <= 0:
        raise ValueError(f"spot must be > 0, got {spot}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if days < 0:
        raise ValueError(f"days must be >= 0, got {days}")
    rng = np.random.default_rng(seed)
    dt = 1.0 / DAYS_PER_YEAR
    z = rng.standard_normal(days)
    log_steps = (mu - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * z
    levels = spot * np.exp(np.cumsum(log_steps))
    return [float(spot)] + [float(x) for x in levels]
