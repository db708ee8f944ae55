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
from .errors import ChainError, NoSolution
from .fields import MONEYNESS_VALUES, is_underlying
from .serialize import format_date, format_number, parse_date

CSV_HEADER = ("ticker,underlying,as_of,expiry,strike,type,"
              "price,volume,iv,delta,gamma,vega,theta")
_KEYS = tuple(CSV_HEADER.split(","))

_META_PREFIX = "# oql-chain "
_META_KEYS = ("underlying", "as_of", "spot", "rate")

DAYS_PER_YEAR = 365.0

_TYPE_CODES = {"call": "C", "put": "P"}
_CODE_TYPES = {"C": "call", "P": "put"}
_CODES = tuple(_CODE_TYPES)

GREEK_FIELDS = ("delta", "gamma", "vega", "theta")

# the model fields a record may lack; each has a `<name>_ok` column
_OPTIONAL_FIELDS = ("iv",) + GREEK_FIELDS


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
    # set by load on the snapshot it checked, so enrich does not check it
    # again; not a field, so dataclasses.replace makes a copy without it
    _load_checked = False

    @cached_property
    def columns(self) -> dict[str, np.ndarray]:
        """record_columns(self.records), built on first use."""
        return record_columns(self.records)

    @cached_property
    def _moneyness_by_band(self) -> dict[float, np.ndarray]:
        return {}

    def moneyness(self, atm_band: float) -> np.ndarray:
        """moneyness_codes of the rows of columns, cached per atm_band."""
        codes = self._moneyness_by_band.get(atm_band)
        if codes is None:
            columns = self.columns
            codes = self._moneyness_by_band[atm_band] = moneyness_codes(
                columns["is_call"], columns["strike"], self.spot, atm_band)
        return codes

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
    """OCC-style ticker: O:{UND}{YYMMDD}{C|P}{strike*1000, 8 digits}.

    Raises ValueError when strike*1000 does not round into the 8 digits.
    """
    code = _TYPE_CODES[option_type]
    millis = round(strike * 1000)
    if not 0 <= millis < 10 ** 8:
        raise ValueError(f"strike {strike} does not fit the ticker's 8 digits")
    return f"O:{underlying}{expiry.strftime('%y%m%d')}{code}{millis:08d}"


_ITM, _ATM, _OTM = map(MONEYNESS_VALUES.index, ("ITM", "ATM", "OTM"))


def moneyness_codes(is_call, strike, spot: float, atm_band: float) -> np.ndarray:
    """ATM within |K-S|/S <= atm_band; else calls are ITM iff K < S, puts
    reversed. Each label as an int8 code, its index in MONEYNESS_VALUES."""
    strike = np.asarray(strike, dtype=float)
    in_the_money = np.where(is_call, strike < spot, strike > spot)
    return np.where(np.abs(strike - spot) / spot <= atm_band, _ATM,
                    np.where(in_the_money, _ITM, _OTM)).astype(np.int8)


def record_columns(records) -> dict[str, np.ndarray]:
    """The records as contiguous 1-D columns: row i is records[i].

    Rows keep the record order; the ranking alone fixes output order, since
    its ties break on the snapshot's unique tickers. Columns: `ticker_rank`
    (the ticker's rank in Python string order), `ticker_prefix` (the ticker
    is a proper prefix of another), `expiry` (date ordinal), `dte`,
    `strike`, `price`, `volume`, `is_call`, and iv and each Greek with a
    `<name>_ok` mask. A missing value reads 0.0 with `_ok` False, so no
    column holds NaN.
    """
    tickers = [rec.ticker for rec in records]
    names = sorted(set(tickers))
    rank = {name: i for i, name in enumerate(names)}
    ranks = np.array([rank[name] for name in tickers], dtype=np.int64)
    # a name that prefixes another sorts right before a name it prefixes
    prefixes = np.array([b.startswith(a) for a, b in zip(names, names[1:])]
                        + [False])
    columns = {
        "ticker_rank": ranks,
        "ticker_prefix": prefixes[ranks],
        "expiry": np.array([rec.expiry.toordinal() for rec in records],
                           dtype=np.int64),
        "dte": np.array([rec.dte() for rec in records], dtype=float),
        "strike": np.array([rec.strike for rec in records], dtype=float),
        "price": np.array([rec.price for rec in records], dtype=float),
        # a volume past the float range reads as the largest float
        "volume": np.array([min(rec.volume, sys.float_info.max)
                            for rec in records], dtype=float),
        "is_call": np.array([rec.option_type == "call" for rec in records],
                            dtype=bool),
    }
    for name in _OPTIONAL_FIELDS:
        values = [getattr(rec, name) for rec in records]
        columns[name] = np.array([0.0 if v is None else v for v in values],
                                 dtype=float)
        columns[name + "_ok"] = np.array([v is not None for v in values], dtype=bool)
    return columns


# ============================================================
# Validation and enrichment
# ============================================================


def _validate_record(rec: ContractRecord, snapshot_underlying: str,
                     as_of: _dt.date, row: int) -> None:
    if rec.option_type not in _TYPE_CODES:
        raise ChainError(f"bad option type {rec.option_type!r}", row)
    if rec.underlying != snapshot_underlying:
        raise ChainError(
            f"underlying {rec.underlying!r} does not match snapshot "
            f"{snapshot_underlying!r}", row)
    if rec.as_of != as_of:
        raise ChainError(
            f"as_of {rec.as_of} does not match snapshot {as_of}", row)
    if not (rec.strike > 0.0):
        raise ChainError(f"strike must be > 0, got {rec.strike}", row)
    if rec.price < 0.0:
        raise ChainError(f"price must be >= 0, got {rec.price}", row)
    if rec.volume < 0:
        raise ChainError(f"volume must be >= 0, got {rec.volume}", row)
    if rec.expiry < rec.as_of:
        raise ChainError(
            f"expiry {rec.expiry} is before as_of {rec.as_of}", row)
    if rec.iv is not None and rec.iv < 0.0:
        raise ChainError(f"iv must be >= 0, got {rec.iv}", row)
    # what finite_number refuses in a file; delta's range check refuses nan
    for name in ("price", "iv", "gamma", "vega", "theta"):
        value = getattr(rec, name)
        if value is not None and not math.isfinite(value):
            raise ChainError(f"{name} must be finite, got {value}", row)
    if rec.delta is not None:
        if rec.option_type == "call" and not (0.0 <= rec.delta <= 1.0):
            raise ChainError(
                f"call delta must lie in [0, 1], got {rec.delta}", row)
        if rec.option_type == "put" and not (-1.0 <= rec.delta <= 0.0):
            raise ChainError(
                f"put delta must lie in [-1, 0], got {rec.delta}", row)


def _check_duplicates(records, rows) -> None:
    """Refuse two records of one contract, or two that share a ticker."""
    contracts: dict[tuple, int] = {}
    tickers: dict[str, int] = {}
    for rec, row in zip(records, rows):
        key = (rec.expiry, rec.strike, rec.option_type)
        if key in contracts:
            raise ChainError(
                f"duplicate contract ({rec.expiry}, {format_number(rec.strike)}, "
                f"{rec.option_type}); first seen at row {contracts[key]}", row)
        if rec.ticker in tickers:
            raise ChainError(
                f"duplicate ticker {rec.ticker!r}; first seen at row "
                f"{tickers[rec.ticker]}", row)
        contracts[key] = tickers[rec.ticker] = row


def enrich(snapshot: ChainSnapshot) -> ChainSnapshot:
    """Complete model fields; exclude records they cannot be computed for.

    For each record: iv is taken as stored, else inverted from price; Greeks
    are backfilled where missing. Records that expire on as_of, price below
    the no-arbitrage floor (the vol -> 0 price), carry zero iv, or defeat
    the vol inversion are moved to snapshot.excluded with a reason.
    Enrichment is idempotent: an already enriched snapshot is returned as is.

    First every record passes the load checks, with its position as the
    row, unless load_snapshot checked this very snapshot with file rows: a
    snapshot built in memory, or a copy made with dataclasses.replace,
    never passed them. Then the underlying must be a name a FROM clause
    can hold.
    """
    if snapshot.enriched:
        return snapshot
    if not snapshot._load_checked:
        for row, rec in enumerate(snapshot.records):
            _validate_record(rec, snapshot.underlying, snapshot.as_of, row)
        _check_duplicates(snapshot.records, range(len(snapshot.records)))
    if not is_underlying(snapshot.underlying):  # row 1: a file's metadata
        raise ChainError("underlying must be upper-case ASCII letters, got "
                         f"{snapshot.underlying!r}",
                         1 if snapshot._load_checked else None)
    spot, rate = snapshot.spot, snapshot.rate
    kept: list[ContractRecord] = []
    excluded = list(snapshot.excluded)
    # expiry -> (tau, the zero-vol MarketParams of the floor); every
    # record's as_of is the snapshot's, so tau depends on expiry alone
    by_expiry: dict[_dt.date, tuple] = {}
    for rec in snapshot.records:
        at = by_expiry.get(rec.expiry)
        if at is None:
            tau = rec.tau()
            at = by_expiry[rec.expiry] = (tau, pricing.MarketParams(
                spot, rate, 0.0, tau) if tau else None)
        tau, floor_params = at
        if tau == 0.0:
            excluded.append(ExcludedRecord(rec, "expires on as_of; model values undefined"))
            continue
        floor = pricing.bsm_price(floor_params, rec.strike, rec.option_type)
        if rec.price < floor - 1e-9:
            excluded.append(ExcludedRecord(
                rec, f"price {format_number(rec.price)} below the no-arbitrage "
                     f"floor {floor:.6g}"))
            continue
        iv = rec.iv
        if iv is None:
            try:
                iv = pricing.implied_vol(spot, rate, tau, rec.strike,
                                         rec.option_type, rec.price)
            except NoSolution as exc:
                excluded.append(ExcludedRecord(rec, f"iv inversion failed: {exc}"))
                continue
        if iv == 0.0:
            excluded.append(ExcludedRecord(rec, "zero iv; Greeks undefined"))
            continue
        updates: dict = {"iv": iv} if iv != rec.iv else {}
        if (rec.delta is None or rec.gamma is None or rec.vega is None
                or rec.theta is None):
            vec = pricing.greeks(pricing.MarketParams(spot, rate, iv, tau),
                                 rec.strike, rec.option_type)
            updates.update((g, getattr(vec, g)) for g in GREEK_FIELDS
                           if getattr(rec, g) is None)
        kept.append(replace(rec, **updates) if updates else rec)
    out = replace(snapshot, records=tuple(kept), excluded=tuple(excluded))
    object.__setattr__(out, "enriched", True)
    return out


# ============================================================
# File formats
# ============================================================


def finite_number(value, what: str, row: int | None = None) -> float:
    """A number from CSV text or a JSON value; nan, inf and booleans are
    refused, and an empty text is reported missing."""
    if type(value) is bool:  # isinstance costs more per loaded cell
        raise ChainError(f"bad {what} {value!r}", row)
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ChainError(f"{what} must be finite, got an integer past the "
                         "float range", row) from None
    except (TypeError, ValueError):
        raise ChainError(f"missing {what}" if value == ""
                         else f"bad {what} {value!r}", row) from None
    if not math.isfinite(number):
        raise ChainError(f"{what} must be finite, got {value!r}", row)
    return number


def required_date(text: str, what: str, row: int | None = None) -> _dt.date:
    try:
        return parse_date(text)
    except ValueError:
        raise ChainError(f"bad {what} {text!r}; want YYYY-MM-DD", row) from None


def _record(values, row: int, empty, dates: dict) -> ContractRecord:
    """One record from its 13 values in _KEYS order.

    An optional model value equal to `empty` ("" in CSV, null in JSONL) is
    missing. dates maps each date text already read from the file to its
    date, so a file's dates are parsed once per distinct text.
    """
    (ticker, underlying, as_of, expiry, strike, code, price, volume,
     iv, delta, gamma, vega, theta) = values
    # a tuple compares by ==, so a JSON list or object is refused, not hashed
    if code not in _CODES:
        raise ChainError(f"bad type code {code!r}; want C or P", row)
    try:
        volume = int(volume)
    except (TypeError, ValueError, OverflowError):
        raise ChainError(f"bad volume {volume!r}", row) from None
    # a date is never false, so `or` parses only a text not seen before
    return ContractRecord(
        ticker, underlying,
        dates.get(as_of) or dates.setdefault(
            as_of, required_date(as_of, "as_of", row)),
        dates.get(expiry) or dates.setdefault(
            expiry, required_date(expiry, "expiry", row)),
        finite_number(strike, "strike", row), _CODE_TYPES[code],
        finite_number(price, "price", row), volume,
        None if iv == empty else finite_number(iv, "iv", row),
        None if delta == empty else finite_number(delta, "delta", row),
        None if gamma == empty else finite_number(gamma, "gamma", row),
        None if vega == empty else finite_number(vega, "vega", row),
        None if theta == empty else finite_number(theta, "theta", row))


def _check_meta_keys(meta: dict) -> None:
    missing = set(_META_KEYS) - set(meta)
    if missing:
        raise ChainError(f"metadata missing {', '.join(sorted(missing))}", 1)


def _csv_head(lines: list[str]) -> dict:
    """The metadata of a CSV chain whose first two lines check out."""
    if not lines[0].startswith(_META_PREFIX):
        raise ChainError(f"first line must start with {_META_PREFIX!r}", 1)
    meta: dict = {}
    for pair in lines[0][len(_META_PREFIX):].split():
        if "=" not in pair:
            raise ChainError(f"bad metadata entry {pair!r}", 1)
        key, _, value = pair.partition("=")
        meta[key] = value
    _check_meta_keys(meta)
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        raise ChainError(f"second line must be the header {CSV_HEADER!r}", 2)
    return meta


def _csv_values(line: str, row: int) -> list[str]:
    values = line.split(",")
    if len(values) != len(_KEYS):
        raise ChainError(f"expected 13 fields, got {len(values)}", row)
    return values


_TEXT_KEYS = frozenset(("ticker", "underlying", "as_of", "expiry"))
_KEY_SET = frozenset(_KEYS)


def _check_json_kinds(keys, values, row: int) -> None:
    """Refuse a JSON value of the wrong kind for its key: a text field
    that is not a string, a number field that is a bool, or a volume that
    is not a whole number. The type code is checked with the record."""
    for key, value in zip(keys, values):
        if key in _TEXT_KEYS:
            wrong = not isinstance(value, str)
        else:
            wrong = key != "type" and (isinstance(value, bool) or (
                key == "volume" and isinstance(value, float)
                and not value.is_integer()))
        if wrong:
            raise ChainError(f"bad {key} {value!r}", row)


def _json_object(line: str, row: int) -> dict:
    try:
        obj = json.loads(line)
    # JSONDecodeError, an int too long, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ChainError(f"bad JSON: {exc}", row) from None
    if not isinstance(obj, dict):
        raise ChainError("each line must hold a JSON object", row)
    return obj


def _jsonl_head(lines: list[str]) -> dict:
    """The metadata object on the first line of a JSONL chain."""
    meta = _json_object(lines[0], 1).get("meta")
    if not isinstance(meta, dict):
        raise ChainError('first line must be {"meta": {...}}', 1)
    _check_meta_keys(meta)
    _check_json_kinds(_META_KEYS, [meta[key] for key in _META_KEYS], 1)
    return meta


def _jsonl_values(line: str, row: int) -> list:
    obj = _json_object(line, row)
    extra = obj.keys() - _KEY_SET
    if extra:
        raise ChainError(f"unknown keys: {', '.join(sorted(extra))}", row)
    missing = _KEY_SET - obj.keys()
    if missing:
        raise ChainError(f"missing keys: {', '.join(sorted(missing))}", row)
    values = [obj[key] for key in _KEYS]
    _check_json_kinds(_KEYS, values, row)
    return values


def _detect_format(path: str) -> str:
    lower = path.lower()
    if lower.endswith(".csv"):
        return "csv"
    if lower.endswith(".jsonl") or lower.endswith(".ndjson"):
        return "jsonl"
    raise ChainError(f"cannot infer the snapshot format from {path!r}; "
                     "name a .csv, .jsonl or .ndjson file")


def load_snapshot(path: str) -> ChainSnapshot:
    """Read, validate, and backfill a snapshot file.

    The metadata is checked first, then each record as it is read, with
    its file row, then duplicates, then (in enrich) the underlying name.
    Stored Greeks are kept as-is; only missing model fields are filled in
    (see enrich). Unresolvable records land in snapshot.excluded.
    """
    fmt = _detect_format(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ChainError("empty file; missing header", 1)
    if fmt == "csv":
        meta, first, values_of, empty = _csv_head(lines), 3, _csv_values, ""
    else:
        meta, first, values_of, empty = _jsonl_head(lines), 2, _jsonl_values, None
    underlying = meta["underlying"]
    as_of = required_date(meta["as_of"], "as_of", 1)
    spot = finite_number(meta["spot"], "spot", 1)
    if not spot > 0.0:
        raise ChainError(f"spot must be > 0, got {meta['spot']!r}", 1)
    rate = finite_number(meta["rate"], "rate", 1)
    records: list[ContractRecord] = []
    rows: list[int] = []
    dates: dict = {}
    for row, line in enumerate(lines[first - 1:], start=first):
        if line:
            rec = _record(values_of(line, row), row, empty, dates)
            _validate_record(rec, underlying, as_of, row)
            records.append(rec)
            rows.append(row)
    _check_duplicates(records, rows)
    # marked so that enrich does not check these records again
    snapshot = ChainSnapshot(underlying=underlying, as_of=as_of, spot=spot,
                             rate=rate, records=tuple(records))
    object.__setattr__(snapshot, "_load_checked", True)
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
    """Canonical file text for a snapshot (excluded records are dropped).

    The metadata line holds _META_KEYS, the date as text: CSV writes the
    numbers with format_number, JSONL keeps them as JSON numbers. Raises
    ChainError for CSV when a ticker holds a comma or a line break, which
    the CSV loader would split on.
    """
    meta = {key: getattr(snapshot, key) for key in _META_KEYS}
    meta = {key: format_date(value) if isinstance(value, _dt.date) else value
            for key, value in meta.items()}
    if fmt == "csv":
        for rec in snapshot.records:
            if "," in rec.ticker or "\n" in rec.ticker:
                raise ChainError(f"ticker {rec.ticker!r} holds a comma or a "
                                 "line break; save the chain as JSONL")
        lines = [_META_PREFIX + " ".join(
            f"{key}={value if isinstance(value, str) else format_number(value)}"
            for key, value in meta.items()), CSV_HEADER]
        lines.extend(_csv_record_line(r) for r in snapshot.records)
    elif fmt == "jsonl":
        lines = [json.dumps({"meta": meta})]
        lines.extend(json.dumps(_stored(r)) for r in snapshot.records)
    else:
        raise ChainError(f"unknown snapshot format {fmt!r}")
    return "\n".join(lines) + "\n"


def save_snapshot(snapshot: ChainSnapshot, path: str) -> None:
    """Write the canonical file form; load(save(load(x))) is byte-identical.
    The text is rendered first, so a refusal leaves `path` untouched."""
    text = snapshot_to_text(snapshot, _detect_format(path))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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
    """A fully priced, enriched synthetic chain over the (expiry, strike,
    type) grid.

    ivs come from smile_vol, prices from bsm_price, Greeks from enrich, and
    volumes from a seeded generator that decays in |ln(K/S)|. The same seed
    always yields the same snapshot, byte for byte. Raises ValueError when
    a FROM clause cannot name the underlying or two contracts of the grid
    give one ticker.
    """
    if not is_underlying(underlying):
        raise ValueError(
            f"underlying must be upper-case ASCII letters, got {underlying!r}")
    if not expiries or not strikes:
        raise ValueError("need at least one expiry and one strike")
    rng = np.random.default_rng(seed)
    records: list[ContractRecord] = []
    contract_of: dict[str, tuple] = {}
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
                ticker = occ_ticker(underlying, expiry, option_type, strike)
                if contract_of.setdefault(ticker, (expiry, strike)) != (expiry, strike):
                    raise ValueError(f"two grid contracts give one ticker {ticker}")
                volume = int(round(2000.0 * math.exp(-3.0 * abs(math.log(strike / spot)))
                                   * rng.uniform(0.5, 1.5)))
                records.append(ContractRecord(
                    ticker=ticker,
                    underlying=underlying,
                    as_of=as_of,
                    expiry=expiry,
                    strike=float(strike),
                    option_type=option_type,
                    price=pricing.bsm_price(params, strike, option_type),
                    volume=volume,
                    iv=iv,
                ))
    return enrich(ChainSnapshot(underlying=underlying, as_of=as_of,
                                spot=float(spot), rate=float(rate),
                                records=tuple(records)))


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
    with np.errstate(all="ignore"):
        levels = spot * np.exp(np.cumsum(log_steps))
    if not ((levels > 0.0) & (levels < math.inf)).all():
        raise ValueError("the path leaves the positive float range")
    return [float(spot)] + [float(x) for x in levels]
