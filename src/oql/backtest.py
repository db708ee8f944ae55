"""Mark-to-model backtesting of assembled strategies over spot paths.

Positions are revalued daily with each leg held at its entry implied vol
(the sticky-entry policy; a per-date snapshot lookup is available as
"snapshot" mode). PnL at t is sum over legs of q * d * (V_t - entry_price)
times the contract multiplier; at expiry legs settle to intrinsic, so the
final PnL of a single-expiry strategy equals its terminal payoff.
"""

import csv
import datetime as _dt
from dataclasses import dataclass
from operator import attrgetter

from . import pricing
from .catalog import StrategySchema, lookup
from .chain import DAYS_PER_YEAR, ChainSnapshot, finite_number, required_date
from .config import RunConfig
from .errors import BacktestError, FormatError, MissingSpot, UnknownStrategy

RE_TAUS = (0.5, 0.9)

IV_POLICIES = ("sticky_entry", "snapshot")


@dataclass(frozen=True)
class PositionLeg:
    direction: int
    option_type: str
    strike: float
    expiry: _dt.date
    quantity: int
    entry_price: float
    entry_iv: float


@dataclass(frozen=True)
class Position:
    label: str
    legs: tuple[PositionLeg, ...]


@dataclass(frozen=True)
class PnLPath:
    label: str
    dates: tuple[_dt.date, ...]
    pnl: tuple[float, ...]
    entry_cash: float  # signed; positive = paid (buyer)

    def final_pnl(self) -> float:
        return self.pnl[-1]


def positions_from_results(doc) -> list[Position]:
    """Positions from a results JSON document (standard output mode)."""
    strategies = doc.get("strategies") if isinstance(doc, dict) else None
    if not isinstance(strategies, list):
        raise BacktestError(
            "results document must be a JSON object with a 'strategies' list")
    positions = []
    for rank, entry in enumerate(strategies, start=1):
        if not isinstance(entry, dict):
            raise BacktestError(f"strategy {rank} is not a JSON object")
        if "legs" not in entry:
            raise BacktestError(
                "results were serialized in blueprint mode; backtesting "
                "needs standard mode (per-leg iv)")
        try:
            schema = lookup(str(entry["strategy_type"]))
            if not isinstance(entry["legs"], list):
                raise BacktestError("legs must be a list")
            legs = tuple(_position_leg(leg, schema) for leg in entry["legs"])
        except KeyError as exc:
            raise BacktestError(f"strategy {rank}: missing key {exc}") from None
        except (BacktestError, FormatError, UnknownStrategy) as exc:
            raise BacktestError(f"strategy {rank}: {exc}") from None
        positions.append(Position(
            label=f"{entry['strategy_type']}#{rank}", legs=legs))
    return positions


def _position_leg(leg, schema: StrategySchema) -> PositionLeg:
    if not isinstance(leg, dict):
        raise BacktestError("a leg is not a JSON object")
    if leg.get("iv") is None:
        raise BacktestError(
            f"{leg.get('ticker', '?')} carries no iv in the results")
    if leg["role"] not in schema.role_ids:
        raise BacktestError(f"{schema.name} has no role {leg['role']!r}")
    direction = finite_number(leg["direction"], "direction")
    if direction not in (1.0, -1.0):
        raise BacktestError(f"direction must be 1 or -1, got {leg['direction']!r}")
    quantity = finite_number(leg["quantity"], "quantity")
    if quantity < 1 or quantity % 1 != 0:
        raise BacktestError(
            f"quantity must be a whole number >= 1, got {leg['quantity']!r}")
    strike = finite_number(leg["strike"], "strike")
    if strike <= 0.0:
        raise BacktestError(f"strike must be > 0, got {leg['strike']!r}")
    expiry = required_date(str(leg["expiry"]), "expiry")
    entry_price = finite_number(leg["price"], "price")
    iv = finite_number(leg["iv"], "iv")
    if iv < 0.0:
        raise BacktestError(f"iv must be >= 0, got {leg['iv']!r}")
    return PositionLeg(
        direction=int(direction),
        option_type=schema.role(leg["role"]).option_type,
        strike=strike, expiry=expiry, quantity=int(quantity),
        entry_price=entry_price, entry_iv=iv)


def load_spots(path: str) -> dict[_dt.date, float]:
    """Spot series CSV with header date,close, one row per date; closes
    finite and > 0."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:  # each row with the line it ends on, as csv counts lines
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # e.g. a cell past the csv field size limit
            raise BacktestError(f"{path}: row {reader.line_num}: {exc}") from None
    header = rows[0][1] if rows else None
    if header != ["date", "close"]:
        raise BacktestError(f"{path}: row 1: spot series must start with "
                            f"'date,close', got {header}")
    spots: dict[_dt.date, float] = {}
    first_rows: dict[_dt.date, int] = {}
    for line, row in rows[1:]:
        if not row:
            continue
        where = f"{path}: row {line}"
        if len(row) != 2:
            raise BacktestError(f"{where}: bad spot row {row}")
        try:
            day = required_date(row[0], "date")
            close = finite_number(row[1], "close")
        except FormatError as exc:
            raise BacktestError(f"{where}: {exc}") from None
        if not close > 0.0:
            raise BacktestError(f"{where}: close must be > 0, got {row[1]!r}")
        if day in spots:
            raise BacktestError(f"{where}: duplicate date {day}; first seen at "
                                f"row {first_rows[day]}")
        spots[day], first_rows[day] = close, line
    if not spots:
        raise BacktestError(f"{path}: spot series is empty")
    return spots


def entry_cash_of(position: Position, multiplier: float) -> float:
    total = 0.0
    for leg in position.legs:
        total += leg.quantity * leg.direction * leg.entry_price
    return total * multiplier


def classify_side(entry_cash: float) -> str:
    """buyer iff entry cash is paid out; zero-cost counts as buyer."""
    return "buyer" if entry_cash >= 0.0 else "seller"


def mark_path(position: Position, spots: dict[_dt.date, float],
              entry: _dt.date, exit: _dt.date, config: RunConfig | None = None,
              iv_policy: str = "sticky_entry",
              snapshots: dict[_dt.date, ChainSnapshot] | None = None) -> PnLPath:
    """Daily PnL from entry to min(exit, earliest leg expiry), inclusive.

    Every calendar day in the window needs a spot (MissingSpot otherwise).
    Legs at expiry settle to intrinsic; before expiry they are repriced at
    the policy's iv (sticky_entry: the entry iv; snapshot: looked up in the
    per-date snapshot map).
    """
    config = config or RunConfig()
    if iv_policy not in IV_POLICIES:
        raise BacktestError(f"iv_policy must be one of {IV_POLICIES}, got {iv_policy!r}")
    if iv_policy == "snapshot" and snapshots is None:
        raise BacktestError("snapshot iv policy needs a per-date snapshot map")
    if not position.legs:
        raise BacktestError(f"{position.label}: empty position")
    effective_exit = min([exit] + [leg.expiry for leg in position.legs])
    if entry > effective_exit:
        raise BacktestError(
            f"{position.label}: entry {entry} is after effective exit "
            f"{effective_exit}")
    mult = config.multiplier
    rate = config.rate
    sticky = iv_policy == "sticky_entry"
    # each leg's constants, computed once per path: tau is the same int
    # day count over DAYS_PER_YEAR, and q * d the same int factor
    legs = [(leg.expiry.toordinal(), leg.quantity * leg.direction, leg.strike,
             leg.option_type, leg.entry_price, leg.entry_iv,
             (leg.expiry, leg.option_type))
            for leg in position.legs]
    one_day = _dt.timedelta(days=1)
    dates: list[_dt.date] = []
    pnl: list[float] = []
    day = entry
    while day <= effective_exit:
        if day not in spots:
            raise MissingSpot(f"no spot for {day}")
        spot = spots[day]
        if not sticky:
            if day not in snapshots:
                raise MissingSpot(f"no snapshot for {day}")
            snapshot = snapshots[day]
            iv_map = snapshot.iv_by_contract
        ordinal = day.toordinal()
        total = 0.0
        for expiry_ordinal, qd, strike, option_type, entry_price, iv, key in legs:
            if not sticky:
                strikes = iv_map.get(key)
                iv = None if strikes is None else strikes.get(strike)
                if iv is None:
                    raise BacktestError(
                        f"no iv for {option_type} K={strike:g} {key[0]} "
                        f"in the {snapshot.as_of} snapshot")
            params = pricing.MarketParams(
                spot, rate, iv, (expiry_ordinal - ordinal) / DAYS_PER_YEAR)
            value = pricing.bsm_price(params, strike, option_type)
            total += qd * (value - entry_price)
        dates.append(day)
        pnl.append(total * mult)
        day += one_day
    return PnLPath(label=position.label, dates=tuple(dates), pnl=tuple(pnl),
                   entry_cash=entry_cash_of(position, mult))


def risk_exposure(path: PnLPath, tau_frac: float) -> bool:
    """Breach iff min PnL over the path reaches -tau_frac * |entry cash|."""
    return min(path.pnl) <= -tau_frac * abs(path.entry_cash)


# ============================================================
# Reporting
# ============================================================


@dataclass(frozen=True)
class StrategyRow:
    label: str
    side: str
    zero_cost: bool
    entry_cash: float
    final_pnl: float
    win: bool
    roc: float | None
    re50: bool
    re90: bool


@dataclass(frozen=True)
class BacktestReport:
    rows: tuple[StrategyRow, ...]
    n: int
    n_buyer: int
    n_seller: int
    wr: float
    wr_buyer: float | None
    wr_seller: float | None
    re50: float
    re50_buyer: float | None
    re50_seller: float | None
    re90: float
    re90_buyer: float | None
    re90_seller: float | None
    mean_profit: float
    mean_roc: float | None
    zero_cost_count: int

    def to_json_dict(self) -> dict:
        """The fields after rows in declaration order, then the rows as
        "strategies"."""
        doc = dict(vars(self))
        del doc["rows"]
        doc["strategies"] = [dict(vars(row)) for row in self.rows]
        return doc

    def to_table(self) -> str:
        def pct(x: float | None) -> str:
            return "-" if x is None else f"{100.0 * x:.1f}%"

        lines = [
            f"{'label':<24} {'side':<6} {'entry':>10} {'final_pnl':>10} "
            f"{'roc':>8} {'re50':>5} {'re90':>5}",
        ]
        for row in self.rows:
            roc = "-" if row.roc is None else f"{row.roc:.3f}"
            lines.append(
                f"{row.label:<24} {row.side:<6} {row.entry_cash:>10.2f} "
                f"{row.final_pnl:>10.2f} {roc:>8} "
                f"{str(row.re50):>5} {str(row.re90):>5}")
        lines.append(
            f"n={self.n} (buyer {self.n_buyer} / seller {self.n_seller})  "
            f"WR {pct(self.wr)} (B {pct(self.wr_buyer)} / S {pct(self.wr_seller)})  "
            f"RE50 {pct(self.re50)}  RE90 {pct(self.re90)}  "
            f"mean_profit {self.mean_profit:.2f}  "
            f"mean_roc {'-' if self.mean_roc is None else f'{self.mean_roc:.4f}'}")
        return "\n".join(lines)


# report rate -> the StrategyRow flag it counts
_RATE_FLAGS = (("wr", "win"), ("re50", "re50"), ("re90", "re90"))


def _rate_over(rows, predicate) -> float | None:
    if not rows:
        return None
    return sum(1 for r in rows if predicate(r)) / len(rows)


def report(paths: list[PnLPath]) -> BacktestReport:
    """Win rate, risk exposure, profit, and ROC over a cohort of paths."""
    if not paths:
        raise BacktestError("no paths to report on")
    rows: list[StrategyRow] = []
    for path in paths:
        cash = path.entry_cash
        final = path.final_pnl()
        zero_cost = cash == 0.0
        rows.append(StrategyRow(
            label=path.label,
            side=classify_side(cash),
            zero_cost=zero_cost,
            entry_cash=cash,
            final_pnl=final,
            win=final > 0.0,
            roc=None if zero_cost else final / abs(cash),
            re50=risk_exposure(path, RE_TAUS[0]),
            re90=risk_exposure(path, RE_TAUS[1]),
        ))
    buyers = [r for r in rows if r.side == "buyer"]
    sellers = [r for r in rows if r.side == "seller"]
    with_roc = [r for r in rows if r.roc is not None]
    rates = {f"{rate}{suffix}": _rate_over(cohort, attrgetter(flag))
             for rate, flag in _RATE_FLAGS
             for suffix, cohort in (("", rows), ("_buyer", buyers),
                                    ("_seller", sellers))}
    return BacktestReport(
        rows=tuple(rows),
        n=len(rows),
        n_buyer=len(buyers),
        n_seller=len(sellers),
        **rates,
        mean_profit=sum(r.final_pnl for r in rows) / len(rows),
        mean_roc=(sum(r.roc for r in with_roc) / len(with_roc)
                  if with_roc else None),
        zero_cost_count=sum(1 for r in rows if r.zero_cost),
    )


def run_cohorts(positions: list[Position], spots: dict[_dt.date, float],
                entry: _dt.date, exit: _dt.date,
                config: RunConfig | None = None,
                iv_policy: str = "sticky_entry",
                snapshots: dict[_dt.date, ChainSnapshot] | None = None,
                ) -> dict[str, BacktestReport]:
    """Reports for the full cohort and the rank-1 ("top") cohort."""
    if not positions:
        raise BacktestError("no positions to backtest")
    paths = [mark_path(p, spots, entry, exit, config, iv_policy, snapshots)
             for p in positions]
    return {"all": report(paths), "top": report(paths[:1])}
