"""Mark-to-model backtesting of assembled strategies over spot paths.

Positions are revalued daily with each leg held at its entry implied vol
(the sticky-entry policy; a per-date snapshot lookup is available as
"snapshot" mode). PnL at t is sum over legs of q * d * (V_t - entry_price)
times the contract multiplier; at expiry legs settle to intrinsic, so the
final PnL of a single-expiry strategy equals its terminal payoff.
"""

import csv
import datetime as _dt
import math
from dataclasses import dataclass

from . import pricing
from .catalog import lookup
from .chain import DAYS_PER_YEAR, ChainSnapshot
from .config import RunConfig
from .engine import StrategyInstance
from .errors import BacktestError, MissingSpot, UnknownStrategy
from .serialize import parse_date

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


def position_from_instance(instance: StrategyInstance, label: str) -> Position:
    """Adapt an engine result (in memory) for backtesting."""
    legs = []
    for leg in instance.legs:
        if leg.record.iv is None:
            raise BacktestError(
                f"{leg.record.ticker} carries no iv; enrich the snapshot first")
        legs.append(PositionLeg(
            direction=leg.direction, option_type=leg.record.option_type,
            strike=leg.record.strike, expiry=leg.record.expiry,
            quantity=leg.quantity, entry_price=leg.record.price,
            entry_iv=leg.record.iv))
    return Position(label=label, legs=tuple(legs))


def positions_from_results(doc: dict) -> list[Position]:
    """Positions from a results JSON document (standard output mode)."""
    strategies = doc.get("strategies")
    if strategies is None:
        raise BacktestError("results document has no 'strategies' list")
    positions = []
    for rank, entry in enumerate(strategies, start=1):
        if "legs" not in entry:
            raise BacktestError(
                "results were serialized in blueprint mode; backtesting "
                "needs standard mode (per-leg iv)")
        try:
            schema = lookup(entry["strategy_type"])
        except UnknownStrategy as exc:
            raise BacktestError(str(exc)) from exc
        legs = []
        for leg in entry["legs"]:
            if leg.get("iv") is None:
                raise BacktestError(
                    f"{leg.get('ticker', '?')} carries no iv in the results")
            legs.append(PositionLeg(
                direction=int(leg["direction"]),
                option_type=schema.role(leg["role"]).option_type,
                strike=float(leg["strike"]),
                expiry=parse_date(leg["expiry"]),
                quantity=int(leg["quantity"]),
                entry_price=float(leg["price"]),
                entry_iv=float(leg["iv"]),
            ))
        positions.append(Position(
            label=f"{entry['strategy_type']}#{rank}", legs=tuple(legs)))
    return positions


def load_spots(path: str) -> dict[_dt.date, float]:
    """Spot series CSV with header date,close."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "close"]:
            raise BacktestError(f"spot series must start with 'date,close', got {header}")
        spots: dict[_dt.date, float] = {}
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise BacktestError(f"bad spot row {row}")
            spots[parse_date(row[0])] = float(row[1])
    if not spots:
        raise BacktestError("spot series is empty")
    return spots


def entry_cash_of(position: Position, multiplier: float) -> float:
    total = 0.0
    for leg in position.legs:
        total += leg.quantity * leg.direction * leg.entry_price
    return total * multiplier


def classify_side(entry_cash: float) -> str:
    """buyer iff entry cash is paid out; zero-cost counts as buyer."""
    return "buyer" if entry_cash >= 0.0 else "seller"


def _leg_value(leg: PositionLeg, spot: float, date: _dt.date, rate: float,
               iv: float) -> float:
    tau = (leg.expiry - date).days / DAYS_PER_YEAR
    params = pricing.MarketParams(spot, rate, iv, tau)
    return pricing.bsm_price(params, leg.strike, leg.option_type)


def _snapshot_iv(snapshot: ChainSnapshot, leg: PositionLeg) -> float:
    iv = snapshot.iv_by_contract.get((leg.expiry, leg.option_type), {}).get(leg.strike)
    if iv is not None:
        return iv
    raise BacktestError(
        f"no iv for {leg.option_type} K={leg.strike:g} {leg.expiry} "
        f"in the {snapshot.as_of} snapshot")


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
    dates: list[_dt.date] = []
    pnl: list[float] = []
    day = entry
    while day <= effective_exit:
        if day not in spots:
            raise MissingSpot(f"no spot for {day}")
        spot = spots[day]
        total = 0.0
        for leg in position.legs:
            if iv_policy == "sticky_entry":
                iv = leg.entry_iv
            else:
                if day not in snapshots:
                    raise MissingSpot(f"no snapshot for {day}")
                iv = _snapshot_iv(snapshots[day], leg)
            value = _leg_value(leg, spot, day, config.rate, iv)
            total += leg.quantity * leg.direction * (value - leg.entry_price)
        dates.append(day)
        pnl.append(total * mult)
        day += _dt.timedelta(days=1)
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
        return {
            "n": self.n,
            "n_buyer": self.n_buyer,
            "n_seller": self.n_seller,
            "wr": self.wr,
            "wr_buyer": self.wr_buyer,
            "wr_seller": self.wr_seller,
            "re50": self.re50,
            "re50_buyer": self.re50_buyer,
            "re50_seller": self.re50_seller,
            "re90": self.re90,
            "re90_buyer": self.re90_buyer,
            "re90_seller": self.re90_seller,
            "mean_profit": self.mean_profit,
            "mean_roc": self.mean_roc,
            "zero_cost_count": self.zero_cost_count,
            "strategies": [
                {
                    "label": row.label,
                    "side": row.side,
                    "zero_cost": row.zero_cost,
                    "entry_cash": row.entry_cash,
                    "final_pnl": row.final_pnl,
                    "win": row.win,
                    "roc": row.roc,
                    "re50": row.re50,
                    "re90": row.re90,
                }
                for row in self.rows
            ],
        }

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
    return BacktestReport(
        rows=tuple(rows),
        n=len(rows),
        n_buyer=len(buyers),
        n_seller=len(sellers),
        wr=_rate_over(rows, lambda r: r.win),
        wr_buyer=_rate_over(buyers, lambda r: r.win),
        wr_seller=_rate_over(sellers, lambda r: r.win),
        re50=_rate_over(rows, lambda r: r.re50),
        re50_buyer=_rate_over(buyers, lambda r: r.re50),
        re50_seller=_rate_over(sellers, lambda r: r.re50),
        re90=_rate_over(rows, lambda r: r.re90),
        re90_buyer=_rate_over(buyers, lambda r: r.re90),
        re90_seller=_rate_over(sellers, lambda r: r.re90),
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
