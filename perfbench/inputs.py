"""Seeded input files for the three workloads.

Every op a run can draw comes from a finite pool that a fixed master seed
generates, so the committed goldens cover every op of every seed. The run
seed picks alternatives from each pool slot, the order of the ops and, for the
backtest, one of BACKTEST_VARIANTS spot paths. Chains are written with
save_snapshot, so the program under test only ever reads its own formats.
"""

import dataclasses
import datetime as dt
import json
import os
import random

from oql import chain as chain_mod

AS_OF = dt.date(2025, 6, 2)
DTES = (7, 14, 21, 30, 45, 60, 90)
POOL_SEED = 20250602


@dataclasses.dataclass(frozen=True)
class ChainSpec:
    underlying: str
    spot: float
    rate: float
    strikes: tuple[float, float, float]  # lo, hi, step
    dtes: tuple[int, ...]
    base_vol: float
    skew: float
    term: float
    seed: int

    def strike_grid(self) -> list[float]:
        lo, hi, step = self.strikes
        return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]

    def snapshot(self, as_of: dt.date = AS_OF, spot: float | None = None,
                 expiries: list[dt.date] | None = None):
        if expiries is None:
            expiries = [AS_OF + dt.timedelta(days=d) for d in self.dtes]
        return chain_mod.generate_synthetic(
            self.underlying, as_of, self.spot if spot is None else spot,
            self.rate, expiries, self.strike_grid(), base_vol=self.base_vol,
            skew=self.skew, term=self.term, seed=self.seed)


# ROADMAP workload W: 121 strikes x 7 expiries x 2 types = 1,694 records
WORKLOAD_W = ChainSpec("TSLA", 300.0, 0.04, (150.0, 450.0, 2.5), DTES,
                       0.5, -0.2, 0.1, 7)
# W's surface on a 10-point grid (434 records): the four baseline queries
# assemble 3,087 / 4,495 / 3,255 / 651 rows, so a scan op stays near 0.1 s
SCAN_CHAIN = dataclasses.replace(WORKLOAD_W, strikes=(150.0, 450.0, 10.0))
ATTEMPT_CHAINS = {
    "tsla.csv": WORKLOAD_W,
    "spy.csv": ChainSpec("SPY", 500.0, 0.04, (420.0, 580.0, 2.5), DTES,
                         0.2, -0.1, 0.05, 11),
    "qqq.jsonl": ChainSpec("QQQ", 450.0, 0.04, (380.0, 520.0, 2.5),
                           (14, 30, 45, 60, 90), 0.25, -0.15, 0.05, 13),
}
BACKTEST_CHAIN = ChainSpec("AAPL", 200.0, 0.04, (150.0, 250.0, 2.5), DTES,
                           0.3, -0.15, 0.05, 17)
BACKTEST_DAYS = 28           # window entry..exit, inclusive: 29 marks
BACKTEST_SNAPSHOT_DTES = (30, 45, 60, 90)  # expiries alive through the window
BACKTEST_VARIANTS = 8        # distinct seeded spot paths
ATTEMPT_CASES = 400

# ROADMAP baseline queries on workload W
BASELINE_QUERIES = (
    "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.20 "
    "AND LC.Delta < 0.05 AND SP.Delta > -0.20 AND LP.Delta > -0.05 "
    "HAVING net_theta > 0 AND max_loss < 500 LIMIT 10",
    "SELECT BUTTERFLY_CALL FROM TSLA WHERE Dte ~ 30 ORDER BY rr_ratio DESC LIMIT 5",
    "SELECT BULL_CALL_SPREAD FROM TSLA HAVING net_debit < 300 "
    "ORDER BY rr_ratio DESC LIMIT 5",
    "SELECT CALENDAR_CALL FROM TSLA LIMIT 5",
)


# ============================================================
# scan: analyst queries over one chain
# ============================================================

_ORDER_KEYS = ("rr_ratio DESC", "net_theta DESC", "max_loss ASC",
               "net_debit ASC", "net_credit DESC", "width ASC",
               "net_delta ASC", "max_profit DESC")
_CASH_GREEK_HAVING = ("net_debit < {a}", "net_credit > {b}", "net_theta > 0",
                      "net_delta BETWEEN -{c} AND {c}", "net_vega < {v}")
_PAYOFF_HAVING = ("max_loss < {e}", "rr_ratio > {f}", "max_profit > {g}",
                  "breakeven_low > {h}", "breakeven_high < {i}")

# per family: two WHERE shapes, a bare Dte target ({d}; role-level for the
# calendar, whose legs need different expiries) and a narrower one
_SCAN_FAMILIES = {
    "BULL_CALL_SPREAD": ("Dte ~ {d}", "Dte ~ {d} AND L.Delta > 0.4 AND S.Delta < 0.5"),
    "BEAR_CALL_SPREAD": ("Dte ~ {d}", "Dte ~ {d} AND S.Moneyness = OTM"),
    "BEAR_PUT_SPREAD": ("Dte ~ {d}", "Dte ~ {d} AND L.Delta < -0.3 AND S.Delta > -0.5"),
    "CALENDAR_CALL": ("F.Dte < {d} AND B.Dte > {d}",
                      "F.Dte < {d} AND B.Dte > {d} AND Moneyness = OTM"),
    "STRADDLE": ("Dte ~ {d}", "Dte ~ {d} AND Moneyness = OTM"),
    "STRANGLE": ("Dte ~ {d}", "Dte ~ {d} AND P.Delta > -0.35 AND C.Delta < 0.35"),
    "IRON_CONDOR": ("Dte ~ {d} AND SC.Delta < {x} AND LC.Delta < {y} "
                    "AND SP.Delta > -{x} AND LP.Delta > -{y}",
                    "Dte ~ {d} AND SC.Delta ~ {x} AND LC.Delta < {y} "
                    "AND SP.Delta ~ -{x} AND LP.Delta > -{y}"),
    "BUTTERFLY_CALL": ("Dte ~ {d}", "Dte ~ {d} AND S.Moneyness = OTM"),
}

# slot shapes shared by every family: (filter variant, HAVING class, LIMIT)
# HAVING class: none, cash/Greek only, payoff-based
_SCAN_SLOTS = (
    (0, "none", "limit"),
    (1, "cash", "limit"),
    (0, "payoff", "limit"),
    (1, "payoff", "none"),
    (0, "cash", "limit"),
)
SCAN_ALTERNATIVES = 6
SCAN_PICKS = 4               # alternatives of each slot in one run's op list


def _scan_shape(rng: random.Random, family: str) -> dict:
    """WHERE parameters of a slot; they fix how many rows the slot assembles."""
    return {
        "d": rng.choice((30, 45, 60) if family == "CALENDAR_CALL" else DTES),
        "x": rng.choice(("0.20", "0.25", "0.30")),
        "y": rng.choice(("0.05", "0.10")),
    }


def _scan_query(rng: random.Random, family: str, slot, shape: dict) -> str:
    variant, having_class, limit_class = slot
    params = dict(
        shape,
        a=rng.choice((300, 500, 800, 1200)), b=rng.choice((50, 100, 200)),
        c=rng.choice((5, 10, 20)), v=rng.choice((20, 50)),
        e=rng.choice((400, 600, 900, 1500)), f=rng.choice(("0.5", "1", "2")),
        g=rng.choice((200, 500, 1000)), h=rng.choice((200, 250, 280)),
        i=rng.choice((320, 350, 400)))
    text = (f"SELECT {family} FROM TSLA WHERE "
            + _SCAN_FAMILIES[family][variant].format(**params))
    if having_class == "cash":
        text += " HAVING " + rng.choice(_CASH_GREEK_HAVING).format(**params)
    elif having_class == "payoff":
        text += " HAVING " + rng.choice(_PAYOFF_HAVING).format(**params)
    if limit_class == "limit":
        keys = rng.sample(_ORDER_KEYS, rng.choice((1, 1, 2)))
        text += " ORDER BY " + ", ".join(keys)
        text += f" LIMIT {rng.choice((5, 10, 20, 50))}"
    return text


def scan_pool() -> list[list[str]]:
    """Slots of alternative query texts; a run draws SCAN_PICKS of each.

    Alternatives of a slot share its WHERE clause and differ in HAVING
    thresholds, ORDER BY keys and LIMIT, so every seed assembles the same
    rows per slot and run-to-run cost stays level across seeds.
    """
    rng = random.Random(POOL_SEED)
    slots: list[list[str]] = [[q] for q in BASELINE_QUERIES]
    for family in _SCAN_FAMILIES:
        for slot in _SCAN_SLOTS:
            shape = _scan_shape(rng, family)
            alts: list[str] = []
            while len(alts) < SCAN_ALTERNATIVES:
                q = _scan_query(rng, family, slot, shape)
                if q not in alts:
                    alts.append(q)
            slots.append(alts)
    return slots


# ============================================================
# attempts: eval cases of model-generated query attempts
# ============================================================

# narrow valid attempts: a Dte target plus role-level Delta or Moneyness
_VALID_ATTEMPTS = (
    ("LONG_CALL", "WHERE Dte ~ {d} AND Delta ~ {dc} LIMIT 5"),
    ("LONG_PUT", "WHERE Dte ~ {d} AND Delta ~ -{dc} LIMIT 5"),
    ("BULL_CALL_SPREAD", "WHERE Dte ~ {d} AND L.Delta ~ 0.50 AND S.Delta ~ {dc} "
                         "ORDER BY rr_ratio DESC LIMIT 10"),
    ("BEAR_CALL_SPREAD", "WHERE Dte ~ {d} AND S.Delta ~ {dc} AND L.Delta ~ 0.15 "
                         "HAVING net_credit > 0"),
    ("BEAR_PUT_SPREAD", "WHERE Dte ~ {d} AND L.Delta ~ -0.50 AND S.Delta ~ -{dc} "
                        "LIMIT 10"),
    ("STRADDLE", "WHERE Dte ~ {d} AND Moneyness = ATM"),
    ("STRANGLE", "WHERE Dte ~ {d} AND P.Delta ~ -{dc} AND C.Delta ~ {dc} "
                 "ORDER BY net_theta DESC LIMIT 5"),
    ("CALENDAR_CALL", "WHERE F.Dte ~ {d} AND B.Dte ~ {d2} AND Moneyness = ATM"),
    ("IRON_CONDOR", "WHERE Dte ~ {d} AND SC.Delta ~ {dc} AND LC.Delta ~ 0.10 "
                    "AND SP.Delta ~ -{dc} AND LP.Delta ~ -0.10 "
                    "HAVING net_credit > 0 ORDER BY max_loss ASC LIMIT 10"),
    ("BUTTERFLY_CALL", "WHERE Dte ~ {d} AND L1.Delta ~ 0.60 AND S.Moneyness = ATM "
                       "AND L2.Delta ~ {dc} LIMIT 5"),
)

# one template list per error stage the engine reports, plus empty results
_FAILING_ATTEMPTS = {
    "lex": ("SELECT STRADDLE FROM {u} WHERE Dte ~ 30; LIMIT 5",
            "SELECT BULL_CALL_SPREAD FROM {u} WHERE Delta > 0.3 & Dte ~ 30",
            "SELECT LONG_CALL FROM {u} WHERE Dte ~ 30 AND Delta ~ $0.3"),
    "parse": ("SELECT BULL CALL SPREAD FROM {u}",
              "SELECT STRANGLE {u} WHERE Dte ~ 30",
              "SELECT IRON_CONDOR FROM {u} WHERE Dte ~",
              "SELECT LONG_PUT FROM {u} LIMIT five",
              "SELECT STRADDLE FROM {u} WHERE Dte BETWEEN 20 AND 40"),
    "validate": ("SELECT BUTTERFLY FROM {u} WHERE Dte ~ 30",
                 "SELECT IRON_CONDOR FROM {u} WHERE OpenInterest > 100",
                 "SELECT BULL_CALL_SPREAD FROM {u} WHERE X.Delta < 0.2",
                 "SELECT BUTTERFLY_CALL FROM {u} WHERE Moneyness > ATM",
                 "SELECT STRADDLE FROM {u} HAVING Delta > 0"),
    "mismatch": ("SELECT STRADDLE FROM {other} WHERE Dte ~ 30 AND Moneyness = ATM",
                 "SELECT LONG_CALL FROM {other} WHERE Dte ~ 30 AND Delta ~ 0.3 LIMIT 5"),
    "assemble": ("SELECT IRON_CONDOR FROM {u}",
                 "SELECT BUTTERFLY_CALL FROM {u} HAVING rr_ratio > 1",
                 "SELECT IRON_CONDOR FROM {u} WHERE Dte > 20 HAVING net_credit > 0"),
    "empty": ("SELECT STRADDLE FROM {u} WHERE Dte > 900",
              "SELECT BULL_CALL_SPREAD FROM {u} WHERE Dte ~ 30 AND L.Delta ~ 0.50 "
              "AND S.Delta ~ 0.30 HAVING net_debit < 0",
              "SELECT LONG_CALL FROM {u} WHERE Dte ~ 30 AND Delta > 1.5"),
}

# a block of ten cases with fixed shares of each failure kind; each entry
# lists the kinds of the case's attempts in order
_CASE_BLOCK = (
    ("valid",), ("valid",), ("valid",), ("valid",),
    ("parse", "valid"), ("validate", "valid"), ("mismatch", "valid"),
    ("assemble", "empty", "valid"),
    ("lex", "empty"),
    ("assemble", "parse", "validate"),
)
_CHAIN_CYCLE = ("tsla.csv", "spy.csv", "tsla.csv", "qqq.jsonl")
ATTEMPT_VALID_ALTERNATIVES = 24


def attempt_pool() -> dict[str, dict[str, list[str]]]:
    """Per chain file, per attempt kind: the attempt texts a case may use."""
    rng = random.Random(POOL_SEED + 1)
    pool: dict[str, dict[str, list[str]]] = {}
    for name, spec in ATTEMPT_CHAINS.items():
        u = spec.underlying
        other = next(s.underlying for s in ATTEMPT_CHAINS.values() if s.underlying != u)
        dtes = list(spec.dtes)
        valid: list[str] = []
        while len(valid) < ATTEMPT_VALID_ALTERNATIVES:
            family, where = rng.choice(_VALID_ATTEMPTS)
            d = rng.choice(dtes[:-1])
            d2 = rng.choice([x for x in dtes if x > d])
            text = f"SELECT {family} FROM {u} " + where.format(
                d=d, d2=d2, dc=rng.choice(("0.20", "0.25", "0.30", "0.35")))
            if text not in valid:
                valid.append(text)
        kinds = {"valid": valid}
        for kind, templates in _FAILING_ATTEMPTS.items():
            kinds[kind] = [t.format(u=u, other=other) for t in templates]
        pool[name] = kinds
    return pool


# ============================================================
# backtest: run --out then backtest over a spot path
# ============================================================

BACKTEST_QUERIES = (
    "SELECT BULL_CALL_SPREAD FROM AAPL WHERE Dte ~ 30 HAVING net_debit < 800",
    "SELECT BEAR_PUT_SPREAD FROM AAPL WHERE Dte ~ 45 AND L.Delta < -0.3 "
    "HAVING max_loss < 800",
    "SELECT STRADDLE FROM AAPL WHERE Dte > 29",
    "SELECT STRANGLE FROM AAPL WHERE Dte ~ 60 AND P.Delta > -0.35 AND C.Delta < 0.35",
    "SELECT CALENDAR_CALL FROM AAPL WHERE F.Dte > 29 AND Moneyness = OTM",
    "SELECT IRON_CONDOR FROM AAPL WHERE Dte ~ 45 AND SC.Delta ~ 0.25 "
    "AND LC.Delta ~ 0.10 AND SP.Delta ~ -0.25 AND LP.Delta ~ -0.10 "
    "HAVING net_credit > 100",
    "SELECT BEAR_CALL_SPREAD FROM AAPL WHERE Dte ~ 90 HAVING max_loss < 600",
    "SELECT BUTTERFLY_CALL FROM AAPL WHERE Dte ~ 60 AND L1.Delta < 0.7 "
    "AND L2.Delta > 0.2 AND S.Moneyness = OTM HAVING net_debit < 300",
)
IV_POLICIES = ("sticky_entry", "snapshot")


def backtest_variant(seed: int) -> int:
    return seed % BACKTEST_VARIANTS


# ============================================================
# Writing a run's inputs
# ============================================================


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_jsonl(path: str, rows: list[dict]) -> None:
    _write_text(path, "".join(json.dumps(r) + "\n" for r in rows))


def _prices_only(snapshot):
    """The snapshot with iv and Greeks blanked, as a quote feed delivers it."""
    records = tuple(dataclasses.replace(r, iv=None, delta=None, gamma=None,
                                        vega=None, theta=None)
                    for r in snapshot.records)
    return dataclasses.replace(snapshot, records=records)


def _scan_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for alts in scan_pool():
        picks = rng.sample(alts, SCAN_PICKS) if len(alts) > 1 else alts * SCAN_PICKS
        ops.extend({"query": q} for q in picks)
    rng.shuffle(ops)
    return ops


def _attempt_cases(seed: int) -> list[dict]:
    rng = random.Random(seed)
    pool = attempt_pool()
    decks: dict[tuple[str, str], list[str]] = {}

    def draw(chain: str, kind: str) -> str:
        # a shuffled deck per (chain, kind): every seed uses each attempt
        # of the pool about equally often, so cost per case stays level
        deck = decks.setdefault((chain, kind), [])
        if not deck:
            deck.extend(pool[chain][kind])
            rng.shuffle(deck)
        return deck.pop()

    cases = []
    for i in range(ATTEMPT_CASES):
        chain = _CHAIN_CYCLE[i % len(_CHAIN_CYCLE)]
        kinds = _CASE_BLOCK[(i // len(_CHAIN_CYCLE)) % len(_CASE_BLOCK)]
        attempts = [draw(chain, k) for k in kinds]
        valid = next((a for a in attempts if a in pool[chain]["valid"]), attempts[-1])
        cases.append({"chain": chain, "attempts": attempts,
                      "gold_strategy": valid.split()[1]})
    rng.shuffle(cases)
    return [{"id": f"c{i:04d}", "intent": f"seeded case {i}",
             "gold_strategy": c["gold_strategy"], "chain": c["chain"],
             "attempts": c["attempts"]} for i, c in enumerate(cases)]


def _backtest_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    queries = list(BACKTEST_QUERIES)
    rng.shuffle(queries)
    # policies alternate op by op; each query runs under both per pass
    first = rng.randrange(2)
    ops = []
    for i, q in enumerate(queries):
        for j in range(2):
            ops.append({"query": q, "iv_policy": IV_POLICIES[(first + i + j) % 2]})
    return ops


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write one run's input files into out_dir; returns its manifest.

    The same (workload, seed) always yields byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "scan":
        snap = SCAN_CHAIN.snapshot()
        chain_mod.save_snapshot(snap, os.path.join(out_dir, "tsla.csv"))
        ops = _scan_ops(seed)
        _write_jsonl(os.path.join(out_dir, "ops.jsonl"), ops)
        manifest.update(chains={"tsla.csv": len(snap.records)},
                        sizes={"records": len(snap.records), "queries": len(ops)})
    elif workload == "attempts":
        records = {}
        for name, spec in ATTEMPT_CHAINS.items():
            snap = spec.snapshot()
            chain_mod.save_snapshot(snap, os.path.join(out_dir, name))
            records[name] = len(snap.records)
        cases = _attempt_cases(seed)
        _write_jsonl(os.path.join(out_dir, "cases.jsonl"), cases)
        manifest.update(chains=records, sizes={
            "records": records, "cases": len(cases),
            "attempts": sum(len(c["attempts"]) for c in cases)})
    elif workload == "backtest":
        variant = backtest_variant(seed)
        spec = BACKTEST_CHAIN
        entry = spec.snapshot()
        chain_mod.save_snapshot(_prices_only(entry), os.path.join(out_dir, "chain.jsonl"))
        levels = chain_mod.generate_path(spec.spot, 0.05, 0.35, BACKTEST_DAYS,
                                         seed=1000 + variant)
        lines = ["date,close"]
        days = [AS_OF + dt.timedelta(days=k) for k in range(BACKTEST_DAYS + 1)]
        for day, close in zip(days, levels):
            lines.append(f"{day.isoformat()},{close!r}")
        _write_text(os.path.join(out_dir, "spots.csv"), "\n".join(lines) + "\n")
        expiries = [AS_OF + dt.timedelta(days=d) for d in BACKTEST_SNAPSHOT_DTES]
        snap_dir = os.path.join(out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        snapshot_files = []
        for day, close in zip(days, levels):
            name = f"{day.isoformat()}.csv"
            chain_mod.save_snapshot(spec.snapshot(as_of=day, spot=close,
                                                  expiries=expiries),
                                    os.path.join(snap_dir, name))
            snapshot_files.append(name)
        ops = _backtest_ops(seed)
        _write_jsonl(os.path.join(out_dir, "ops.jsonl"), ops)
        per_snapshot = 2 * len(expiries) * len(spec.strike_grid())
        manifest.update(
            chains={"chain.jsonl": len(entry.records)}, variant=variant,
            entry=AS_OF.isoformat(),
            exit=(AS_OF + dt.timedelta(days=BACKTEST_DAYS)).isoformat(),
            snapshots=snapshot_files,
            sizes={"records": len(entry.records), "queries": len(ops),
                   "days": len(days), "snapshot_records": per_snapshot})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_text(os.path.join(out_dir, "manifest.json"),
                json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest

