"""Command-line interface.

Subcommands: parse, check, run, backtest, gen-chain, gen-path, eval, repl.
Machine-readable JSON goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 any error, 2 a valid query that returned zero strategies.
Configuration precedence is flags > --config file (JSON, same keys as the
config dataclass) > defaults; $OQL_CONFIG names a default config file.
Each command imports the chain, engine, backtest and eval modules it
uses, so parse and check run without numpy.
"""

import argparse
import datetime as dt
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, fields

from .catalog import catalog_table, catalog_to_json, lookup, schema_table, validate
from .config import OUTPUT_FORMATS, OUTPUT_MODES, RunConfig, load_config
from .errors import BacktestError, OqlError
from .serialize import dumps, format_date, format_number, parse_date
from .syntax import QueryAst, parse_text, pretty_print

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2
_MAX_RANGE_STRIKES = 100_000  # points one --strike-range may hold


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


# ============================================================
# Config plumbing
# ============================================================

_CONFIG_FLAGS = (
    ("--epsilon", "epsilon", float, "relative half-width of the ~ band"),
    ("--epsilon-abs", "epsilon_abs", float, "absolute ~ band at target 0"),
    ("--atm-band", "atm_band", float, "|K-S|/S threshold for ATM"),
    ("--multiplier", "multiplier", float, "contract multiplier"),
    ("--rate", "rate", float, "annualized risk-free rate"),
    ("--cap", "combinatorial_cap", int, "max raw candidate product"),
)


def _add_config_options(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE",
                       help="JSON config file (default: $OQL_CONFIG)")
    for flag, dest, typ, help_text in _CONFIG_FLAGS:
        group.add_argument(flag, dest=dest, type=typ, default=None,
                           help=help_text)
    group.add_argument("--output-mode", dest="output_mode",
                       choices=OUTPUT_MODES, default=None,
                       help="results serialization shape")
    group.add_argument("--format", dest="output_format",
                       choices=OUTPUT_FORMATS, default=None,
                       help="stdout rendering")
    group.add_argument("--symmetric-wings", dest="symmetric_wings",
                       action="store_true", default=None,
                       help="require equidistant butterfly wings")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(getattr(args, "config", None), overrides)


def _arg(read, what: str, want: str = "", ok=lambda value: True):
    """An argparse type: the value read(text), refused unless ok(value)."""
    def parse(text: str):
        try:
            value = read(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"bad {what} {text!r}" + (f"; want {want}" if want else ""))
    return parse


def _items(read):
    """Comma-separated values, each read by read."""
    return lambda text: [read(s) for s in text.split(",") if s.strip()]


def _positive(x: float) -> bool:
    return 0.0 < x < math.inf


_DATE = _arg(parse_date, "date", "YYYY-MM-DD")
_FINITE = _arg(float, "value", "a finite number", math.isfinite)
_POSITIVE = _arg(float, "value", "a finite number > 0", _positive)
_COUNT = _arg(int, "value", "a whole number >= 0", lambda n: n >= 0)


def _query_text(args: argparse.Namespace) -> str:
    if getattr(args, "query_file", None):
        with open(args.query_file, "r", encoding="utf-8") as fh:
            return fh.read()
    if getattr(args, "query", None):
        return args.query
    raise OqlError("no query given; pass QUERY or --query-file")


def _ast_to_json(ast: QueryAst) -> dict:
    """The AST's fields; a HAVING condition shows only its set operands."""
    doc = asdict(ast)
    doc["having"] = [{k: v for k, v in c.items() if v is not None}
                     for c in doc["having"]]
    return doc


# ============================================================
# Subcommands
# ============================================================

# A subcommand's exit code, JSON document, and table renderer; with no
# renderer, --format table prints the document
Outcome = tuple[int, dict | None, Callable[[], str] | None]


def cmd_parse(args: argparse.Namespace, config: RunConfig) -> Outcome:
    ast = parse_text(_query_text(args))
    doc = {
        "query": pretty_print(ast),
        "ast": _ast_to_json(ast),
        "config": config.to_json_dict(),
    }
    return EXIT_OK, doc, lambda: doc["query"]


def cmd_check(args: argparse.Namespace, config: RunConfig) -> Outcome:
    if args.schemas:
        return (EXIT_OK,
                {"schemas": catalog_to_json(config.symmetric_wings),
                 "config": config.to_json_dict()},
                lambda: catalog_table(config.symmetric_wings))
    ast = parse_text(_query_text(args))
    vq = validate(ast, symmetric_wings=config.symmetric_wings)
    doc = {
        "query": pretty_print(ast),
        "strategy": vq.schema.name,
        "underlying": ast.underlying,
        "valid": True,
        "per_role_conditions": {
            rid: len(conds) for rid, conds in vq.per_role_conditions.items()
        },
        "config": config.to_json_dict(),
    }
    return (EXIT_OK, doc,
            lambda: f"valid: {doc['query']}\n{schema_table(vq.schema)}")


def cmd_run(args: argparse.Namespace, config: RunConfig) -> Outcome:
    from .chain import load_snapshot
    from .engine import execute, result_to_json, result_to_table
    snapshot = load_snapshot(args.chain)
    if snapshot.excluded:
        _diag(snapshot.exclusion_summary())
    result = execute(_query_text(args), snapshot, config)
    doc = result_to_json(result, config)
    return (EXIT_OK if result.stats.returned else EXIT_EMPTY, doc,
            lambda: result_to_table(result))


def cmd_backtest(args: argparse.Namespace, config: RunConfig) -> Outcome:
    from . import backtest as bt
    with open(args.results, "r", encoding="utf-8") as fh:
        try:
            results_doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise BacktestError(f"{args.results} is not a JSON document: {exc}") from None
    positions = bt.positions_from_results(results_doc)
    spots = bt.load_spots(args.spots)
    reports = bt.run_cohorts(positions, spots, args.entry, args.exit, config)
    doc = {
        "entry": format_date(args.entry),
        "exit": format_date(args.exit),
        "iv_policy": "sticky_entry",
        "config": config.to_json_dict(),
        "cohorts": {name: rep.to_json_dict() for name, rep in reports.items()},
    }
    return EXIT_OK, doc, lambda: "\n\n".join(
        f"cohort: {name}\n{reports[name].to_table()}" for name in ("all", "top"))


def _parse_strikes(args: argparse.Namespace) -> list[float]:
    if args.strikes:
        return args.strikes
    if args.strike_range:
        try:
            lo_s, hi_s, step_s = args.strike_range.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
        except ValueError:
            raise OqlError(
                f"--strike-range wants LO:HI:STEP, got {args.strike_range!r}"
            ) from None
        # a step lost to rounding, or an infinite end, would never finish
        if not (-math.inf < lo <= hi < math.inf and lo + step > lo):
            raise OqlError(f"bad strike range {args.strike_range!r}")
        # refused before the loop, which would take a point per step
        if round(hi * 1000) >= 10 ** 8:
            raise OqlError(f"bad strike range {args.strike_range!r}: a strike "
                           "of 100000 or more does not fit the ticker's 8 digits")
        if step < 0.001:
            raise OqlError(f"bad strike range {args.strike_range!r}: strikes "
                           "under 0.001 apart share a ticker")
        if (hi - lo) / step + 1 > _MAX_RANGE_STRIKES:
            raise OqlError(f"bad strike range {args.strike_range!r}: more than "
                           f"{_MAX_RANGE_STRIKES} strikes")
        strikes = []
        k = lo
        while k <= hi + 1e-9:
            strikes.append(round(k, 6))
            k += step
        return strikes
    raise OqlError("pass --strikes or --strike-range")


def _parse_expiries(args: argparse.Namespace, as_of) -> list:
    if args.expiries:
        return args.expiries
    if args.dtes:
        return [as_of + dt.timedelta(days=d) for d in args.dtes]
    raise OqlError("pass --expiries or --dtes")


def _refuse_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise OqlError(f"{path} exists; pass --force to overwrite")


def cmd_gen_chain(args: argparse.Namespace, config: RunConfig) -> Outcome:
    from .chain import generate_synthetic, save_snapshot
    _refuse_overwrite(args.out, args.force)
    as_of = args.as_of
    try:
        snapshot = generate_synthetic(
            underlying=args.underlying.upper(),
            as_of=as_of,
            spot=args.spot,
            rate=config.rate,
            expiries=_parse_expiries(args, as_of),
            strikes=_parse_strikes(args),
            base_vol=args.base_vol,
            skew=args.skew,
            term=args.term,
            seed=args.seed,
        )
    except (ValueError, OverflowError) as exc:  # a date or strike past range
        raise OqlError(f"cannot generate the chain: {exc}") from None
    save_snapshot(snapshot, args.out)
    return EXIT_OK, {
        "out": args.out,
        "underlying": snapshot.underlying,
        "as_of": format_date(snapshot.as_of),
        "spot": snapshot.spot,
        "rate": snapshot.rate,
        "records": len(snapshot.records),
        "seed": args.seed,
        "config": config.to_json_dict(),
    }, None


def cmd_gen_path(args: argparse.Namespace, config: RunConfig) -> Outcome:
    from .chain import generate_path
    _refuse_overwrite(args.out, args.force)
    start = args.start
    if args.days > (dt.date.max - start).days:
        raise OqlError(f"--days {args.days} runs past {format_date(dt.date.max)}")
    try:
        levels = generate_path(args.spot, args.mu, args.sigma,
                               args.days, args.seed)
    except ValueError as exc:
        raise OqlError(f"cannot generate the path: {exc}") from None
    lines = ["date,close"]
    for offset, close in enumerate(levels):
        day = start + dt.timedelta(days=offset)
        lines.append(f"{format_date(day)},{format_number(close)}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK, {
        "out": args.out,
        "start": format_date(start),
        "days": args.days,
        "points": len(levels),
        "seed": args.seed,
        "config": config.to_json_dict(),
    }, None


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> Outcome:
    from . import evalkit
    cases = evalkit.load_cases(args.cases)
    base_dir = os.path.dirname(os.path.abspath(args.cases))
    outcomes, report = evalkit.evaluate(
        cases, base_dir=base_dir, config=config,
        k=evalkit.DEFAULT_K if args.k is None else args.k)
    doc = {
        **report,
        "outcomes": [{k: v for k, v in vars(o).items() if k != "attempt_errors"}
                     for o in outcomes],
        "config": config.to_json_dict(),
    }

    def table() -> str:
        def fmt(x, spec=".4f"):
            return "-" if x is None else format(x, spec)

        lines = [f"{o.case_id:<16} k={fmt(o.k_first_success, ''):<3} "
                 f"rows={fmt(o.rows_at_success, '')}" for o in outcomes]
        lines.append(
            f"VR {fmt(report['vr'])}  SM {fmt(report['sm_conditional'])} "
            f"(uncond {fmt(report['sm_unconditional'])})  "
            f"Eff {fmt(report['eff'])}  AvgRows {fmt(report['avg_rows'])}  "
            f"n={report['n']} K={report['k']}")
        return "\n".join(lines)

    return EXIT_OK, doc, table


_REPL_HELP = """\
commands:
  :help            show this message
  :schema NAME     show one strategy schema (no NAME: list all)
  :config          show the effective configuration
  :quit            leave the repl
anything else is executed as a query against the loaded chain"""


def cmd_repl(args: argparse.Namespace, config: RunConfig) -> Outcome:
    from .chain import load_snapshot
    from .engine import execute, result_to_table
    snapshot = load_snapshot(args.chain)
    if snapshot.excluded:
        _diag(snapshot.exclusion_summary())
    print(f"loaded {len(snapshot.records)} contracts for "
          f"{snapshot.underlying} as of {format_date(snapshot.as_of)}")
    while True:
        print("oql> ", end="", flush=True)
        line = sys.stdin.readline()
        if line == "":  # EOF
            print()
            return EXIT_OK, None, None
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line.split()
            command = parts[0]
            if command == ":quit":
                return EXIT_OK, None, None
            if command == ":help":
                print(_REPL_HELP)
            elif command == ":config":
                sys.stdout.write(dumps(config.to_json_dict()))
            elif command == ":schema":
                try:
                    if len(parts) > 1:
                        print(schema_table(lookup(parts[1], config.symmetric_wings)))
                    else:
                        print(catalog_table(config.symmetric_wings))
                except OqlError as exc:
                    _diag(f"error [{exc.stage}]: {exc}")
            else:
                _diag(f"unknown command {command}; try :help")
            continue
        try:
            result = execute(line, snapshot, config)
        except OqlError as exc:
            _diag(f"error [{exc.stage}]: {exc}")
            continue
        print(result_to_table(result))


# ============================================================
# Argument wiring
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oql",
        description="Compile and execute option strategy queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a query; print the AST")
    p.add_argument("query", nargs="?", help="query text")
    p.add_argument("--query-file", help="read the query from a file")
    _add_config_options(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="parse + validate against the catalog")
    p.add_argument("query", nargs="?", help="query text")
    p.add_argument("--query-file", help="read the query from a file")
    p.add_argument("--schemas", action="store_true",
                   help="print the strategy catalog instead")
    _add_config_options(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="execute a query against a chain snapshot")
    p.add_argument("query", nargs="?", help="query text")
    p.add_argument("--query-file", help="read the query from a file")
    p.add_argument("--chain", required=True, help="snapshot file (.csv/.jsonl)")
    p.add_argument("--out", dest="copy_to",
                   help="also write the JSON results to this file")
    _add_config_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("backtest", help="mark results over a spot series")
    p.add_argument("--results", required=True, help="results JSON from `oql run`")
    p.add_argument("--spots", required=True, help="CSV spot series (date,close)")
    p.add_argument("--entry", required=True, type=_DATE,
                   help="entry date YYYY-MM-DD")
    p.add_argument("--exit", required=True, type=_DATE,
                   help="exit date YYYY-MM-DD")
    _add_config_options(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("gen-chain", help="write a synthetic chain snapshot")
    p.add_argument("--out", required=True, help="target file (.csv/.jsonl)")
    p.add_argument("--underlying", required=True)
    p.add_argument("--as-of", required=True, type=_DATE,
                   help="snapshot date YYYY-MM-DD")
    p.add_argument("--spot", required=True, type=_POSITIVE)
    p.add_argument("--expiries", type=_arg(_items(parse_date), "date list"),
                   help="comma-separated expiry dates")
    p.add_argument("--dtes", type=_arg(_items(int), "days-to-expiry list",
                                       "whole numbers >= 1",
                                       lambda days: all(d >= 1 for d in days)),
                   help="comma-separated days-to-expiry")
    p.add_argument("--strikes", type=_arg(_items(float), "strike list",
                                          "finite numbers > 0",
                                          lambda ks: all(map(_positive, ks))),
                   help="comma-separated strikes")
    p.add_argument("--strike-range", help="LO:HI:STEP strike grid")
    p.add_argument("--base-vol", type=_FINITE, default=0.2)
    p.add_argument("--skew", type=_FINITE, default=0.0)
    p.add_argument("--term", type=_FINITE, default=0.0)
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing output file")
    _add_config_options(p)
    p.set_defaults(func=cmd_gen_chain)

    p = sub.add_parser("gen-path", help="write a synthetic daily spot series")
    p.add_argument("--out", required=True, help="target CSV")
    p.add_argument("--spot", required=True, type=_POSITIVE)
    p.add_argument("--mu", type=_FINITE, default=0.05, help="annualized drift")
    p.add_argument("--sigma", type=_arg(float, "value", "a finite number >= 0",
                                        lambda x: 0.0 <= x < math.inf),
                   default=0.2, help="annualized vol")
    p.add_argument("--days", required=True, type=_COUNT)
    p.add_argument("--start", required=True, type=_DATE,
                   help="first date YYYY-MM-DD")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing output file")
    _add_config_options(p)
    p.set_defaults(func=cmd_gen_path)

    p = sub.add_parser("eval", help="score attempt transcripts (JSONL cases)")
    p.add_argument("--cases", required=True, help="cases file (JSONL)")
    p.add_argument("--k", type=int, help="attempt budget per case")
    _add_config_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("--chain", required=True, help="snapshot file (.csv/.jsonl)")
    _add_config_options(p)
    p.set_defaults(func=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for empty results
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        config = _config_from_args(args)
        code, doc, table = args.func(args, config)
        as_table = config.output_format == "table" and table is not None
        copy_to = getattr(args, "copy_to", None)  # run --out
        # the document is rendered once, for the copy and for stdout
        text = dumps(doc) if doc is not None and (copy_to or not as_table) else None
        if copy_to:
            with open(copy_to, "w", encoding="utf-8") as fh:
                fh.write(text)
        if as_table:
            print(table())
        elif text is not None:
            sys.stdout.write(text)
        return code
    except OqlError as exc:
        _diag(f"error [{exc.stage}]: {exc}")
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_ERROR
    except (OSError, UnicodeDecodeError) as exc:  # a file that cannot be
        # opened, read or written, or whose text is not UTF-8
        _diag(f"error [io]: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
