"""oql benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/run.py --check-w                   # workload-W fidelity
    python3 perfbench/run.py --record                    # rewrite the goldens

Run from the root of a checkout. Each workload run writes its seeded inputs
under perfbench/.work, then starts fresh child processes one at a time:
SETUP_SAMPLES - 1 that only set up, then one that sets up and runs whole
passes over the op list in a closed loop with one client until --seconds
have gone by (and at least MIN_OPS ops have run). Every
op's output is checked against the committed goldens. With --trace 1 a
single child runs every op of the list once untraced and once traced; the
per-layer metrics come from the traced runs and from set-up.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
"""

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from stats import min_samples, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("scan", "attempts", "backtest")
SETUP_SAMPLES = 7
MIN_OPS = min_samples(90)
SETUP_TIMEOUT_S = 60.0
RUN_SLACK_S = 150.0
# most of a traced op's time must lie in module spans: at most this share
# may be the workload's own glue (the self time of the "op" span)
MAX_UNCOVERED_SHARE = 0.05

# per-layer metrics: span self times (".s", summed over set-up and the
# traced pass), call counts (".calls") and counts from ExecutionStats
LAYER_METRICS = (
    ("import.s", "s"),
    ("chain.load_snapshot.s", "s"),
    ("chain.enrich.s", "s"),
    ("chain.enrich.calls", "count"),
    ("chain.records", "count"),
    ("chain.excluded", "count"),
    ("syntax.parse_text.s", "s"),
    ("syntax.pretty_print.s", "s"),
    ("catalog.validate.s", "s"),
    ("engine.execute.s", "s"),
    ("engine.filter_legs.s", "s"),
    ("engine.candidates", "count"),
    ("engine.assemble.s", "s"),
    ("engine.raw_product", "count"),
    ("engine.assembled", "count"),
    ("engine.assembled_per_raw", "ratio"),
    ("engine.compute_aggregates.s", "s"),
    ("engine.compute_aggregates.calls", "count"),
    ("pricing.payoff_extremes.s", "s"),
    ("pricing.breakevens.s", "s"),
    ("engine.eval_strat_condition.s", "s"),
    ("engine.having_passed", "count"),
    ("engine.having_pass_frac", "ratio"),
    ("engine.order_and_limit.s", "s"),
    ("engine.returned", "count"),
    ("engine.returned_per_assembled", "ratio"),
    ("engine.survivors.s", "s"),
    ("engine.result_to_json.s", "s"),
    ("serialize.dumps.s", "s"),
    ("serialize.bytes_out", "bytes"),
    ("pricing.bsm_price.s", "s"),
    ("pricing.bsm_price.calls", "count"),
    ("pricing.implied_vol.s", "s"),
    ("pricing.implied_vol.calls", "count"),
    ("pricing.greeks.s", "s"),
    ("pricing.greeks.calls", "count"),
    ("backtest.load_spots.s", "s"),
    ("backtest.positions_from_results.s", "s"),
    ("backtest.run_cohorts.s", "s"),
    ("backtest.mark_path.sticky_entry.s", "s"),
    ("backtest.mark_path.snapshot.s", "s"),
    ("backtest.position_days", "count"),
    ("backtest.report.s", "s"),
    ("backtest.to_json_dict.s", "s"),
    ("evalkit.run_case.s", "s"),
    ("evalkit.attempts", "count"),
    ("evalkit.attempt_errors.lex", "count"),
    ("evalkit.attempt_errors.parse", "count"),
    ("evalkit.attempt_errors.validate", "count"),
    ("evalkit.attempt_errors.assemble", "count"),
    ("evalkit.attempt_errors.empty", "count"),
    ("op.s", "s"),
    ("trace.ops", "count"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# named shares of traced op time that the workload design rests on
SHARE_GROUPS = {
    "aggregate": ("engine.compute_aggregates", "pricing.payoff_extremes",
                  "pricing.breakevens"),
    "enrich+filter+parse": ("chain.enrich", "engine.filter_legs",
                            "syntax.parse_text", "syntax.pretty_print",
                            "catalog.validate"),
    "mark_path+bsm_price": ("backtest.mark_path.sticky_entry",
                            "backtest.mark_path.snapshot", "pricing.bsm_price"),
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, inputs_dir: str, mode: str, seconds: float = 0.0,
          out: str | None = None) -> tuple[float, subprocess.Popen]:
    """Start a child; return (seconds from spawn to its "ready" line, process)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--inputs", inputs_dir, "--mode", mode, "--seconds", str(seconds)]
    if out:
        cmd += ["--out", out]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=_child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError(f"{workload} child ({mode}) did not get ready")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return setup_s, proc


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child did not finish in time") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"child exited with code {code}")


def prepare(workload: str, seed: int) -> tuple[str, dict]:
    """Write the run's inputs and expected outcomes; return (dir, manifest)."""
    import golden
    import inputs

    inputs_dir = os.path.join(WORK, workload)
    if os.path.isdir(inputs_dir):
        shutil.rmtree(inputs_dir)
    manifest = inputs.write_inputs(workload, seed, inputs_dir)
    try:
        expected = golden.expected_outcomes(workload, inputs_dir, manifest)
    except KeyError as exc:
        raise BenchError(f"no golden outcome for {exc}; re-record with --record") from None
    with open(os.path.join(inputs_dir, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    if workload == "backtest":
        with open(os.path.join(inputs_dir, "ops.jsonl"), encoding="utf-8") as fh:
            ops = [json.loads(line) for line in fh if line.strip()]
        manifest["sizes"]["positions_per_pass"] = golden.backtest_positions(ops)
    return inputs_dir, manifest


def measure(workload: str, inputs_dir: str, seconds: float) -> dict:
    """Untraced run: set-up samples, then the timed closed loop."""
    setup_samples = []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, proc = spawn(workload, inputs_dir, "setup")
        setup_samples.append(setup_s)
        finish(proc, SETUP_TIMEOUT_S)
    out = os.path.join(inputs_dir, "run.json")
    setup_s, proc = spawn(workload, inputs_dir, "run", seconds, out)
    setup_samples.append(setup_s)
    finish(proc, seconds + RUN_SLACK_S)
    with open(out, encoding="utf-8") as fh:
        run = json.load(fh)
    lat = run["latencies"]
    n = len(lat)
    if n < MIN_OPS:
        raise BenchError(f"only {n} ops ran; p90 needs {MIN_OPS}")
    return {
        "passes": run["passes"],
        "metrics": {
            "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
            "ops_per_s": (n / run["wall_s"], "ops/s", n),
            "latency_p50_ms": (1000.0 * percentile(lat, 50), "ms", n),
            "latency_p90_ms": (1000.0 * percentile(lat, 90), "ms", n),
            "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        },
        "attempted": n,
        "failures": run["failures"],
        "wall_s": run["wall_s"],
    }


def _layer_values(summary: dict) -> dict:
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values = {
        "engine.assembled_per_raw": ratio("engine.assembled", "engine.raw_product"),
        "engine.having_pass_frac": ratio("engine.having_passed", "engine.assembled"),
        "engine.returned_per_assembled": ratio("engine.returned", "engine.assembled"),
        "trace.ops": summary["ops"],
        "trace.op_s": summary["op_s"],
        "trace.untraced_op_s": summary["untraced_op_s"],
        "trace.overhead_ratio": summary["op_s"] / summary["untraced_op_s"],
    }
    for name, _unit in LAYER_METRICS:
        if name in values:
            continue
        if name.endswith(".s"):
            values[name] = self_s.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-6], 0)
        else:
            values[name] = counts.get(name, 0)
    return values


def layer_shares(summary: dict) -> dict:
    """Share of traced op time per span name, per module and per named group."""
    op_s = summary["op_s"]
    by_name = {n: s / op_s for n, s in summary["op_self_s"].items() if s > 0.0}
    by_module: dict = {}
    for name, share in by_name.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + share
    groups = {g: sum(by_name.get(n, 0.0) for n in names)
              for g, names in SHARE_GROUPS.items()}
    engine = sum(share for name, share in by_name.items()
                 if name.split(".")[0] in ("engine", "syntax", "catalog")
                 or name in SHARE_GROUPS["aggregate"])
    groups["engine (query path)"] = engine
    return {"by_name": by_name, "by_module": by_module, "groups": groups}


def module_time(summary: dict) -> float:
    """Self time of the module spans within ops; the "op" span's own self
    time is the workload's glue, which may be at most MAX_UNCOVERED_SHARE."""
    op_s = summary["op_s"]
    covered = sum(s for name, s in summary["op_self_s"].items() if name != "op")
    if op_s - covered > MAX_UNCOVERED_SHARE * op_s:
        raise BenchError(f"module spans cover {covered:.4f} s of {op_s:.4f} s traced op "
                         f"time; over {MAX_UNCOVERED_SHARE:.0%} is outside every module")
    return covered


def trace_run(workload: str, inputs_dir: str) -> dict:
    out = os.path.join(inputs_dir, "trace.json")
    _, proc = spawn(workload, inputs_dir, "trace", 0.0, out)
    finish(proc, RUN_SLACK_S)
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    covered = module_time(summary)
    values = _layer_values(summary)
    return {
        "metrics": {name: (values[name], unit, summary["ops"]) for name, unit in LAYER_METRICS},
        "attempted": 2 * summary["ops"],
        "failures": summary["failures"],
        "shares": layer_shares(summary),
        "module_s": covered,
    }


def report_workload(workload: str, seed: int, manifest: dict, result: dict, traced: bool) -> None:
    sizes = " ".join(f"{k}={v}" for k, v in manifest["sizes"].items())
    print(f"== {workload} (seed {seed}; closed loop, 1 client) inputs: {sizes}")
    if "passes" in result:
        print(f"  timed phase: {result['attempted']} ops, {result['passes']:.2f} passes "
              f"over the op list, {result['wall_s']:.2f} s")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"  {name:36s} {value:>16.6g} {unit:6s} n={n}")
    failed = len(result["failures"])
    print(f"  {'failed_frac':36s} {failed / result['attempted']:>16.6g} {'fraction':6s} "
          f"n={result['attempted']}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    if traced:
        shares = result["shares"]
        op_s = result["metrics"]["trace.op_s"][0]
        print(f"  traced op time {op_s:.4f} s; module self times sum to "
              f"{result['module_s']:.4f} s ({100.0 * result['module_s'] / op_s:.2f}%, "
              f"the rest is workload glue); tracing overhead "
              f"{100.0 * (result['metrics']['trace.overhead_ratio'][0] - 1.0):+.1f}%")
        print("  share of op time by group:  " + "  ".join(
            f"{g} {100 * s:.1f}%" for g, s in shares["groups"].items()))
        print("  share of op time by module: " + "  ".join(
            f"{m} {100 * s:.1f}%" for m, s in sorted(shares["by_module"].items(),
                                                       key=lambda kv: -kv[1])))
        for name, share in sorted(shares["by_name"].items(), key=lambda kv: -kv[1])[:12]:
            print(f"    {name:40s} {100 * share:6.2f}%")


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "oql", "__init__.py")):
        raise BenchError(f"no oql sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    # the first import after a checkout compiles .pyc files; do it untimed
    for path in (SRC, HERE):
        if not compileall.compile_dir(path, quiet=1, workers=1):
            raise BenchError(f"cannot byte-compile {path}")


def check_workload_w() -> bool:
    """ROADMAP workload W: record count, raw products and assembled counts."""
    import inputs
    from oql import chain, engine
    from oql.catalog import validate
    from oql.config import RunConfig
    from oql.syntax import parse_text

    expected = ((1_867_404, 790_020), (1_771_561, 287_980),
                (717_409, 50_820), (717_409, 2_541))
    snap = chain.enrich(inputs.WORKLOAD_W.snapshot())
    ok = len(snap.records) == 1694
    print(f"workload W records: {len(snap.records)} (want 1694)")
    config = RunConfig(combinatorial_cap=10**12)
    for query, (want_raw, want_asm) in zip(inputs.BASELINE_QUERIES, expected):
        vq = validate(parse_text(query))
        start = time.perf_counter()
        rows, raw = engine.assemble(vq, engine.filter_legs(vq, snap, config), config)
        took = time.perf_counter() - start
        good = raw == want_raw and len(rows) == want_asm
        ok = ok and good
        print(f"  {'ok ' if good else 'BAD'} raw={raw} (want {want_raw}) "
              f"assembled={len(rows)} (want {want_asm}) {took:.2f}s  {vq.schema.name}")
        del rows
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-w", action="store_true", help="workload-W fidelity check")
    p.add_argument("--record", action="store_true", help="rewrite golden outcomes")
    args = p.parse_args(argv)
    try:
        check_checkout()
        if args.check_w:
            return 0 if check_workload_w() else 1
        if args.record:
            import golden
            golden.record(WORK)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in names:
            inputs_dir, manifest = prepare(workload, args.seed)
            if args.trace:
                result = trace_run(workload, inputs_dir)
            else:
                result = measure(workload, inputs_dir, args.seconds)
            report_workload(workload, args.seed, manifest, result, bool(args.trace))
            failed = len(result["failures"])
            totals["correct"] = totals["correct"] and failed == 0
            totals["attempted"] += result["attempted"]
            totals["failed"] += failed
            prefix = "" if len(names) == 1 else f"{workload}."
            for name, (value, unit, _n) in result["metrics"].items():
                totals["metrics"][prefix + name] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
