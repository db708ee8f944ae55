"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by run.py, one at a time. Prints "ready" on stdout once set-up is
done; the parent times spawn -> ready as set-up. Modes:

  setup  exit right after set-up (a set-up time sample)
  run    untraced timed loop: whole passes over the op list until
         --seconds have gone by and at least MIN_OPS ops have run
  trace  every op of the list once untraced and once traced

Results go to --out as JSON; spans of a traced run go next to it (.npz).
"""

import argparse
import json
import resource
import sys
import time
import traceback

from spans import SETUP_OP, Patched, Tracer, wrap_points, write_summary
from stats import min_samples

# enough ops that latency_p90_ms has its tail samples
MIN_OPS = min_samples(90)
# the timed loop stops here even mid-pass or short of MIN_OPS, so a run
# always ends inside the harness's per-run limit
HARD_STOP_S = 120.0


def _call(workload, op, tracer):
    """workload.run(op), inside an "op" span when tracing."""
    if tracer is None:
        return workload.run(op)
    idx = tracer.open("op")
    try:
        return workload.run(op)
    finally:
        tracer.close(idx)


def _run_one(workload, op, expected, failures: list, index: int,
             tracer: Tracer | None = None) -> float:
    """Time one op from outside; record a failure if its outcome differs.

    Only workload.run is timed (and spanned); the outcome check is not.
    """
    start = time.perf_counter()
    try:
        raw = _call(workload, op, tracer)
    except Exception as exc:  # an op must never raise: count it and go on
        elapsed = time.perf_counter() - start
        failures.append(f"op {index}: raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    got = workload.outcome(raw)
    if got != expected:
        failures.append(f"op {index}: outcome {got!r} != expected {expected!r}")
    return elapsed


def timed_loop(workload, ops, expected, seconds: float) -> dict:
    """Whole passes over ops, so every run weighs each op of its list alike."""
    latencies: list[float] = []
    failures: list[str] = []
    n = len(ops)
    start = time.perf_counter()
    i = 0
    while True:
        latencies.append(_run_one(workload, ops[i % n], expected[i % n], failures, i))
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if i % n == 0 and elapsed >= seconds and i >= MIN_OPS:
            break
    return {"latencies": latencies, "wall_s": time.perf_counter() - start,
            "passes": i / n, "failures": failures}


def traced_passes(workload, tracer: Tracer, points, ops, expected) -> dict:
    """Each op once untraced and once traced; the order alternates by op so
    that warm-up favours neither side of the overhead ratio."""
    failures: list[str] = []
    untraced = 0.0
    for i, (op, exp) in enumerate(zip(ops, expected)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                untraced += _run_one(workload, op, exp, failures, i)
                continue
            tracer.op_id = i
            with Patched(points):
                _run_one(workload, op, exp, failures, i, tracer)
    tracer.op_id = SETUP_OP
    return {"untraced_op_s": untraced, "ops": len(ops), "failures": failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out")
    args = p.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        idx = tracer.open("import")
    import workloads  # imports oql
    if tracer is not None:
        tracer.close(idx)
        points = wrap_points(tracer)
        with Patched(points):
            workload = workloads.WORKLOADS[args.workload](args.inputs)
    else:
        workload = workloads.WORKLOADS[args.workload](args.inputs)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    ops = workload.ops()
    with open(f"{args.inputs}/expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    if len(expected) != len(ops):
        raise SystemExit(f"expected.json holds {len(expected)} outcomes for {len(ops)} ops")
    if args.mode == "run":
        result = timed_loop(workload, ops, expected, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    else:
        result = traced_passes(workload, tracer, points, ops, expected)
        tracer.save(args.out.removesuffix(".json") + ".npz")
        write_summary(args.out, tracer, result)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
