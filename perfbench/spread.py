"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scan --seeds 1-10

For every end-to-end metric, prints the median over the runs and the
inter-quartile distance as a share of that median (statistics.quantiles,
n=4), next to the metric's bound from BENCHMARK.json. Each run measures
for BENCHMARK.json's run_seconds; runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        s = spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:16s} median {statistics.median(vals):12.6g}  spread {s:7.4f}  "
              f"bound {bounds.get(name, float('nan')):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
