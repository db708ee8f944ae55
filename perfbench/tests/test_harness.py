import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(run.HERE)


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in run.LAYER_METRICS]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in run.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_module_time_leaves_out_the_op_span_and_bounds_it():
    summary = {"op_s": 10.0, "op_self_s": {"op": 0.3, "engine.assemble": 6.0,
                                            "engine.compute_aggregates": 3.7}}
    assert run.module_time(summary) == pytest.approx(9.7)
    summary["op_self_s"] = {"op": 2.0, "engine.assemble": 8.0}
    with pytest.raises(run.BenchError):
        run.module_time(summary)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_workload_w_fidelity():
    assert run.check_workload_w()
