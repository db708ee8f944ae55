import json
import os

import inputs


def _read_all(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in ("scan", "attempts", "backtest"):
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        inputs.write_inputs(workload, 7, str(a))
        inputs.write_inputs(workload, 7, str(b))
        assert _read_all(a) == _read_all(b)


def test_seeds_change_the_ops(tmp_path):
    ops = {}
    for seed in (1, 2):
        d = tmp_path / f"s{seed}"
        inputs.write_inputs("scan", seed, str(d))
        ops[seed] = (d / "ops.jsonl").read_text()
    assert ops[1] != ops[2]
    assert inputs.backtest_variant(1) != inputs.backtest_variant(2)


def test_manifest_reports_input_sizes(tmp_path):
    m = inputs.write_inputs("attempts", 3, str(tmp_path))
    assert m["sizes"]["records"]["tsla.csv"] == 1694
    assert m["sizes"]["cases"] == inputs.ATTEMPT_CASES
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == m
    assert all(1 <= len(json.loads(line)["attempts"]) <= 3
               for line in (tmp_path / "cases.jsonl").read_text().splitlines())


def test_backtest_entry_chain_carries_prices_only(tmp_path):
    inputs.write_inputs("backtest", 0, str(tmp_path))
    lines = (tmp_path / "chain.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    assert rec["price"] > 0 and rec["iv"] is None and rec["delta"] is None
    assert len(os.listdir(tmp_path / "snapshots")) == inputs.BACKTEST_DAYS + 1
