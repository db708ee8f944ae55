"""Expected op outcomes, recorded once from the program and committed.

scan and backtest ops are pinned by the sha256 of their output bytes;
attempts ops by the CaseOutcome fields (k, rows, selected strategy, and
the error stage of each failed attempt). Goldens cover every op the pools
in inputs.py can produce, so every seed's ops are checked.
"""

import json
import os

import inputs

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load(workload: str) -> dict:
    with open(_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def case_outcome(attempts: list[str], per_attempt: dict, k: int = 3) -> dict:
    """The CaseOutcome fields run_case must give, from single-attempt goldens."""
    stages: list[str] = []
    for idx, text in enumerate(attempts[:k], start=1):
        got = per_attempt[text]
        if "rows" in got:
            return {"k": idx, "rows": got["rows"], "strategy": got["strategy"],
                    "stages": stages}
        stages.append(got["stage"])
    return {"k": None, "rows": None, "strategy": None, "stages": stages}


def expected_outcomes(workload: str, inputs_dir: str, manifest: dict) -> list:
    """One expected outcome per op of a run, in op order.

    Raises KeyError when an op has no golden: the pools and the committed
    goldens disagree, and the run cannot check its outputs.
    """
    golden = load(workload)
    if workload == "attempts":
        with open(os.path.join(inputs_dir, "cases.jsonl"), encoding="utf-8") as fh:
            cases = [json.loads(line) for line in fh if line.strip()]
        return [case_outcome(c["attempts"], golden[c["chain"]]) for c in cases]
    with open(os.path.join(inputs_dir, "ops.jsonl"), encoding="utf-8") as fh:
        ops = [json.loads(line) for line in fh if line.strip()]
    if workload == "scan":
        return [golden[op["query"]] for op in ops]
    variant = golden["variants"][str(manifest["variant"])]
    return [variant[op["iv_policy"]][op["query"]] for op in ops]


def backtest_positions(ops: list[dict]) -> int:
    """Positions one pass over the backtest ops marks (rows of each result)."""
    positions = load("backtest")["positions"]
    return sum(positions[op["query"]] for op in ops)


def _write(workload: str, data: dict) -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(_path(workload), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record(work_dir: str) -> None:
    """Run every pool op in this process and write the golden files."""
    import workloads
    from oql.evalkit import EvalCase

    scan_dir = os.path.join(work_dir, "record-scan")
    inputs.write_inputs("scan", 0, scan_dir)
    scan = workloads.Scan(scan_dir)
    _write("scan", {q: scan.outcome(scan.run({"query": q}))
                    for alts in inputs.scan_pool() for q in alts})

    att_dir = os.path.join(work_dir, "record-attempts")
    inputs.write_inputs("attempts", 0, att_dir)
    att = workloads.Attempts(att_dir)
    per_chain: dict = {}
    for chain, kinds in inputs.attempt_pool().items():
        per_chain[chain] = {}
        for texts in kinds.values():
            for text in texts:
                case = EvalCase(id="record", intent="", gold_strategy="",
                                chain=chain, attempts=(text,))
                out = att.outcome(att.run(case))
                per_chain[chain][text] = (
                    {"rows": out["rows"], "strategy": out["strategy"]}
                    if out["k"] is not None else {"stage": out["stages"][0]})
    _write("attempts", per_chain)

    per_variant: dict = {}
    for variant in range(inputs.BACKTEST_VARIANTS):
        bt_dir = os.path.join(work_dir, f"record-backtest-{variant}")
        inputs.write_inputs("backtest", variant, bt_dir)
        bt = workloads.Backtest(bt_dir)
        per_variant[str(variant)] = {
            policy: {q: bt.outcome(bt.run({"query": q, "iv_policy": policy}))
                     for q in inputs.BACKTEST_QUERIES}
            for policy in inputs.IV_POLICIES}
    positions = {}
    for q in inputs.BACKTEST_QUERIES:
        positions[q] = workloads.engine.execute(q, bt.snapshot, bt.config).stats.returned
    _write("backtest", {"variants": per_variant, "positions": positions})
