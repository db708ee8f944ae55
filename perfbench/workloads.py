"""What each workload loads at set-up and what one op does.

Every call into oql goes through a module attribute (engine.execute,
evalkit.run_case, ...) so that a traced run can wrap it from outside.
An op returns its raw output; outcome() turns that into the value the
goldens record, outside the timed region.
"""

import datetime as dt
import hashlib
import json
import os

from oql import backtest, chain, engine, evalkit, serialize
from oql.config import RunConfig


def _read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Scan:
    """Analyst queries against one loaded snapshot; output is the JSON text."""

    def __init__(self, inputs_dir: str):
        self.config = RunConfig()
        self.snapshot = chain.load_snapshot(os.path.join(inputs_dir, "tsla.csv"))
        self.inputs_dir = inputs_dir

    def ops(self) -> list[dict]:
        return _read_jsonl(os.path.join(self.inputs_dir, "ops.jsonl"))

    def run(self, op: dict) -> bytes:
        result = engine.execute(op["query"], self.snapshot, self.config)
        return serialize.dumps(engine.result_to_json(result, self.config)).encode()

    @staticmethod
    def outcome(raw: bytes) -> str:
        return sha256(raw)


class Attempts:
    """An eval batch: one op scores one case's attempts with run_case."""

    def __init__(self, inputs_dir: str):
        self.config = RunConfig()
        self.cases = evalkit.load_cases(os.path.join(inputs_dir, "cases.jsonl"))
        self.snapshots = {}
        for case in self.cases:
            if case.chain not in self.snapshots:
                self.snapshots[case.chain] = chain.load_snapshot(
                    os.path.join(inputs_dir, case.chain))

    def ops(self) -> list:
        return list(self.cases)

    def run(self, case):
        return evalkit.run_case(case, self.snapshots[case.chain], self.config)

    @staticmethod
    def outcome(raw) -> dict:
        return {
            "k": raw.k_first_success,
            "rows": raw.rows_at_success,
            "strategy": raw.selected_strategy,
            "stages": [attempt_stage(e) for e in raw.attempt_errors],
        }


def attempt_stage(error_text: str) -> str:
    """The stage tag of a run_case error line: 'attempt 2 [parse]: ...' -> 'parse'."""
    return error_text[error_text.index("[") + 1:error_text.index("]")]


class Backtest:
    """oql run --out then oql backtest: results cross JSON both ways."""

    def __init__(self, inputs_dir: str):
        self.config = RunConfig()
        with open(os.path.join(inputs_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.entry = dt.date.fromisoformat(manifest["entry"])
        self.exit = dt.date.fromisoformat(manifest["exit"])
        self.snapshot = chain.load_snapshot(os.path.join(inputs_dir, "chain.jsonl"))
        self.spots = backtest.load_spots(os.path.join(inputs_dir, "spots.csv"))
        self.snapshots = {}
        for name in manifest["snapshots"]:
            snap = chain.load_snapshot(os.path.join(inputs_dir, "snapshots", name))
            self.snapshots[snap.as_of] = snap
        self.inputs_dir = inputs_dir

    def ops(self) -> list[dict]:
        return _read_jsonl(os.path.join(self.inputs_dir, "ops.jsonl"))

    def run(self, op: dict) -> bytes:
        result = engine.execute(op["query"], self.snapshot, self.config)
        results_text = serialize.dumps(engine.result_to_json(result, self.config))
        positions = backtest.positions_from_results(json.loads(results_text))
        policy = op["iv_policy"]
        reports = backtest.run_cohorts(
            positions, self.spots, self.entry, self.exit, self.config, policy,
            self.snapshots if policy == "snapshot" else None)
        report_text = serialize.dumps(
            {cohort: rep.to_json_dict() for cohort, rep in reports.items()})
        return (results_text + report_text).encode()

    @staticmethod
    def outcome(raw: bytes) -> str:
        return sha256(raw)


WORKLOADS = {"scan": Scan, "attempts": Attempts, "backtest": Backtest}
