"""Span tracing of oql's module functions, applied from outside the package.

A traced run replaces each public function where its caller looks it up
(a module attribute) with a wrapper that records one span per call: name,
start, end, parent span and op id. Spans stay in memory as parallel arrays
and are written out when the run ends. A span's self time is its duration
minus the time its child spans cover; since one thread runs every call,
children nest inside their parent and never overlap.
"""

import json
import sys
import time
from array import array
from collections import Counter

SETUP_OP = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around each call; on_result(result) sees its value."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        import numpy as np  # imported late so the import span covers oql's own

        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def self_times(start, end, parent):
    """Per-span duration minus the summed duration of its direct children."""
    import numpy as np

    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(names, name_id, start, end, parent, op) -> dict:
    """Self time and call count per span name, over the run and over ops only.

    Returns {"self_s": {name: s}, "calls": {name: n}, "op_self_s": {name: s},
    "op_s": total duration of the root op spans}.
    """
    import numpy as np

    selfs = self_times(start, end, parent)
    name_id = np.asarray(name_id)
    in_op = np.asarray(op) >= 0
    k = len(names)
    self_s = np.bincount(name_id, weights=selfs, minlength=k)
    calls = np.bincount(name_id, minlength=k)
    op_self = np.bincount(name_id[in_op], weights=selfs[in_op], minlength=k)
    roots = in_op & (np.asarray(parent) < 0)
    op_s = float(np.sum(np.asarray(end)[roots] - np.asarray(start)[roots]))
    return {
        "self_s": {n: float(self_s[i]) for i, n in enumerate(names)},
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "op_self_s": {n: float(op_self[i]) for i, n in enumerate(names)},
        "op_s": op_s,
    }


# ============================================================
# Where oql's callers look its functions up
# ============================================================


def _count_stats(tracer: Tracer):
    def on_result(result):
        stats = result.stats
        c = tracer.counts
        c["engine.candidates"] += stats.filtered
        c["engine.raw_product"] += stats.raw_product
        c["engine.assembled"] += stats.assembled
        c["engine.having_passed"] += stats.having_passed
        c["engine.returned"] += stats.returned
    return on_result


def _count_snapshot(tracer: Tracer):
    def on_result(snapshot):
        tracer.counts["chain.records"] += len(snapshot.records)
        tracer.counts["chain.excluded"] += len(snapshot.excluded)
    return on_result


def _count_bytes(tracer: Tracer):
    def on_result(text):
        tracer.counts["serialize.bytes_out"] += len(text.encode("utf-8"))
    return on_result


def _count_attempts(tracer: Tracer):
    from workloads import attempt_stage

    def on_result(outcome):
        tried = outcome.k_first_success or len(outcome.attempt_errors)
        tracer.counts["evalkit.attempts"] += tried
        for err in outcome.attempt_errors:
            tracer.counts[f"evalkit.attempt_errors.{attempt_stage(err)}"] += 1
    return on_result


def _wrap_mark_path(tracer: Tracer, fn):
    """mark_path gets one span name per iv policy (its sixth argument)."""
    def traced(position, spots, entry, exit, config=None,
               iv_policy="sticky_entry", snapshots=None):
        idx = tracer.open(f"backtest.mark_path.{iv_policy}")
        try:
            path = fn(position, spots, entry, exit, config, iv_policy, snapshots)
        finally:
            tracer.close(idx)
        tracer.counts["backtest.position_days"] += len(path.dates)
        return path

    traced.__wrapped__ = fn
    return traced


def wrap_points(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every function the trace covers."""
    engine = sys.modules["oql.engine"]
    chain = sys.modules["oql.chain"]
    pricing = sys.modules["oql.pricing"]
    serialize = sys.modules["oql.serialize"]
    backtest = sys.modules["oql.backtest"]
    evalkit = sys.modules["oql.evalkit"]
    plan = [
        # engine binds these by name
        (engine, "parse_text", "syntax.parse_text", None),
        (engine, "validate", "catalog.validate", None),
        (engine, "pretty_print", "syntax.pretty_print", None),
        (engine, "survivors", "engine.survivors", None),
        (engine, "filter_legs", "engine.filter_legs", None),
        (engine, "assemble", "engine.assemble", None),
        (engine, "compute_aggregates", "engine.compute_aggregates", None),
        (engine, "eval_strat_condition", "engine.eval_strat_condition", None),
        (engine, "order_and_limit", "engine.order_and_limit", None),
        # callers reach these through the module attribute
        (engine, "execute", "engine.execute", _count_stats(tracer)),
        (engine, "result_to_json", "engine.result_to_json", None),
        (evalkit, "execute", "engine.execute", _count_stats(tracer)),
        (evalkit, "run_case", "evalkit.run_case", _count_attempts(tracer)),
        (chain, "enrich", "chain.enrich", None),
        (chain, "load_snapshot", "chain.load_snapshot", _count_snapshot(tracer)),
        (pricing, "bsm_price", "pricing.bsm_price", None),
        (pricing, "implied_vol", "pricing.implied_vol", None),
        (pricing, "greeks", "pricing.greeks", None),
        (pricing, "payoff_extremes", "pricing.payoff_extremes", None),
        (pricing, "breakevens", "pricing.breakevens", None),
        (serialize, "dumps", "serialize.dumps", _count_bytes(tracer)),
        (backtest, "positions_from_results", "backtest.positions_from_results", None),
        (backtest, "report", "backtest.report", None),
        (backtest, "run_cohorts", "backtest.run_cohorts", None),
        (backtest, "load_spots", "backtest.load_spots", None),
        (backtest.BacktestReport, "to_json_dict", "backtest.to_json_dict", None),
    ]
    points = [(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
              for owner, attr, name, hook in plan]
    points.append((backtest, "mark_path", _wrap_mark_path(tracer, backtest.mark_path)))
    return points


class Patched:
    """Context manager that installs wrappers and restores the originals."""

    def __init__(self, points):
        self.points = points
        self.saved: list = []

    def __enter__(self):
        for owner, attr, wrapper in self.points:
            self.saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def write_summary(path: str, tracer: Tracer, extra: dict) -> None:
    summary = summarize(tracer.names, **tracer.arrays())
    summary["counts"] = dict(tracer.counts)
    summary.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
