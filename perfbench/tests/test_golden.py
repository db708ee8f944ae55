import golden
import inputs
import workloads
from child import _run_one


def test_every_pool_op_has_a_golden():
    scan = golden.load("scan")
    assert all(q in scan for alts in inputs.scan_pool() for q in alts)
    attempts = golden.load("attempts")
    for chain, kinds in inputs.attempt_pool().items():
        assert all(t in attempts[chain] for texts in kinds.values() for t in texts)
    backtest = golden.load("backtest")
    assert set(backtest["positions"]) == set(inputs.BACKTEST_QUERIES)
    variants = backtest["variants"]
    assert sorted(variants) == [str(v) for v in range(inputs.BACKTEST_VARIANTS)]
    for by_policy in variants.values():
        for policy in inputs.IV_POLICIES:
            assert set(by_policy[policy]) == set(inputs.BACKTEST_QUERIES)


def test_golden_check_catches_a_one_byte_change(tmp_path):
    inputs.write_inputs("scan", 0, str(tmp_path))
    scan = workloads.Scan(str(tmp_path))
    query = inputs.BASELINE_QUERIES[3]
    raw = scan.run({"query": query})
    expected = golden.load("scan")[query]
    assert scan.outcome(raw) == expected
    flipped = bytearray(raw)
    flipped[len(flipped) // 2] ^= 0x01
    assert scan.outcome(bytes(flipped)) != expected


class _FakeWorkload:
    def __init__(self, output):
        self.output = output

    def run(self, op):
        if isinstance(self.output, Exception):
            raise self.output
        return self.output

    @staticmethod
    def outcome(raw):
        return workloads.sha256(raw)


def test_a_differing_or_raising_op_counts_as_failed():
    good = workloads.sha256(b"abc")
    failures: list[str] = []
    _run_one(_FakeWorkload(b"abc"), {}, good, failures, 0)
    assert failures == []
    _run_one(_FakeWorkload(b"abd"), {}, good, failures, 1)
    _run_one(_FakeWorkload(ValueError("boom")), {}, good, failures, 2)
    assert len(failures) == 2 and "ValueError" in failures[1]


def test_case_outcome_folds_single_attempt_goldens():
    per = {"a": {"stage": "parse"}, "b": {"stage": "empty"},
           "c": {"rows": 5, "strategy": "STRADDLE"}}
    assert golden.case_outcome(["a", "b", "c"], per) == {
        "k": 3, "rows": 5, "strategy": "STRADDLE", "stages": ["parse", "empty"]}
    assert golden.case_outcome(["a", "b"], per) == {
        "k": None, "rows": None, "strategy": None, "stages": ["parse", "empty"]}
    # run_case only tries the first k attempts
    assert golden.case_outcome(["a", "a", "a", "c"], per)["k"] is None
