"""Metrics-kit tests: case scoring, metric formulas, the bundled fixture.

The formula layer is pinned with hand-built outcome lists (including the
worked efficiency cases). The bundled 20-case fixture under tests/data
exercises the full evaluate() path against the committed chain files; a
freshness test regenerates those chains from the same parameters and
compares bytes so the fixture can never silently drift.
"""

import datetime as dt
import json
import os

import pytest

from conftest import make_qqq_snapshot, make_tsla_snapshot
from oql.chain import generate_synthetic, snapshot_to_text
from oql.errors import (
    EmptyInput,
    EvalError,
    NoSolvedCases,
    UnknownGoldLabel,
)
from oql.evalkit import (
    DEFAULT_K,
    CaseOutcome,
    EvalCase,
    avg_rows,
    efficiency,
    evaluate,
    load_cases,
    normalize_family,
    run_case,
    strategy_match,
    validity_rate,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def outcome(case_id="x", gold="LONG_CALL", k=None, rows=None,
            selected=None) -> CaseOutcome:
    return CaseOutcome(case_id=case_id, gold_strategy=gold,
                       k_first_success=k, rows_at_success=rows,
                       selected_strategy=selected)


def tiny_snapshot():
    as_of = dt.date(2025, 6, 2)
    return generate_synthetic(
        underlying="SYN", as_of=as_of, spot=100.0, rate=0.02,
        expiries=[as_of + dt.timedelta(days=30)],
        strikes=[90.0, 100.0, 110.0], base_vol=0.3, seed=1)


# ============================================================
# Metric formulas on hand-built outcomes
# ============================================================


class TestEfficiency:
    def test_first_try_with_budget_three(self):
        got = efficiency([outcome(k=1, rows=1, selected="LONG_CALL")], k=3)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_mix_of_first_and_last_try(self):
        outs = [outcome(k=1, rows=1, selected="LONG_CALL"),
                outcome(k=3, rows=1, selected="LONG_CALL")]
        assert efficiency(outs, k=3) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_success_on_the_last_try_scores_zero(self):
        assert efficiency([outcome(k=3, rows=1, selected="LONG_CALL")],
                          k=3) == 0.0

    def test_unsolved_contributes_zero_but_counts_in_n(self):
        outs = [outcome(k=1, rows=1, selected="LONG_CALL"), outcome()]
        assert efficiency(outs, k=3) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_custom_budget(self):
        assert efficiency([outcome(k=2, rows=1, selected="LONG_CALL")],
                          k=4) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            efficiency([])


class TestValidityRate:
    def test_fraction_solved(self):
        outs = [outcome(k=1, rows=1, selected="LONG_CALL"),
                outcome(k=2, rows=4, selected="STRADDLE"),
                outcome()]
        assert validity_rate(outs) == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            validity_rate([])


class TestStrategyMatch:
    def make(self):
        return [
            outcome("a", gold="LONG_CALL", k=1, rows=1,
                    selected="LONG_CALL"),                     # match
            outcome("b", gold="Iron Condor", k=2, rows=3,
                    selected="STRANGLE"),                      # mismatch
            outcome("c", gold="STRADDLE"),                     # unsolved
        ]

    def test_solved_denominator(self):
        assert strategy_match(self.make(), "solved") == pytest.approx(0.5)

    def test_all_denominator_counts_unsolved_as_misses(self):
        assert strategy_match(self.make(), "all") == pytest.approx(1.0 / 3.0)

    def test_gold_labels_are_normalized_before_comparing(self):
        outs = [outcome(gold="bull call spread", k=1, rows=1,
                        selected="BULL_CALL_SPREAD")]
        assert strategy_match(outs, "solved") == 1.0

    def test_no_solved_cases(self):
        with pytest.raises(NoSolvedCases):
            strategy_match([outcome(), outcome()], "solved")
        assert strategy_match([outcome(), outcome()], "all") == 0.0

    def test_bad_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            strategy_match(self.make(), "best")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            strategy_match([])


class TestAvgRows:
    def test_mean_over_solved_only(self):
        outs = [outcome(k=1, rows=3, selected="LONG_CALL"),
                outcome(k=2, rows=7, selected="LONG_CALL"),
                outcome()]
        assert avg_rows(outs) == pytest.approx(5.0)

    def test_no_solved_cases(self):
        with pytest.raises(NoSolvedCases):
            avg_rows([outcome()])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            avg_rows([])


class TestNormalizeFamily:
    @pytest.mark.parametrize("label,family", [
        ("LONG_CALL", "LONG_CALL"),
        ("long_call", "LONG_CALL"),
        ("Bull Call Spread", "BULL_CALL_SPREAD"),
        ("iron-condor", "IRON_CONDOR"),
        ("  straddle  ", "STRADDLE"),
        ("Butterfly Call", "BUTTERFLY_CALL"),
    ])
    def test_known_spellings(self, label, family):
        assert normalize_family(label) == family

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownGoldLabel, match="Jade Lizard"):
            normalize_family("Jade Lizard")


# ============================================================
# Case scoring
# ============================================================


class TestRunCase:
    def test_first_success_sets_k_and_rows(self):
        case = EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                        chain="x", attempts=(
                            "SELECT LONG_CALL FROM SYN LIMIT 2",
                            "SELECT LONG_CALL FROM SYN"))
        out = run_case(case, tiny_snapshot())
        assert out.k_first_success == 1
        assert out.rows_at_success == 2
        assert out.selected_strategy == "LONG_CALL"
        assert out.attempt_errors == ()
        assert out.solved

    def test_failures_accumulate_until_a_success(self):
        case = EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                        chain="x", attempts=(
                            "SELEC LONG_CALL FROM SYN",
                            "SELECT LONG_CALL FROM SYN WHERE Dte > 900",
                            "SELECT LONG_CALL FROM SYN"))
        out = run_case(case, tiny_snapshot())
        assert out.k_first_success == 3
        assert len(out.attempt_errors) == 2
        assert "[parse]" in out.attempt_errors[0]
        assert "[empty]" in out.attempt_errors[1]

    def test_attempts_beyond_the_budget_are_ignored(self):
        case = EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                        chain="x", attempts=(
                            "SELEC LONG_CALL FROM SYN",
                            "SELECT LONG_CALL FROM SYN WHERE Dte > 900",
                            "SELECT LONG_CALL FROM SYN WHERE Volume < 0",
                            "SELECT LONG_CALL FROM SYN"))
        out = run_case(case, tiny_snapshot(), k=3)
        assert not out.solved
        assert out.k_first_success is None
        assert out.rows_at_success is None
        assert len(out.attempt_errors) == 3

    def test_budget_of_one_only_sees_the_first_attempt(self):
        case = EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                        chain="x", attempts=(
                            "SELECT LONG_CALL FROM SYN WHERE Dte > 900",
                            "SELECT LONG_CALL FROM SYN"))
        out = run_case(case, tiny_snapshot(), k=1)
        assert not out.solved
        assert len(out.attempt_errors) == 1

    def test_validation_failures_are_labelled(self):
        case = EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                        chain="x", attempts=(
                            "SELECT JADE_LIZARD FROM SYN",
                            "SELECT LONG_CALL FROM SYN"))
        out = run_case(case, tiny_snapshot())
        assert out.k_first_success == 2
        assert "[validate]" in out.attempt_errors[0]

    def test_out_of_range_literals_score_as_failed_attempts(self):
        case = EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                        chain="x", attempts=(
                            "SELECT LONG_CALL FROM SYN WHERE Dte ~ " + "9" * 400,
                            "SELECT LONG_CALL FROM SYN LIMIT " + "9" * 5000,
                            "SELECT LONG_CALL FROM SYN"))
        out = run_case(case, tiny_snapshot())
        assert out.k_first_success == 3
        assert [e[:19] for e in out.attempt_errors] == ["attempt 1 [parse]: ",
                                                        "attempt 2 [parse]: "]

    def test_case_without_attempts_rejected(self):
        with pytest.raises(EvalError, match="no attempts"):
            EvalCase(id="a", intent="i", gold_strategy="LONG_CALL",
                     chain="x", attempts=())

    def test_default_budget_is_three(self):
        assert DEFAULT_K == 3


# ============================================================
# Case loading
# ============================================================


class TestLoadCases:
    def write(self, tmp_path, lines):
        path = tmp_path / "cases.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_round_trip_with_blank_lines(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "intent": "i", "gold_strategy": "STRADDLE",
                        "chain": "c.csv", "attempts": ["q1", "q2"]}),
            "",
            json.dumps({"id": "b", "intent": "j", "gold_strategy": "LONG_PUT",
                        "chain": "c.csv", "attempts": ["q3"],
                        "sa_grade": 0.5}),
        ]
        cases = load_cases(self.write(tmp_path, lines))
        assert [c.id for c in cases] == ["a", "b"]
        assert cases[0].attempts == ("q1", "q2")
        assert cases[0].sa_grade is None
        assert cases[1].sa_grade == 0.5

    def test_bad_json_reports_the_line(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "intent": "i", "gold_strategy": "STRADDLE",
                        "chain": "c.csv", "attempts": ["q"]}),
            "{not json",
        ]
        with pytest.raises(EvalError, match=":2: bad JSON"):
            load_cases(self.write(tmp_path, lines))

    def test_missing_key_reported(self, tmp_path):
        lines = [json.dumps({"id": "a", "intent": "i", "chain": "c.csv",
                             "attempts": ["q"]})]
        with pytest.raises(EvalError, match="missing key"):
            load_cases(self.write(tmp_path, lines))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EmptyInput, match="no cases"):
            load_cases(self.write(tmp_path, [""]))


# ============================================================
# evaluate(): orchestration
# ============================================================


class TestEvaluate:
    def case(self, cid, chain, attempts):
        return EvalCase(id=cid, intent="i", gold_strategy="LONG_CALL",
                        chain=chain, attempts=tuple(attempts))

    def test_snapshots_are_cached_per_path(self):
        calls = []

        def loader(path):
            calls.append(path)
            return tiny_snapshot()

        cases = [
            self.case("a", "one.csv", ["SELECT LONG_CALL FROM SYN"]),
            self.case("b", "one.csv", ["SELECT LONG_CALL FROM SYN LIMIT 1"]),
            self.case("c", "two.csv", ["SELECT LONG_CALL FROM SYN"]),
        ]
        outcomes, report = evaluate(cases, base_dir="/tmp/x",
                                    snapshot_loader=loader)
        assert len(calls) == 2
        assert calls[0].endswith(os.path.join("x", "one.csv"))
        assert report["n"] == 3
        assert all(o.solved for o in outcomes)

    def test_absolute_chain_paths_skip_base_dir(self):
        seen = []

        def loader(path):
            seen.append(path)
            return tiny_snapshot()

        absolute = os.path.join(os.sep, "data", "chain.csv")
        evaluate([self.case("a", absolute, ["SELECT LONG_CALL FROM SYN"])],
                 base_dir="/elsewhere", snapshot_loader=loader)
        assert seen == [os.path.normpath(absolute)]

    def test_report_when_nothing_solves(self):
        cases = [
            self.case("a", "c.csv", ["SELECT LONG_CALL FROM SYN WHERE Dte > 900"]),
            self.case("b", "c.csv", ["SELEC LONG_CALL FROM SYN"]),
        ]
        _, report = evaluate(cases, snapshot_loader=lambda p: tiny_snapshot())
        assert report["vr"] == 0.0
        assert report["sm_conditional"] is None
        assert report["sm_unconditional"] == 0.0
        assert report["eff"] == 0.0
        assert report["avg_rows"] is None

    def test_no_cases_rejected(self):
        with pytest.raises(EmptyInput):
            evaluate([])


# ============================================================
# The bundled 20-case fixture
# ============================================================


class TestBundledFixture:
    def test_committed_chains_match_their_generators(self):
        # The chain files were written by the deterministic generator with
        # the parameters in conftest; regenerating must reproduce them
        # byte for byte, so the fixture cannot drift from the code.
        for name, make in (("chain_tsla.csv", make_tsla_snapshot),
                           ("chain_qqq.csv", make_qqq_snapshot)):
            path = os.path.join(DATA_DIR, name)
            with open(path, "r", encoding="utf-8", newline="") as fh:
                assert fh.read() == snapshot_to_text(make(), fmt="csv"), name

    def fixture_report(self):
        cases = load_cases(os.path.join(DATA_DIR, "cases20.jsonl"))
        return evaluate(cases, base_dir=DATA_DIR)

    def test_headline_metrics(self):
        _, report = self.fixture_report()
        assert report["n"] == 20
        assert report["k"] == 3
        assert report["vr"] == 17 / 20
        assert report["sm_conditional"] == pytest.approx(15 / 17, abs=1e-15)
        assert report["sm_unconditional"] == 15 / 20
        assert report["eff"] == pytest.approx(9 / 20, abs=1e-12)
        assert report["avg_rows"] == pytest.approx(103 / 17, abs=1e-12)

    def test_per_case_outcomes(self):
        outcomes, _ = self.fixture_report()
        by_id = {o.case_id: o for o in outcomes}
        assert len(by_id) == 20

        solved_at_1 = {cid for cid, o in by_id.items()
                       if o.k_first_success == 1}
        assert solved_at_1 == {"c01", "c03", "c06", "c08", "c09", "c10",
                               "c11", "c13", "c14", "c16", "c19", "c20"}
        assert {cid for cid, o in by_id.items()
                if o.k_first_success == 2} == {"c02", "c07", "c15"}
        assert {cid for cid, o in by_id.items()
                if o.k_first_success == 3} == {"c04", "c18"}
        assert {cid for cid, o in by_id.items()
                if not o.solved} == {"c05", "c12", "c17"}

    def test_mismatched_families(self):
        outcomes, _ = self.fixture_report()
        by_id = {o.case_id: o for o in outcomes}
        assert by_id["c11"].selected_strategy == "STRANGLE"
        assert normalize_family(by_id["c11"].gold_strategy) == "IRON_CONDOR"
        assert by_id["c19"].selected_strategy == "STRADDLE"
        assert normalize_family(by_id["c19"].gold_strategy) == "STRANGLE"

    def test_limit_seven_case_returns_seven_rows(self):
        outcomes, _ = self.fixture_report()
        by_id = {o.case_id: o for o in outcomes}
        assert by_id["c13"].rows_at_success == 7

    def test_unsolved_case_with_a_late_good_attempt(self):
        # c12's fourth attempt would succeed, but the budget is three.
        cases = {c.id: c for c in load_cases(
            os.path.join(DATA_DIR, "cases20.jsonl"))}
        assert len(cases["c12"].attempts) == 4
        outcomes, _ = self.fixture_report()
        by_id = {o.case_id: o for o in outcomes}
        assert not by_id["c12"].solved
        assert len(by_id["c12"].attempt_errors) == 3

    def test_error_stage_labels(self):
        outcomes, _ = self.fixture_report()
        by_id = {o.case_id: o for o in outcomes}
        stages = [e.split("[")[1].split("]")[0]
                  for e in by_id["c17"].attempt_errors]
        assert stages == ["lex", "empty", "parse"]
        stages = [e.split("[")[1].split("]")[0]
                  for e in by_id["c04"].attempt_errors]
        assert stages == ["validate", "empty"]
