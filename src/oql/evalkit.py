"""Query-quality metrics over attempt transcripts.

A case holds a natural-language intent, a gold strategy label, a chain file
reference, and up to K query-text attempts. An attempt succeeds when it
parses, validates, and executes with at least one assembled strategy; the
case's k is the 1-based index of the first success (unsolved cases have
k = None, read as infinity).

metrics scores the outcomes in one pass: VR (fraction solved within K),
SM (gold-family agreement over solved cases and over all cases), Eff
((1/N) sum of 1[k<=K](1 - k/K)), AvgRows (mean rows over solved cases).
"""

import json
import os
from dataclasses import dataclass

from .catalog import build_catalog
from .chain import ChainSnapshot, load_snapshot
from .config import RunConfig
from .engine import execute
from .errors import ChainError, EvalError, OqlError

DEFAULT_K = 3


@dataclass(frozen=True)
class EvalCase:
    id: str
    intent: str
    gold_strategy: str
    chain: str                  # snapshot path, relative to the cases file
    attempts: tuple[str, ...]

    def __post_init__(self):
        if not self.attempts:
            raise EvalError(f"case {self.id!r} has no attempts")


@dataclass(frozen=True)
class CaseOutcome:
    case_id: str
    gold_strategy: str
    k_first_success: int | None  # None = unsolved within K
    rows_at_success: int | None
    selected_strategy: str | None
    attempt_errors: tuple[str, ...] = ()

    @property
    def solved(self) -> bool:
        return self.k_first_success is not None


_CASE_TEXT_KEYS = ("id", "intent", "gold_strategy", "chain")


def load_cases(path: str) -> list[EvalCase]:
    """Cases from JSONL, one object per line; the text fields are strings."""
    cases: list[EvalCase] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            # JSONDecodeError, an int too long, or nesting past the
            # recursion limit
            except (ValueError, RecursionError) as exc:
                raise EvalError(f"{where}: bad JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise EvalError(f"{where}: a case must be a JSON object")
            try:
                attempts = obj["attempts"]
                if not (isinstance(attempts, list)
                        and all(isinstance(a, str) for a in attempts)):
                    raise EvalError("attempts must be a list of strings")
                text = {key: obj[key] for key in _CASE_TEXT_KEYS}
                for key, value in text.items():
                    # a NUL cannot be in a file path
                    if not isinstance(value, str) or (
                            key == "chain" and "\0" in value):
                        raise EvalError(f"bad {key} {value!r}")
                cases.append(EvalCase(**text, attempts=tuple(attempts)))
            except KeyError as exc:
                raise EvalError(f"{where}: missing key {exc}") from None
            except EvalError as exc:
                raise EvalError(f"{where}: {exc}") from None
    if not cases:
        raise EvalError(f"{path} holds no cases")
    return cases


def normalize_family(label: str) -> str:
    """Map a strategy label to its catalog family name.

    The family map is the identity over catalog names after uppercasing and
    joining words with underscores ("Bull Call Spread" -> BULL_CALL_SPREAD).
    """
    name = label.strip().upper().replace("-", "_").replace(" ", "_")
    if name not in build_catalog():
        raise EvalError(f"label {label!r} maps to no catalog family")
    return name


def run_case(case: EvalCase, snapshot: ChainSnapshot,
             config: RunConfig | None = None, k: int = DEFAULT_K) -> CaseOutcome:
    """Score one case: first success among the first k attempts.

    Attempts beyond k are ignored. An attempt that raises any package error
    (syntax, validation, execution) fails; one that returns zero strategies
    fails; the first attempt returning >= 1 strategies sets k and the row
    count.
    """
    if k < 1:
        raise EvalError(f"attempt budget k must be >= 1, got {k}")
    errors: list[str] = []
    for idx, attempt in enumerate(case.attempts[:k], start=1):
        try:
            result = execute(attempt, snapshot, config)
        except OqlError as exc:
            errors.append(f"attempt {idx} [{exc.stage}]: {exc}")
            continue
        if result.stats.returned >= 1:
            return CaseOutcome(
                case_id=case.id,
                gold_strategy=case.gold_strategy,
                k_first_success=idx,
                rows_at_success=result.stats.returned,
                selected_strategy=result.query.schema.name,
                attempt_errors=tuple(errors),
            )
        errors.append(f"attempt {idx} [empty]: query returned no strategies")
    return CaseOutcome(case_id=case.id, gold_strategy=case.gold_strategy,
                       k_first_success=None, rows_at_success=None,
                       selected_strategy=None, attempt_errors=tuple(errors))


# ============================================================
# Metrics
# ============================================================


def metrics(outcomes: list[CaseOutcome], k: int = DEFAULT_K) -> dict:
    """The report over outcomes scored with attempt budget k, in one pass.

    vr is the fraction solved; sm_conditional and sm_unconditional the
    fraction whose selected family equals the gold family, over solved
    cases and over all cases; eff is (1/N) sum of 1[k_j <= k](1 - k_j/k);
    avg_rows the mean row count over solved cases. The solved-only
    metrics are None when no case was solved.
    """
    if not outcomes:
        raise EvalError("no outcomes")
    solved = matches = rows = 0
    eff = 0.0
    for o in outcomes:
        if not o.solved:
            continue
        solved += 1
        matches += (normalize_family(o.selected_strategy)
                    == normalize_family(o.gold_strategy))
        rows += o.rows_at_success
        if o.k_first_success <= k:
            eff += 1.0 - o.k_first_success / k
    n = len(outcomes)
    return {
        "vr": solved / n,
        "sm_conditional": matches / solved if solved else None,
        "sm_unconditional": matches / n,
        "eff": eff / n,
        "avg_rows": rows / solved if solved else None,
        "n": n,
        "k": k,
    }


def evaluate(cases: list[EvalCase], base_dir: str = ".",
             config: RunConfig | None = None,
             k: int = DEFAULT_K) -> tuple[list[CaseOutcome], dict]:
    """Run every case: (outcomes, metrics(outcomes, k)).

    Chain paths resolve relative to base_dir; snapshots are cached per
    path, and a chain that fails to load, or is not UTF-8 text (an
    OSError), is named in its error.
    """
    if not cases:
        raise EvalError("no cases")
    if k < 1:
        raise EvalError(f"attempt budget k must be >= 1, got {k}")
    for case in cases:  # every gold label, solved or not, before any runs
        normalize_family(case.gold_strategy)
    cache: dict[str, ChainSnapshot] = {}
    outcomes: list[CaseOutcome] = []
    for case in cases:
        path = case.chain
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        path = os.path.normpath(path)
        if path not in cache:
            try:
                cache[path] = load_snapshot(path)
            except ChainError as exc:
                exc.args = (f"{path}: {exc}",)  # stage and row stay
                raise
            except UnicodeDecodeError as exc:  # its text cannot be rewritten
                raise OSError(f"{path}: {exc}") from exc
        outcomes.append(run_case(case, cache[path], config, k))
    return outcomes, metrics(outcomes, k)
