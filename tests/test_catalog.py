"""Strategy catalog contents and semantic validation of parsed queries."""

import pytest

from conftest import CONDOR_QUERY_QQQ, CONDOR_QUERY_TSLA
from oql.catalog import (RoleSpec, StrategySchema, StructuralRule,
                         build_catalog, catalog,
                         catalog_table, catalog_to_json, lookup,
                         schema_to_json, validate)
from oql.engine import _depth_checks
from oql.errors import (ParseError, TypeMismatch, UnknownField, UnknownRole,
                        UnknownStrategy)
from oql.syntax import parse_text

EXPECTED_FAMILIES = (
    "LONG_CALL", "LONG_PUT", "BULL_CALL_SPREAD", "BEAR_CALL_SPREAD",
    "BEAR_PUT_SPREAD", "CALENDAR_CALL", "STRADDLE", "STRANGLE",
    "IRON_CONDOR", "BUTTERFLY_CALL",
)


# ============================================================
# Catalog contents
# ============================================================


def test_catalog_holds_every_family_in_order():
    assert tuple(build_catalog()) == EXPECTED_FAMILIES


def test_single_leg_schemas():
    for name, option_type in (("LONG_CALL", "call"), ("LONG_PUT", "put")):
        schema = lookup(name)
        assert schema.role_ids == ("L",)
        role = schema.roles[0]
        assert (role.option_type, role.direction, role.quantity) == (option_type, 1, 1)
        assert schema.rules == ()


@pytest.mark.parametrize("name,long_role,short_role,order", [
    ("BULL_CALL_SPREAD", "L", "S", ("L", "S")),   # long strike below short
    ("BEAR_CALL_SPREAD", "L", "S", ("S", "L")),   # short strike below long
    ("BEAR_PUT_SPREAD", "L", "S", ("S", "L")),    # long strike above short
])
def test_vertical_spread_schemas(name, long_role, short_role, order):
    schema = lookup(name)
    assert set(schema.role_ids) == {"L", "S"}
    assert schema.role(long_role).direction == 1
    assert schema.role(short_role).direction == -1
    kinds = {rule.kind: rule.roles for rule in schema.rules}
    assert kinds["strike_order"] == order
    assert set(kinds["expiry_equal"]) == {"L", "S"}


def test_calendar_call_schema():
    schema = lookup("CALENDAR_CALL")
    assert schema.role("F").direction == -1  # sell the front month
    assert schema.role("B").direction == 1   # own the back month
    kinds = {rule.kind: rule.roles for rule in schema.rules}
    assert kinds["strike_equal"] == ("F", "B")
    assert kinds["expiry_order"] == ("F", "B")


def test_straddle_and_strangle_schemas():
    straddle = lookup("STRADDLE")
    assert {r.option_type for r in straddle.roles} == {"call", "put"}
    assert all(r.direction == 1 for r in straddle.roles)
    assert {rule.kind for rule in straddle.rules} == {"strike_equal", "expiry_equal"}

    strangle = lookup("STRANGLE")
    kinds = {rule.kind: rule.roles for rule in strangle.rules}
    assert kinds["strike_order"] == ("P", "C")  # put wing below call wing


def test_iron_condor_schema():
    schema = lookup("IRON_CONDOR")
    assert schema.role_ids == ("SC", "LC", "SP", "LP")
    assert schema.role("SC").option_type == "call"
    assert schema.role("LC").option_type == "call"
    assert schema.role("SP").option_type == "put"
    assert schema.role("LP").option_type == "put"
    assert schema.role("SC").direction == -1
    assert schema.role("SP").direction == -1
    assert schema.role("LC").direction == 1
    assert schema.role("LP").direction == 1
    kinds = {rule.kind: rule.roles for rule in schema.rules}
    assert kinds["strike_order"] == ("LP", "SP", "SC", "LC")
    assert set(kinds["expiry_equal"]) == {"SC", "LC", "SP", "LP"}


def test_butterfly_schema_and_symmetric_wing_toggle():
    plain = lookup("BUTTERFLY_CALL")
    assert plain.role("S").quantity == 2
    assert plain.role("S").direction == -1
    assert plain.role("L1").quantity == 1
    assert "symmetric_wings" not in {rule.kind for rule in plain.rules}

    strict = lookup("BUTTERFLY_CALL", symmetric_wings=True)
    kinds = {rule.kind: rule.roles for rule in strict.rules}
    assert kinds["symmetric_wings"] == ("L1", "S", "L2")


@pytest.mark.parametrize("symmetric_wings", [False, True])
def test_every_depth_past_the_first_gets_a_join_check(symmetric_wings):
    # assembly joins depth by depth and folds each depth's checks into one
    # mask, so a depth with no check would have nothing to fold
    for schema in catalog(symmetric_wings):
        checks = _depth_checks(schema)
        assert sorted(checks) == list(range(len(schema.roles))), schema.name
        for depth in range(1, len(schema.roles)):
            assert checks[depth], (schema.name, depth)


def test_lookup_is_case_insensitive_and_strict():
    assert lookup("iron_condor").name == "IRON_CONDOR"
    with pytest.raises(UnknownStrategy, match="JADE_LIZARD"):
        lookup("JADE_LIZARD")


def test_docs_views_cover_every_schema():
    doc = catalog_to_json()
    assert [entry["name"] for entry in doc] == list(EXPECTED_FAMILIES)
    condor = schema_to_json(lookup("IRON_CONDOR"))
    assert condor["roles"][0] == {
        "id": "SC", "option_type": "call", "direction": -1, "quantity": 1}
    text = catalog_table()
    for name in EXPECTED_FAMILIES:
        assert name in text


def test_schema_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        RoleSpec("X", "swap", 1, 1)
    with pytest.raises(ValueError):
        RoleSpec("X", "either", 1)
    with pytest.raises(ValueError):
        RoleSpec("X", "call", 0, 1)
    with pytest.raises(ValueError):
        StructuralRule("strike_order", ("A",))
    with pytest.raises(ValueError):
        StructuralRule("strike_order", ("A", "B", "A"))
    with pytest.raises(ValueError):
        StrategySchema("X", (RoleSpec("A", "call", 1),),
                       (StructuralRule("strike_order", ("A", "B")),))


# ============================================================
# Validation
# ============================================================


@pytest.mark.parametrize("build,error,message", [
    (lambda: RoleSpec("X", "call", 1, 0), ValueError,
     "quantity must be >= 1, got 0"),
    (lambda: StructuralRule("strike_sum", ("A", "B")), ValueError,
     "unknown rule kind 'strike_sum'"),
    (lambda: StrategySchema("X", (RoleSpec("A", "call", 1),
                                  RoleSpec("A", "put", 1)), ()),
     ValueError, "duplicate role ids in X"),
    (lambda: lookup("STRADDLE").role("L"), KeyError, "'L'"),
], ids=["quantity-zero", "rule-kind", "duplicate-role", "role-lookup"])
def test_schema_refusals_name_what_is_wrong(build, error, message):
    with pytest.raises(error) as exc_info:
        build()
    assert str(exc_info.value) == message


def test_reference_queries_validate():
    for text in (CONDOR_QUERY_QQQ, CONDOR_QUERY_TSLA):
        vq = validate(parse_text(text))
        assert vq.schema.name == "IRON_CONDOR"


def test_bare_conditions_broadcast_to_every_role():
    vq = validate(parse_text(CONDOR_QUERY_TSLA))
    for rid in vq.schema.role_ids:
        conds = vq.per_role_conditions[rid]
        assert conds[0].field == "Dte"  # the bare Dte ~ 30 lands everywhere
    # role-specific conditions land only on their role
    assert [c.field for c in vq.per_role_conditions["SC"]] == ["Dte", "Delta"]
    assert len(vq.per_role_conditions["LP"]) == 2


def test_broadcast_equals_explicit_per_role_spelling():
    bare = validate(parse_text("SELECT STRADDLE FROM SPY WHERE Dte ~ 30"))
    explicit = validate(parse_text(
        "SELECT STRADDLE FROM SPY WHERE C.Dte ~ 30 AND P.Dte ~ 30"))
    for rid in ("C", "P"):
        assert [(c.field, c.op, c.value) for c in bare.per_role_conditions[rid]] \
            == [(c.field, c.op, c.value) for c in explicit.per_role_conditions[rid]]


def test_unknown_strategy_rejected():
    with pytest.raises(UnknownStrategy):
        validate(parse_text("SELECT COVERED_CALL FROM SPY"))


def test_unknown_role_rejected():
    with pytest.raises(UnknownRole, match="XX"):
        validate(parse_text("SELECT IRON_CONDOR FROM SPY WHERE XX.Dte ~ 30"))


def test_role_from_another_schema_rejected():
    with pytest.raises(UnknownRole):
        validate(parse_text("SELECT STRADDLE FROM SPY WHERE SC.Dte ~ 30"))


def test_unknown_leg_field_rejected():
    with pytest.raises(UnknownField, match="OpenInterest"):
        validate(parse_text("SELECT LONG_CALL FROM SPY WHERE OpenInterest > 1"))


def test_unknown_aggregate_field_rejected():
    with pytest.raises(UnknownField):
        validate(parse_text("SELECT LONG_CALL FROM SPY HAVING sharpe > 1"))


def test_unknown_sort_field_rejected():
    with pytest.raises(UnknownField, match="sort"):
        validate(parse_text("SELECT LONG_CALL FROM SPY ORDER BY sharpe"))


def test_moneyness_requires_equality_operator():
    with pytest.raises(TypeMismatch):
        validate(parse_text("SELECT LONG_CALL FROM SPY WHERE Moneyness > ATM"))


def test_moneyness_requires_moneyness_value():
    # CALL and PUT are not values: the query fails at parse
    with pytest.raises(ParseError):
        validate(parse_text("SELECT LONG_CALL FROM SPY WHERE Moneyness = CALL"))
    with pytest.raises(TypeMismatch):
        validate(parse_text("SELECT LONG_CALL FROM SPY WHERE Moneyness = 1"))


def test_numeric_field_rejects_symbolic_value():
    with pytest.raises(TypeMismatch):
        validate(parse_text("SELECT LONG_CALL FROM SPY WHERE Delta = ATM"))
    with pytest.raises(ParseError):
        validate(parse_text("SELECT LONG_CALL FROM SPY HAVING net_debit = PUT"))


def test_aggregate_field_rejects_symbolic_value():
    for text, value in (("net_debit < OTM", "OTM"), ("net_debit = ATM", "ATM")):
        with pytest.raises(TypeMismatch) as exc_info:
            validate(parse_text(f"SELECT STRADDLE FROM TSLA HAVING {text}"))
        assert exc_info.value.stage == "validate"
        assert str(exc_info.value) == (
            f"net_debit is numeric; got symbolic value {value!r}")
    vq = validate(parse_text(
        "SELECT STRADDLE FROM TSLA HAVING net_debit BETWEEN 1 AND 5"))
    (cond,) = vq.strategy_conditions
    assert (cond.op, cond.lo, cond.hi) == ("BETWEEN", 1.0, 5.0)


def test_moneyness_accepts_both_equality_ops():
    for op in ("=", "!="):
        vq = validate(parse_text(f"SELECT LONG_CALL FROM SPY WHERE Moneyness {op} OTM"))
        assert vq.per_role_conditions["L"][0].op == op


def test_catalog_list_matches_build_catalog():
    assert [s.name for s in catalog()] == list(EXPECTED_FAMILIES)
