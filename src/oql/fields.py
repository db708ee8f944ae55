"""Field vocabulary shared by the parser, validator, and engine.

Leg fields are per-contract attributes usable in WHERE; aggregate fields are
per-strategy attributes usable in HAVING and ORDER BY. Identifiers are
case-insensitive in source text and canonicalized here: leg fields to their
catalog casing (``Dte``, ``Delta``), aggregate fields to lowercase.
"""

# canonical leg field spellings, keyed by lowercase
LEG_FIELDS = {
    "dte": "Dte",
    "strike": "Strike",
    "price": "Price",
    "volume": "Volume",
    "iv": "Iv",
    "delta": "Delta",
    "gamma": "Gamma",
    "vega": "Vega",
    "theta": "Theta",
    "moneyness": "Moneyness",
}

CATEGORICAL_LEG_FIELDS = frozenset({"Moneyness"})

MONEYNESS_VALUES = ("ITM", "ATM", "OTM")

AGGREGATE_FIELDS = (
    "net_debit",
    "net_credit",
    "net_delta",
    "net_gamma",
    "net_vega",
    "net_theta",
    "max_loss",
    "max_profit",
    "rr_ratio",
    "width",
    "breakeven_low",
    "breakeven_high",
)

_AGGREGATE_SET = frozenset(AGGREGATE_FIELDS)

# the fields a ~ condition can test, so an epsilon override can name
SOFT_MATCH_FIELDS = tuple(f for f in LEG_FIELDS.values()
                          if f not in CATEGORICAL_LEG_FIELDS) + AGGREGATE_FIELDS


def canonical_leg_field(name: str) -> str:
    """Map a source spelling to the canonical leg field, or pass it through."""
    return LEG_FIELDS.get(name.lower(), name)


def canonical_aggregate_field(name: str) -> str:
    """Aggregate fields are canonically lowercase."""
    return name.lower()


def is_leg_field(name: str) -> bool:
    return name in LEG_FIELDS.values()


def is_aggregate_field(name: str) -> bool:
    return name in _AGGREGATE_SET
