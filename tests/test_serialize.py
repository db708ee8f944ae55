"""serialize.dumps writes exactly what the json module writes with a
two-space indent, ensure_ascii and allow_nan off, plus a newline, and
fails where it fails.

The reference is json's own pure-Python indenting encoder; dumps hands
each container of scalars to json's C encoder, so the trees below mix
scalar-only and nested containers at every depth.

parse_date reads exactly YYYY-MM-DD on every supported Python.
"""

import collections
import datetime as dt
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oql import serialize
from oql.serialize import dumps, parse_date


def reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


# characters json escapes or passes through in unusual ways: quote,
# backslash, control characters, the JS line separators, lone surrogates
_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ",
            "\ud800", "\udfff", "é", "漢", "\U0001f600"]

texts = st.text(st.characters(exclude_categories=()) | st.sampled_from(_AWKWARD),
                max_size=8)
finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 0.0, 1e16, -1e16, 1e17, 2.0 ** 64,
                                    1.5e300, 5e-324, 0.1]))
ints = st.integers() | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
scalars = (st.none() | st.booleans() | ints | finite_floats | texts
           | finite_floats.map(np.float64))
keys = st.none() | st.booleans() | ints | finite_floats | texts


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4))


trees = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_dumps_matches_json_on_arbitrary_trees(tree):
    assert dumps(tree) == reference(tree)


@pytest.mark.parametrize("tree", [
    (),
    (1, 2.5, "x"),
    ((1, 2), (), [3, (4,)]),
    {"a": (1, (2, 3)), "b": [(), {}], "c": {"d": ()}},
    {"roles": ("L", "S"), "conditions": ({"field": "Delta", "value": 0.3},)},
    [{}, [], {"x": []}, [[{}]]],
    {1: "int", 1.5: "float", True: "bool", None: "none", "s": {2: [3]}},
], ids=repr)
def test_tuples_encode_as_lists_and_empty_containers_stay_inline(tree):
    assert dumps(tree) == reference(tree)


def nested_around(leaf):
    """leaf placed among random siblings 0-4 containers deep."""
    @st.composite
    def build(draw):
        tree = draw(leaf)
        for _ in range(draw(st.integers(0, 4))):
            siblings = draw(st.lists(trees, max_size=3))
            siblings.insert(draw(st.integers(0, len(siblings))), tree)
            kind = draw(st.sampled_from(["list", "tuple", "dict"]))
            if kind == "dict":
                names = draw(st.lists(texts, min_size=len(siblings),
                                      max_size=len(siblings), unique=True))
                tree = dict(zip(names, siblings))
            else:
                tree = siblings if kind == "list" else tuple(siblings)
        return tree
    return build()


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                               np.float64("-inf")])


@settings(max_examples=100, deadline=None)
@given(nested_around(_NON_FINITE | st.builds(lambda x: {x: 1}, _NON_FINITE)))
def test_non_finite_number_at_any_depth_raises_value_error(tree):
    with pytest.raises(ValueError):
        reference(tree)
    with pytest.raises(ValueError):
        dumps(tree)


_UNSUPPORTED = st.sampled_from([object(), {1, 2}, np.int64(3), b"bytes",
                                np.array([1.0])])


@settings(max_examples=100, deadline=None)
@given(nested_around(_UNSUPPORTED | st.builds(lambda: {(1, 2): 1})))
def test_unsupported_object_at_any_depth_raises_type_error(tree):
    with pytest.raises(TypeError) as want:
        reference(tree)
    with pytest.raises(TypeError) as got:
        dumps(tree)
    assert str(got.value) == str(want.value)


# dumps encodes a container of scalars once per depth and reuses its text
# wherever the same object appears again at that depth

_SLOT = object()


def _fill(tree, shared):
    """tree with every _SLOT replaced by the one object shared."""
    if tree is _SLOT:
        return shared
    if isinstance(tree, dict):
        return {key: _fill(value, shared) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_fill(value, shared) for value in tree)
    return tree


def sharing(shared):
    """Trees that hold one drawn object at several positions: always twice
    at depth 1 and once at depths 2 and 4, and wherever the drawn skeleton
    puts a slot."""
    skeletons = st.recursive(scalars | st.just(_SLOT), containers, max_leaves=20)

    @st.composite
    def build(draw):
        obj = draw(shared)
        skeleton = draw(skeletons)
        return _fill([_SLOT, (_SLOT, {"k": [_SLOT]}), skeleton, _SLOT], obj)
    return build()


_SCALAR_CONTAINERS = (containers(scalars)
                      | st.sampled_from([dict, list, tuple]).map(lambda t: t()))


@settings(max_examples=300, deadline=None)
@given(sharing(_SCALAR_CONTAINERS | trees))
def test_a_shared_subtree_is_written_as_json_writes_it(tree):
    assert dumps(tree) == reference(tree)


@settings(max_examples=100, deadline=None)
@given(sharing(st.builds(lambda items, value, at: items[:at] + [value] + items[at:],
                         st.lists(scalars, max_size=3), _NON_FINITE,
                         st.integers(0, 3))
               | st.builds(lambda value: (1, value), _NON_FINITE)))
def test_a_shared_container_holding_nan_still_raises(tree):
    with pytest.raises(ValueError):
        reference(tree)
    with pytest.raises(ValueError):
        dumps(tree)


def test_a_leg_in_many_rows_is_encoded_once(monkeypatch):
    leg = {"role": "L", "ticker": "O:SPY250702C00100000", "direction": 1,
           "strike": 100.0, "expiry": "2025-07-02", "price": 2.5, "iv": None}
    doc = {"strategies": [{"legs": [leg], "aggregates": {"net_debit": i / 8}}
                          for i in range(1000)]}
    calls = collections.Counter()
    level = serialize._level

    def counted(depth):
        encode, *rest = level(depth)

        def counting(obj, at):
            calls[id(obj), at] += 1
            return encode(obj, at)
        return (counting, *rest)

    level.cache_clear()
    monkeypatch.setattr(serialize, "_level", counted)
    assert dumps(doc) == reference(doc)
    # doc 0, strategies 1, a strategy 2, its legs list 3, the leg 4
    assert calls[id(leg), 4] == 1
    assert sum(calls.values()) == 1 + 1000


def test_format_number_refuses_a_non_finite_number():
    with pytest.raises(ValueError) as exc_info:
        serialize.format_number(math.inf)
    assert str(exc_info.value) == (
        "non-finite number has no canonical text form: inf")


# a dict of scalars goes to the C encoder whole; one holding a container
# is written key by key, and both refuse a bad key in the same words
@pytest.mark.parametrize("tree", [{(1, 2): "pair"}, {(1, 2): ["pair"]}],
                         ids=["scalar-values", "container-value"])
def test_dumps_refuses_a_key_json_cannot_write(tree):
    with pytest.raises(TypeError) as exc_info:
        dumps(tree)
    assert str(exc_info.value) == (
        "keys must be str, int, float, bool or None, not tuple")


@pytest.mark.parametrize("text,want", [
    ("2025-06-02", dt.date(2025, 6, 2)),
    (" 2025-06-02\n", dt.date(2025, 6, 2)),
    ("0001-01-01", dt.date(1, 1, 1)),
    ("9999-12-31", dt.date(9999, 12, 31)),
])
def test_parse_date_reads_the_iso_calendar_form(text, want):
    assert parse_date(text) == want


@pytest.mark.parametrize("text", [
    # forms fromisoformat accepts from Python 3.11 on, but not on 3.10
    "20250602", "2025-W23-1", "2025W231", "2025-153", "2025153",
    "2025-06-02T00:00", "2025-06-02x", "2025-06-0\uff12",
    "2025-6-2", "25-06-02", "+2025-06-02", "2025/06/02", "",
    "2025-13-02", "2025-02-30",
])
def test_parse_date_refuses_every_other_form(text):
    with pytest.raises(ValueError):
        parse_date(text)
