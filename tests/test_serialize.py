"""serialize.dumps writes exactly what the json module writes with a
two-space indent, ensure_ascii and allow_nan off, plus a newline, and
fails where it fails.

The reference is json's own pure-Python indenting encoder; dumps hands
each container of scalars to json's C encoder, so the trees below mix
scalar-only and nested containers at every depth.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oql.serialize import dumps


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
