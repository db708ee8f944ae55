"""Canonical text formatting helpers: numbers, dates, JSON.

Byte-stable output is a contract of this package (same input, same bytes),
so every number that reaches a file or stdout goes through one formatter.
"""

import datetime as _dt
import functools
import math
import re
from json.encoder import c_make_encoder, encode_basestring


def format_number(x: float) -> str:
    """Shortest round-trip decimal; integral values drop the decimal point.

    300.0 -> "300", 0.2 -> "0.2", -0.345 -> "-0.345".
    """
    f = float(x)
    if not math.isfinite(f):
        raise ValueError(f"non-finite number has no canonical text form: {f!r}")
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


_DATE_FORM = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> _dt.date:
    """A date written exactly YYYY-MM-DD, surrounding whitespace aside.

    ValueError otherwise: fromisoformat alone also takes 20250602 and
    2025-W23-1 on Python 3.11 and later, but not on 3.10.
    """
    text = text.strip()
    if not _DATE_FORM.fullmatch(text):
        raise ValueError(f"date must be YYYY-MM-DD, got {text!r}")
    return _dt.date.fromisoformat(text)


def format_date(d: _dt.date) -> str:
    return d.isoformat()


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


def _unsupported(obj):
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


@functools.cache
def _level(depth: int) -> tuple:
    """(C encoder, opening indent, item separator, closing indent) of one
    nesting depth; the encoder writes an all-scalar container there."""
    inner = "\n" + _INDENT * (depth + 1)
    # markers None: a container of scalars cannot hold a cycle
    encode = c_make_encoder(None, _unsupported, encode_basestring, None, ": ",
                            "," + inner, False, False, False)
    return encode, inner, "," + inner, "\n" + _INDENT * depth


def _key(key) -> str:
    """A dict key as JSON text, converted as json converts it."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = "".join(_level(0)[0](key, 0))
    return encode_basestring(key)


def _emit(obj, depth: int, out: list[str], memo: dict) -> None:
    """Append the indented JSON text of obj, nested `depth` deep, to out.

    memo maps (id, depth) of each container of scalars written so far to
    its text, so a repeated one is encoded once.
    """
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        out.append("".join(_level(0)[0](obj, 0)))
        return
    seen = (id(obj), depth)
    text = memo.get(seen)
    if text is not None:
        out.append(text)
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    encode, inner, sep, close = _level(depth)
    for value in values:
        if isinstance(value, _CONTAINERS):
            break
    else:
        # every value is a scalar: one C call writes the items, each on
        # its own line; only the brackets' lines are added here
        text = "".join(encode(obj, depth))
        text = memo[seen] = f"{text[0]}{inner}{text[1:-1]}{close}{text[-1]}"
        out.append(text)
        return
    if isinstance(obj, dict):
        head = "{" + inner
        for key, value in obj.items():
            out += (head, _key(key), ": ")
            _emit(value, depth + 1, out, memo)
            head = sep
        out += (close, "}")
    else:
        head = "[" + inner
        for value in obj:
            out.append(head)
            _emit(value, depth + 1, out, memo)
            head = sep
        out += (close, "]")


def dumps(obj) -> str:
    """Canonical JSON: two-space indent, insertion key order, trailing newline.

    The text is byte for byte what the json module writes with a two-space
    indent, ensure_ascii and allow_nan off, plus "\n"; like it, this
    raises ValueError on NaN or infinity and TypeError on an object JSON
    has no form for. Given an indent, json falls back to its pure-Python
    encoder, one generator step per item. Here Python walks only the
    containers that hold containers, and json's C encoder writes each
    container of scalars (a result's legs and aggregates) in one call,
    with the item separator of its depth: a comma, a newline and the
    indent. A container of scalars that appears more than once at one
    depth (a leg shared by many strategies) is encoded once and its text
    reused; ids are stable for the call because obj keeps every object
    in it alive.
    """
    out: list[str] = []
    _emit(obj, 0, out, {})
    out.append("\n")
    return "".join(out)
