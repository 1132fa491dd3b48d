"""Deterministic JSON rendering for reports.

Finite floats are written as decimal literals with 17 significant digits,
infinities as the strings "+inf" and "-inf", and dictionaries keep their
insertion order; identical report trees therefore serialize to identical
bytes regardless of platform dictionary hashing.  JSON has no NaN token,
so a NaN raises.
"""

from __future__ import annotations

import json
import math

from .errors import InternalCheckError


def format_float(x: float) -> str:
    """Decimal literal with 17 significant digits, or the strings +-inf."""
    x = float(x)
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.17g}"


def _render(obj, out: list, indent: int, level: int) -> None:
    """Report trees hold only None, bool, int, float, str, list and dict.

    Types are matched exactly, so a numpy scalar, a tuple or an enum that
    leaks into a report raises instead of being coerced.
    """
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    kind = type(obj)
    if obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is int:
        out.append(str(obj))
    elif kind is float:
        _render_float(obj, out)
    elif kind is str:
        out.append(json.dumps(obj))
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad_in)
            _render(item, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _render(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {kind!r} into a report")


def _render_float(x: float, out: list) -> None:
    # validated input never yields a NaN, so one here is a fault of the checks
    if math.isnan(x):
        raise InternalCheckError("cannot serialize NaN into a report")
    if math.isinf(x):
        out.append(json.dumps(format_float(x)))
    else:
        out.append(format_float(x))


def render_json(obj, indent: int = 2) -> str:
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)
