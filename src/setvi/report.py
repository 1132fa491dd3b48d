"""Deterministic JSON rendering for reports.

Finite floats are written as decimal literals with 17 significant digits,
infinities as the strings "+inf" and "-inf", and dictionaries keep their
insertion order; identical report trees therefore serialize to identical
bytes regardless of platform dictionary hashing.
"""

from __future__ import annotations

import json
import math
from enum import Enum

import numpy as np


def format_float(x: float) -> str:
    """Decimal literal with 17 significant digits, or the strings +-inf."""
    x = float(x)
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.17g}"


def _render(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, Enum):
        out.append(json.dumps(obj.value))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _render_float(float(obj), out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out, indent, level)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad_in)
            _render(item, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
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
    elif hasattr(obj, "to_dict"):
        _render(obj.to_dict(), out, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} into a report")


def _render_float(x: float, out: list) -> None:
    if math.isinf(x):
        out.append(json.dumps(format_float(x)))
    else:
        out.append(format_float(x))


def render_json(obj, indent: int = 2) -> str:
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)
