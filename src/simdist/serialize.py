"""Deterministic JSON and CSV serialization.

Floats are written with 17 significant digits (round-trip exact), dict keys
are sorted, and the decimal separator is always '.', so identical inputs
produce byte-identical output across runs and platforms.

A dataclass is written as all its fields, each under its own name, or under
its `metadata["key"]` where that is set.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from functools import cache

import numpy as np

__all__ = ["document", "dumps", "format_float", "to_csv"]


@cache
def _keys(cls) -> tuple[tuple[str, str], ...]:
    """(attribute, key) of each field, read once per class."""
    return tuple((f.name, f.metadata.get("key", f.name)) for f in fields(cls))


def document(obj) -> dict:
    """The dict a dataclass is written as; nested dataclasses stay objects."""
    return {key: getattr(obj, name) for name, key in _keys(type(obj))}


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {value!r} cannot be serialized")
    return "%.17g" % value


def _encode(obj, pieces: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            pieces.append(inner)
            pieces.append(json.dumps(key))
            pieces.append(": ")
            _encode(obj[key], pieces, indent, level + 1)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(items):
            pieces.append(inner)
            _encode(item, pieces, indent, level + 1)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(pad + "]")
    elif hasattr(type(obj), "__dataclass_fields__"):
        _encode(document(obj), pieces, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    pieces: list = []
    _encode(obj, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"
