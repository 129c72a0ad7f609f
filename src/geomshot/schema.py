"""The one type-and-range check behind every config dataclass.

A config declares each field once: its annotation gives the type and
``setting`` puts the range beside it. Every ``__post_init__`` calls
``check_fields``, so a config read from YAML and one built in Python are
checked alike; ``config`` documents the rule and the error form.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields

from .errors import InvalidConfig

# How a breach names what each annotation admits.
_NOUNS = {
    "int": "an integer",
    "float": "a finite number",
    "float | None": "a finite number",
    "bool": "a boolean",
    "str": "a string",
    "tuple[float, float]": "a pair of finite numbers",
    "tuple[int, ...]": "a non-empty list of distinct integers",
    "str | None": "a non-empty string",
}


def setting(default=MISSING, *, ge=None, gt=None, lt=None, choices=None):
    """A dataclass field with its range: bounds ``ge`` (>=), ``gt`` (>), ``lt`` (<), or ``choices``."""
    return field(default=default, metadata={"ge": ge, "gt": gt, "lt": lt, "choices": choices})


def _valid(kind: str, rule, value) -> bool:
    if kind == "bool":
        return type(value) is bool
    if kind == "str":
        return type(value) is str and (rule.get("choices") is None or value in rule["choices"])
    if kind == "tuple[float, float]":
        return type(value) is tuple and len(value) == 2 and all(_valid("float", rule, v) for v in value)
    if kind == "tuple[int, ...]":  # a YAML list, or a tuple built in Python; set() hashes only checked items
        items_ok = type(value) in (list, tuple) and all(_valid("int", rule, v) for v in value)
        return items_ok and 0 < len(set(value)) == len(value)
    if kind == "str | None":
        return value is None or (type(value) is str and value != "")
    if kind == "float | None" and value is None:
        return True
    # bool is an int subclass, hence type() and not isinstance(); only float kinds take a float.
    if not (type(value) is int or (kind != "int" and type(value) is float and math.isfinite(value))):
        return False
    ge, gt, lt = rule.get("ge"), rule.get("gt"), rule.get("lt")
    return (ge is None or value >= ge) and (gt is None or value > gt) and (lt is None or value < lt)


def _describe(kind: str, rule) -> str:
    if rule.get("choices") is not None:
        return f"one of {rule['choices']}"
    if kind == "int" and rule.get("ge") == 0:
        return "a non-negative integer"
    text = _NOUNS[kind]
    if rule.get("lt") is not None:
        text += f" in [{rule['ge']}, {rule['lt']})"
    elif rule.get("gt") is not None:
        text += f" > {rule['gt']}"
    elif rule.get("ge") is not None:
        text += f" >= {rule['ge']}"
    return text + (" or null" if kind == "float | None" else "")


def check_fields(config, section: str) -> None:
    """Raise ``InvalidConfig`` naming the first field of ``config`` that breaks its rule."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not _valid(f.type, f.metadata, value):
            where = f"{section}.{f.name}" if section else f.name
            raise InvalidConfig(f"{where} must be {_describe(f.type, f.metadata)}, got {value!r}")
