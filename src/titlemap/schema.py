"""Typed fields of the config dataclasses (`SynthConfig`, `PoincareConfig`,
`TrainConfig`, all three defined in `config.py`), read from the classes
themselves.

The CLI derives its config sections from `field_specs`, and both the CLI and
the model artifact loader construct a dataclass through `build`, so a field's
name, type and default are written down exactly once. Range checks stay in
each dataclass's `__post_init__`.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import get_type_hints

from .errors import ConfigError


def accepts(kind: type, value) -> bool:
    """JSON type check. A bool is neither an int nor a float; an int is a
    float, and a float must be finite (`json` reads NaN, Infinity and 1e400);
    a tuple field is a JSON list."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    if kind is tuple:
        return isinstance(value, list)
    return isinstance(value, kind)


def rejection(value) -> str:
    """Why `accepts` turned `value` down, worded to follow a key's name."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"is {value}, not a finite number"
    return f"has type {type(value).__name__}"


def field_specs(cls) -> dict:
    """Field name -> (type, JSON default) of a config dataclass, in field order."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], list(f.default) if isinstance(f.default, tuple) else f.default)
        for f in fields(cls)
    }


def build(cls, values):
    """Construct `cls` from a JSON object that names exactly its fields.

    Unknown or missing fields and wrong types raise `ConfigError`; float
    fields take ints as floats and tuple fields take lists.
    """
    specs = field_specs(cls)
    if not isinstance(values, dict):
        raise ConfigError(f"{cls.__name__} must be an object, got {type(values).__name__}")
    extra, missing = sorted(set(values) - set(specs)), sorted(set(specs) - set(values))
    if extra or missing:
        raise ConfigError(f"{cls.__name__}: unknown fields {extra}, missing fields {missing}")
    kwargs = {}
    for name, (kind, _) in specs.items():
        value = values[name]
        if not accepts(kind, value):
            raise ConfigError(f"{cls.__name__}.{name} {rejection(value)}")
        kwargs[name] = float(value) if kind is float else tuple(value) if kind is tuple else value
    return cls(**kwargs)
