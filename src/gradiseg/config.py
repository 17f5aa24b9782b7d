"""Flat key = value run configuration files mapping onto TrainSchedule fields.

Lines are `key = value` (or `key=value`); blank lines and #-comments are
ignored. Values are parsed as bool/int/float by the field's annotation.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .trainer import TrainSchedule

# field annotations are strings such as "int" or "int | None"
_KINDS = {"bool": bool, "int": int, "float": float}
_FIELD_KINDS = {f.name: _KINDS[f.type.split(" |")[0]] for f in fields(TrainSchedule)}


def _parse_value(raw: str, kind):
    raw = raw.strip().strip('"').strip("'")
    if kind is not bool:
        return kind(raw)
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse {raw!r} as bool")


def load_train_config(path, overrides: dict | None = None) -> TrainSchedule:
    """TrainSchedule from a key=value file (path may be None for defaults)."""
    values: dict = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _FIELD_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _parse_value(raw, _FIELD_KINDS[key])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {key}: {e}") from None
    if overrides:
        values.update(overrides)
    return TrainSchedule(**values)
