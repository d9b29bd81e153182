"""The field types of the settings dataclasses, and the JSON files that fill them.

HidingConfig, ExperimentSpec and DetectorSpec run `check_types` on
construction; `load_json` reads --config, --spec and --partition files.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import typing
from typing import Callable, Collection

from .errors import CmhideError, ConfigError

_ABSTRACT = {int: numbers.Integral, float: numbers.Real}
_MUST_BE = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


@functools.cache  # once per class: get_type_hints costs far more than a check
def _field_types(cls: type) -> tuple[tuple[str, type, bool, str], ...]:
    rows = []
    for name, tp in typing.get_type_hints(cls).items():
        listed = typing.get_origin(tp) is tuple
        tp = typing.get_args(tp)[0] if listed else tp
        if tp in _MUST_BE:  # a dataclass field checks its own fields
            must_be = f"a list, each entry {_MUST_BE[tp]}" if listed else _MUST_BE[tp]
            rows.append((name, tp, listed, must_be))
    return tuple(rows)


def fits(tp: type, value) -> bool:
    """Whether `value` may fill a field annotated `tp`."""
    if type(value) is tp:  # spares most checks the slow isinstance on an abstract class
        return True
    # bool is an int, yet no int or float field takes one
    return isinstance(value, _ABSTRACT.get(tp, tp)) and (tp is bool or not isinstance(value, bool))


def check_types(obj) -> None:
    """Hold each int, float, bool, str or tuple field of `obj` to its annotation.

    Int and float fields take no bool; a float field takes only finite
    numbers, and stores them as floats, so 1 and 1.0 run alike. A tuple field
    takes a list or tuple of its entry type, whose range checks are left to
    the class.
    """
    for name, tp, listed, must_be in _field_types(type(obj)):
        value = getattr(obj, name)
        if listed:
            if not isinstance(value, (tuple, list)) or not all(fits(tp, v) for v in value):
                raise ConfigError(f"{name} must be {must_be}, got {value!r}")
            object.__setattr__(obj, name, tuple(map(float, value)) if tp is float else tuple(value))
        elif not fits(tp, value):
            raise ConfigError(f"{name} must be {must_be}, got {value!r}")
        elif tp is float:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if not isinstance(value, float):
                object.__setattr__(obj, name, float(value))


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file named on the command line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{what} {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def from_json(value, what: str, where: str, build: Callable, keys: Collection[str], required=()):
    """`build` called on a copy of `value`, the JSON object of a `what` found `where`.

    Rejects a non-object, a missing required key and a key not in `keys`.
    Every error, those `build` raises included, names `where`.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must contain a JSON object")
    if missing := set(required) - set(value):
        raise ConfigError(f"{where} is missing keys: {', '.join(sorted(missing))}")
    if unknown := set(value) - set(keys):
        raise ConfigError(f"unknown {what} keys in {where}: {', '.join(sorted(unknown))}")
    try:
        return build(dict(value))
    except CmhideError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_json(path: str, what: str, build: Callable, keys: Collection[str], required=()):
    """`from_json` on the object in a `what` file: the one reader of JSON input files."""
    where = f"{what} file {path!r}"
    try:
        value = json.loads(read_text(path, f"{what} file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from None
    return from_json(value, what, where, build, keys, required)
