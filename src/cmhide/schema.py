"""The type rule HidingConfig, ExperimentSpec and DetectorSpec apply on construction."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing

from .errors import ConfigError

_ABSTRACT = {int: numbers.Integral, float: numbers.Real}
_MUST_BE = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


@functools.cache  # once per class: get_type_hints costs far more than a check
def _field_types(cls: type) -> tuple[tuple[str, type | tuple, bool, str], ...]:
    rows = []
    for name, tp in typing.get_type_hints(cls).items():
        listed = typing.get_origin(tp) is tuple
        optional = typing.get_args(tp)[1:] == (type(None),)  # X | None
        tp = typing.get_args(tp)[0] if listed or optional else tp
        if tp in _MUST_BE and not optional:
            must_be = f"a list, each entry {_MUST_BE[tp]}" if listed else _MUST_BE[tp]
            rows.append((name, tp, listed, must_be))
        elif dataclasses.is_dataclass(tp):  # whose own fields it checks on construction
            must_be = f"a {tp.__name__} or None" if optional else f"a {tp.__name__}"
            rows.append((name, (tp, type(None)) if optional else tp, False, must_be))
    return tuple(rows)


def fits(tp: type | tuple, value) -> bool:
    """Whether `value` may fill a field annotated `tp`."""
    if type(value) is tp:  # spares most checks the slow isinstance on an abstract class
        return True
    # bool is an int, yet no int or float field takes one
    return isinstance(value, _ABSTRACT.get(tp, tp)) and (tp is bool or not isinstance(value, bool))


def check_types(obj) -> None:
    """Hold each int, float, bool, str, tuple or dataclass field of `obj` to its annotation.

    A dataclass field takes an instance, or None if annotated `X | None`.
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
