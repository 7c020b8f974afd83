"""Strict JSON decoding for config, report and checkpoint dataclasses.

Artifacts are written with ``dataclasses.asdict``; ``from_dict`` is its
inverse. It rebuilds nested dataclasses (lists of them too), turns JSON lists
back into tuples, and rejects unknown or missing keys so a misspelled field in
a hand-edited file fails loudly instead of falling back to a default. Values
are checked against their annotations, element by element: an ``int`` takes
no boolean or float, a ``float`` takes an integer, ``X | None`` takes null.
"""
from __future__ import annotations

import types
import typing
from dataclasses import fields, is_dataclass


def from_dict(cls, data):
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    missing = [name for name in names if name not in data]
    if unknown or missing:
        problems = [f"unknown key {key!r}" for key in unknown]
        problems += [f"missing key {key!r}" for key in missing]
        raise ValueError(f"{cls.__name__}: " + ", ".join(problems))
    decoded = {}
    for name in names:
        try:
            decoded[name] = _decode(hints[name], data[name])
        except TypeError as exc:  # a value of another type than its annotation's
            raise ValueError(f"{cls.__name__}: key {name!r}: {exc}") from None
    return cls(**decoded)


_SCALARS = {int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _decode(hint, value):
    if is_dataclass(hint):
        return from_dict(hint, value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode(args[0], value)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        items = [_decode(args[0], item) for item in value]
        return items if origin is list else tuple(items)
    if origin is dict and isinstance(value, dict):
        return {_decode(args[0], key): _decode(args[1], item) for key, item in value.items()}
    if isinstance(value, _SCALARS.get(hint, ())) and not isinstance(value, bool):
        return value
    want = (origin or hint).__name__
    raise TypeError(f"expected {want}, got {type(value).__name__}")


def from_file_dict(cls, data, path):
    """`from_dict` of ``data``, read from the file at ``path``; its error names the file."""
    try:
        return from_dict(cls, data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
