"""Strict JSON decoding for config, report and checkpoint dataclasses.

Artifacts are written with ``dataclasses.asdict``; ``from_dict`` is its
inverse. It rebuilds nested dataclasses (lists of them too), turns JSON lists
back into tuples, and rejects unknown or missing keys so a misspelled field in
a hand-edited file fails loudly instead of falling back to a default.
"""
from __future__ import annotations

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
    return cls(**{name: _decode(hints[name], data[name]) for name in names})


def _decode(hint, value):
    if is_dataclass(hint):
        return from_dict(hint, value)
    origin = typing.get_origin(hint)
    if origin is tuple and isinstance(value, list):
        return tuple(value)
    if origin is list and is_dataclass(typing.get_args(hint)[0]):
        return [from_dict(typing.get_args(hint)[0], item) for item in value]
    return value


def from_file_dict(cls, data, path):
    """`from_dict` of ``data``, read from the file at ``path``; its error names the file."""
    try:
        return from_dict(cls, data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
