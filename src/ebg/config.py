"""Plain-data construction for the frozen config dataclasses.

Every config block is a frozen dataclass: its field defaults are the
only defaults and its ``__post_init__`` is the only range check.  A
check collects every violated field of its block before it raises, so
one pass over a config reports all of its problems.  A check that reads
another field names that field in its message, after the colon.
:func:`build` is the only code that walks a config's plain data.
"""

from __future__ import annotations

import dataclasses
import json
import re
import typing


class ConfigError(ValueError):
    """Every problem found in one config block, one ``field: message`` each."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)


def raise_problems(problems: list[str]) -> None:
    """Raise one ConfigError carrying every collected problem, if any."""
    if problems:
        raise ConfigError(problems)


def read_object(path) -> dict:
    """The JSON object in the file at ``path``.

    Any other JSON value raises ConfigError; a file that is not JSON
    raises json.JSONDecodeError.  Both are ValueErrors.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: must be an object"])
    return data


def build(cls, data: dict):
    """Build config dataclass ``cls`` from plain data such as parsed JSON.

    The declared type of each field decides what its value may be: a
    field typed as a dataclass is a nested block, built from the matching
    sub-dict; an ``int`` field takes an integer and a ``float`` field any
    number, and neither takes a bool; a ``str`` field takes a string, and
    a ``str | None`` field a string or null.  Missing keys keep their
    defaults.
    Unknown keys, values of the wrong type and every violated field of
    every block are collected into one ConfigError; messages from a
    nested block are prefixed with its name.  A field whose value was
    rejected reports only that problem: the block's check reports
    nothing that names it, under its own name or as a field it reads.
    """
    types = typing.get_type_hints(cls)  # a config dataclass annotates only its fields
    problems = []
    kwargs = {}
    for key, value in data.items():
        kind = types.get(key)
        if kind is None:
            problems.append(f"{key}: unknown key")
        elif dataclasses.is_dataclass(kind):
            try:
                kwargs[key] = build_block(key, kind, value)
            except ConfigError as err:
                problems += err.problems
        elif kind is int and isinstance(value, (bool, float)):
            problems.append(f"{key}: must be an integer")
        elif kind in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))):
            problems.append(f"{key}: must be a number")
        # the arguments of str | None are (str, NoneType); str has none
        elif kind in (str, str | None) and not isinstance(value, typing.get_args(kind) or str):
            problems.append(f"{key}: must be a string")
        else:
            kwargs[key] = value
    try:
        config = cls(**kwargs)
    except ConfigError as err:
        # a rejected value left its field at the default, which the
        # block's own check must not report as a second problem
        rejected = {problem.split(":")[0] for problem in problems}
        problems = [p for p in err.problems if rejected.isdisjoint(re.findall(r"\w+", p))] + problems
    raise_problems(problems)
    return config


def build_block(name: str, cls, value):
    """:func:`build` for the block ``name``, whose problems it prefixes
    with that name; a value that is not an object is its only problem."""
    if not isinstance(value, dict):
        raise ConfigError([f"{name}: must be an object"])
    try:
        return build(cls, value)
    except ConfigError as err:
        raise ConfigError([f"{name}.{problem}" for problem in err.problems]) from None
