"""Plain-data construction for the frozen config dataclasses.

Every config block is a frozen dataclass: its field defaults are the
only defaults and its ``__post_init__`` is the only range check.  A
check collects every violated field of its block before it raises, so
one pass over a config reports all of its problems.
"""

from __future__ import annotations

import dataclasses
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
    rejected reports only that problem.
    """
    types = typing.get_type_hints(cls)  # a config dataclass annotates only its fields
    problems = []
    kwargs = {}
    for key, value in data.items():
        kind = types.get(key)
        if kind is None:
            problems.append(f"{key}: unknown key")
        elif dataclasses.is_dataclass(kind) and not isinstance(value, dict):
            problems.append(f"{key}: must be an object")
        elif dataclasses.is_dataclass(kind):
            try:
                kwargs[key] = build(kind, value)
            except ConfigError as err:
                problems += [f"{key}.{problem}" for problem in err.problems]
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
        problems = [p for p in err.problems if p.split(":")[0] not in rejected] + problems
    raise_problems(problems)
    return config
