"""Plain-data construction for the frozen config dataclasses.

Every config block is a frozen dataclass: its field defaults are the
only defaults and its ``__post_init__`` is the only range check.  A
check collects every violated field of its block before it raises, so
one pass over a config reports all of its problems.
"""

from __future__ import annotations

import dataclasses


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

    A field whose default factory is itself a dataclass is a nested
    block, built from the matching sub-dict.  Missing keys keep their
    defaults.  Unknown keys, non-numbers in numeric fields and every
    violated field of every block are collected into one ConfigError;
    messages from a nested block are prefixed with its name.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    problems = [f"{key}: unknown key" for key in data if key not in fields]
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            continue
        block = fields[key].default_factory
        if dataclasses.is_dataclass(block):
            if not isinstance(value, dict):
                problems.append(f"{key}: must be an object")
                continue
            try:
                value = build(block, value)
            except ConfigError as err:
                problems += [f"{key}.{problem}" for problem in err.problems]
                continue
        elif isinstance(fields[key].default, (int, float)) and not isinstance(value, (int, float)):
            problems.append(f"{key}: must be a number")
            continue
        kwargs[key] = value
    try:
        config = cls(**kwargs)
    except ConfigError as err:
        problems = list(err.problems) + problems
    raise_problems(problems)
    return config
