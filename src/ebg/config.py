"""Plain-data construction for frozen dataclasses: configs and run records.

Every config block is a frozen dataclass: its field defaults are the
only defaults and its ``__post_init__`` is the only range check.  A
check collects every violated field of its block before it raises, so
one pass over a config reports all of its problems.  A check that reads
another field names that field in its message, after the colon.

A run's records are frozen dataclasses too: a population snapshot line,
a lineage line, a transcript line and the run summary.  :func:`build`
is the only code that walks a JSON object's plain data, whether it
holds a config or a record, and :func:`to_record` is the only writer of
a record.  The run files' one convention is that a NaN number is
written as null, and a null ``NanFloat`` field reads back as NaN.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import typing
from pathlib import Path
from typing import Annotated


class ConfigError(ValueError):
    """Every problem found in one config block, one ``field: message`` each."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)


def raise_problems(problems: list[str]) -> None:
    """Raise one ConfigError carrying every collected problem, if any."""
    if problems:
        raise ConfigError(problems)


def problems_of(err: Exception) -> tuple[str, ...]:
    """The problems ``err`` reports: each of a ConfigError's, or its text."""
    return err.problems if isinstance(err, ConfigError) else (str(err),)


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


# a float field of a run file, where null stands for NaN
NanFloat = Annotated[float, "null reads as NaN"]


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a field's plain value may be, by the field's annotation, and what
# a problem says it must be; a bool is neither an integer nor a number
KINDS = {
    int: (_integer, "an integer"),
    float: (_number, "a number"),
    NanFloat: (lambda value: value is None or _number(value), "a number or null"),
    str: (lambda value: isinstance(value, str), "a string"),
    str | None: (lambda value: value is None or isinstance(value, str), "a string"),
    bool: (lambda value: isinstance(value, bool), "a boolean"),
    tuple[int, ...]: (lambda value: isinstance(value, list) and all(map(_integer, value)), "a list of integers"),
    tuple[float, ...]: (lambda value: isinstance(value, list) and all(map(_number, value)), "a list of numbers"),
}


@functools.cache
def _fields(cls) -> tuple[dict, tuple[str, ...]]:
    """The annotation of each field of dataclass ``cls``, and the names
    of the fields that have no default, in field order."""
    required = tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return typing.get_type_hints(cls, include_extras=True), required


def build(cls, data):
    """Build dataclass ``cls``, a config block or a run record, from
    plain data such as parsed JSON.

    The declared type of each field decides what its value may be (see
    KINDS): a field typed as a dataclass is a nested block, built from
    the matching sub-dict; an ``int`` field takes an integer and a
    ``float`` field any number, and neither takes a bool; a ``str``
    field takes a string, and a ``str | None`` field a string or null; a
    tuple field takes a list; a ``NanFloat`` field reads null as NaN.
    Missing keys keep their defaults, and a missing field that has none
    is a ``field: missing`` problem.
    Data that is not an object, unknown keys, values of the wrong type
    and every violated field of every block are collected into one
    ConfigError; messages from a nested block are prefixed with its
    name.  A field whose value was rejected reports only that problem:
    the block's check reports nothing that names it, under its own name
    or as a field it reads.  A record missing a field is not built, so
    its check does not run.
    """
    if not isinstance(data, dict):
        raise ConfigError(["must be an object"])
    types, required = _fields(cls)
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
        elif not KINDS[kind][0](value):
            problems.append(f"{key}: must be {KINDS[kind][1]}")
        elif kind is NanFloat and value is None:
            kwargs[key] = math.nan
        else:
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    problems += [f"{name}: missing" for name in required if name not in data]
    built = None
    if all(name in kwargs for name in required):
        try:
            built = cls(**kwargs)
        except ConfigError as err:
            # a rejected value left its field at the default, which the
            # block's own check must not report as a second problem
            rejected = {problem.split(":")[0] for problem in problems}
            problems = [p for p in err.problems if rejected.isdisjoint(re.findall(r"\w+", p))] + problems
    raise_problems(problems)
    return built


def build_block(name: str, cls, value):
    """:func:`build` for the block ``name``, whose problems it prefixes
    with that name; a value that is not an object is its only problem."""
    if not isinstance(value, dict):
        raise ConfigError([f"{name}: must be an object"])
    try:
        return build(cls, value)
    except ConfigError as err:
        raise ConfigError([f"{name}.{problem}" for problem in err.problems]) from None


def nan_as_null(pairs) -> dict:
    """The JSON object of key-value ``pairs``, with a NaN value written as null."""
    return {key: None if isinstance(value, float) and math.isnan(value) else value for key, value in pairs}


def to_record(record) -> dict:
    """The plain data of dataclass ``record`` that :func:`build` reads
    back: its fields in order, a NaN field as null."""
    return dataclasses.asdict(record, dict_factory=nan_as_null)


def read_record(cls, path):
    """Build ``cls`` from the JSON object in the file at ``path``; each
    problem names the file."""
    data = read_object(path)
    try:
        return build(cls, data)
    except ConfigError as err:
        raise ConfigError([f"{path}: {problem}" for problem in err.problems]) from None


def read_jsonl(path: str | Path, what: str, cls, torn_tail: bool = False, check=None) -> list:
    """Build ``cls`` from every non-blank line of a JSONL file, and pass
    each record to ``check``, if given.

    A line that is not JSON, that ``build`` refuses or whose record
    ``check`` rejects with a ValueError raises a ConfigError, each of
    whose problems names ``path:line``.  With ``torn_tail``, a final line
    that lacks its newline and does not decode is an append that was
    cut short, and is skipped.
    """
    items = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                item = build(cls, json.loads(line))
                if check is not None:
                    check(item)
            except ValueError as err:  # JSONDecodeError and ConfigError are ValueErrors
                if torn_tail and not line.endswith("\n"):  # only the last line can lack it
                    break
                raise ConfigError([f"{path}:{number}: bad {what} record: {p}" for p in problems_of(err)]) from err
            items.append(item)
    return items
