"""Shared test utilities: native oracles, random tree generation and the
environment of child interpreters."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import ebg
from ebg.expressions import (
    Binary,
    Constant,
    Expression,
    Node,
    Unary,
    UNARY_FUNCTIONS,
    Variable,
)


# --------------------------------------------------------- native oracles
# Hand-coded twins of the showcase benchmarks, written directly against
# the math module so the expression engine is checked against an
# independent route.

def ga_advantage_native(x) -> float:
    x0, x1, x2, x3, x4 = x
    return (
        x0**2
        + math.sin(x1) * x2
        + abs(x3 - x4)
        + math.sqrt(abs(x0 - x1))
        + x2 * x3 / (1 + x4**2 + abs(math.sin(x0) * math.sinh(x1)))
        + math.sinh(x0) * math.cos(x1) ** 2
        + abs(x2 - x3) ** 2 / (1 + abs(x4))
        + x0 * x1 * x2 * x3 * x4 / (1 + abs(x0) + abs(x1) + abs(x2) + abs(x3) + abs(x4))
        + math.sin(x0) * math.sin(x1) * math.sin(x2) * math.sin(x3) * math.sin(x4)
        + abs(x0 - x1) ** 2 / (1 + x2**2)
        + math.cos(x0) * math.cos(x1) * math.cos(x2) * math.cos(x3) * math.cos(x4)
        + x3 * x4 / (1 + abs(x0) + abs(x1) + abs(x2))
    )


def de_advantage_native(x) -> float:
    x0, x1, x2, x3, x4 = x
    return (
        x0**2
        + abs(x1 * x2)
        + math.sqrt(abs(x3))
        - math.sin(x4)
        + math.sin(x0 * x1)
        + math.cos(x2 * x3)
        + x0 / (1 + x4**2)
        + math.sinh(x1 * x2 * x3)
        + abs(x0 - x1 + x2 - x3 + x4)
        + math.sqrt(x0**2 + x1**2 + x2**2 + x3**2 + x4**2)
        + x1 * math.sinh(x0 * x2)
        + abs(x2 - x3) / math.sqrt(1 + x4**2)
    )


def levenshtein_bruteforce(a: str, b: str) -> int:
    """Plain recursive definition; exponential, for short strings only."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(
        levenshtein_bruteforce(a[1:], b) + 1,
        levenshtein_bruteforce(a, b[1:]) + 1,
        levenshtein_bruteforce(a[1:], b[1:]) + cost,
    )


def levenshtein_table(a: str, b: str) -> int:
    """Textbook Wagner-Fischer: the whole (m+1) x (n+1) table, no row
    tricks; O(mn), for long strings."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[len(a)][len(b)]


# --------------------------------------------------------- backend doubles


class FormulaBackend:
    """Deterministic chat stand-in: a fresh valid formula per call.

    ``supply`` bounds how many formulas are produced; past that, every
    response is unusable prose, which exercises the failure budget.
    """

    name = "scripted"

    def __init__(self, supply: int = 10**9):
        self.calls = 0
        self.supply = supply
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        self.calls += 1
        if self.calls > self.supply:
            return "I am out of ideas."
        return f"x[0]**2 + {self.calls}*abs(x[1])"


# ------------------------------------------------------------ random trees

_BINARIES = ("add", "sub", "mul", "div", "pow")


def random_tree(rng: np.random.Generator, dimension: int, depth: int) -> Node:
    """A random well-formed tree; powers get small constant exponents so
    evaluation has a fighting chance of staying finite."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Variable(int(rng.integers(0, dimension)))
        value = float(np.round(rng.uniform(0, 3), 3))
        return Constant(value)
    roll = rng.random()
    if roll < 0.4:
        op = str(rng.choice(UNARY_FUNCTIONS))
        return Unary(op, random_tree(rng, dimension, depth - 1))
    op = str(rng.choice(_BINARIES))
    left = random_tree(rng, dimension, depth - 1)
    if op == "pow":
        right = Constant(float(rng.integers(0, 4)))
    else:
        right = random_tree(rng, dimension, depth - 1)
    return Binary(op, left, right)


def random_expression(rng: np.random.Generator, dimension: int, depth: int) -> Expression:
    return Expression(random_tree(rng, dimension, depth), dimension)


# ------------------------------------------------------- child interpreters


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a child interpreter that imports the same ``ebg``
    as this one, whether it comes from an install or from ``src/``."""
    source = str(Path(ebg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)
