"""Batch expression evaluation kernel.

Scoring one candidate benchmark costs millions of objective evaluations
(2 algorithms x trials x population x generations), so expressions are
compiled once and evaluated over whole batches of points.  The kernel
answers one question per point: the value, or invalid.  A point is
invalid exactly when :func:`ebg.expressions.evaluate` reports a cause
there (a domain error, NaN, or an infinity at any subterm); callers that
need the cause string ask ``evaluate`` for it at the point in question.

:func:`compile_program` turns an expression into a flat postfix program
(``codes``) and decodes it, once, into a tuple of ``(kind, arg)`` steps
with the numpy function of each operation already resolved.
:func:`eval_program` walks those steps over whole columns with numpy.
It is the only fast path, so values depend only on the expression and
the points, not on which packages are installed.

A power whose exponent is a constant (a literal or its negation) and
whose base reads ``x`` is one step, its exponent rule decided at compile
time (see :func:`_constant_power_steps`); every other power takes the
general rule in :func:`_power`.  Both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import (
    BINARY_OPERATORS,
    INTEGER_POWER_TOLERANCE,
    UNARY_FUNCTIONS,
    Constant,
    Expression,
    Node,
    Unary,
    Variable,
)

# one opcode per instruction: leaf ops, then unaries, then binaries
OPCODES = {
    name: code
    for code, name in enumerate(("const", "var") + UNARY_FUNCTIONS + BINARY_OPERATORS)
}

_UNARY_FUNCTIONS = {
    "neg": np.negative,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
}
_BINARY_FUNCTIONS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}

# step kinds of a decoded program
STEP_CONST = 0  # push arg, a float64 scalar
STEP_VAR = 1  # push column arg of the batch
STEP_UNARY = 2  # replace the top with arg(top)
STEP_BINARY = 3  # replace the top two, a and b, with arg(a, b)
STEP_CHECK = 4  # mark invalid where arg(top) is true
STEP_POWER = 5  # replace the top two with the general power rule


@dataclass(frozen=True)
class Program:
    """Flat postfix form of one expression, and its decoded steps."""

    codes: np.ndarray  # int64, one opcode per instruction
    dimension: int
    steps: tuple  # (kind, arg) pairs, walked by eval_program


def _constant_exponent(node: Node) -> float | None:
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Unary) and node.op == "neg" and isinstance(node.operand, Constant):
        return -node.operand.value
    return None


def compile_program(expr: Expression) -> Program:
    codes: list[int] = []
    steps: list[tuple] = []

    def emit(node) -> bool:
        # returns whether the subtree reads x
        if isinstance(node, Constant):
            codes.append(OPCODES["const"])
            steps.append((STEP_CONST, np.float64(node.value)))
            return False
        if isinstance(node, Variable):
            codes.append(OPCODES["var"])
            steps.append((STEP_VAR, node.index))
            return True
        if isinstance(node, Unary):
            reads_x = emit(node.operand)
            codes.append(OPCODES[node.op])
            if node.op == "tanh":
                steps.append((STEP_CHECK, np.isinf))
            steps.append((STEP_UNARY, _UNARY_FUNCTIONS[node.op]))
            return reads_x
        left_reads_x = emit(node.left)
        mark = len(steps)
        right_reads_x = emit(node.right)
        codes.append(OPCODES[node.op])
        if node.op == "pow":
            exponent = _constant_exponent(node.right)
            power = None
            if left_reads_x and exponent is not None:
                power = _constant_power_steps(exponent)
            if power is None:
                steps.append((STEP_POWER, None))
            else:
                # the exponent is folded into the power step
                del steps[mark:]
                steps.extend(power)
        else:
            if node.op == "div":
                steps.append((STEP_CHECK, _nonfinite))
            steps.append((STEP_BINARY, _BINARY_FUNCTIONS[node.op]))
        return left_reads_x or right_reads_x

    emit(expr.root)
    return Program(
        codes=np.asarray(codes, dtype=np.int64),
        dimension=expr.dimension,
        steps=tuple(steps),
    )


def _nonfinite(a):
    return ~np.isfinite(a)


def _negative(a):
    return a < 0.0


def _power(a, b, invalid: np.ndarray):
    """``a ** b`` with the reference's sign rule; marks ``invalid``."""
    invalid |= ~(np.isfinite(a) & np.isfinite(b))
    neg = a < 0.0
    nearest = np.rint(b)
    invalid |= neg & (np.abs(b - nearest) > INTEGER_POWER_TOLERANCE)
    mag = np.power(np.where(neg, -a, a), np.where(neg, nearest, b))
    return np.where(neg & (np.fmod(nearest, 2.0) != 0.0), -mag, mag)


def _constant_power_steps(exponent: float) -> list | None:
    """Steps for ``a ** exponent`` at an array ``a``, or None when only
    :func:`_power` gives the reference's value.

    That is an exponent within ``INTEGER_POWER_TOLERANCE`` of an integer
    but not one: ``_power`` raises negative bases to the nearest integer
    and the others to the exponent itself.  Otherwise one exponent serves
    every point.  An odd integer exponent restores the sign of ``a``; a
    fractional one marks negative bases; an exponent <= 0 marks
    non-finite bases, because nan**0 and inf**-1 are finite.  A non-finite
    ``a`` with a positive exponent gives a non-finite power, which a later
    check or the root check marks.  The exponent is passed as a full array, never as a scalar:
    numpy picks another loop for a scalar exponent, whose results can
    differ from ``_power``'s in the last bit.
    """
    integer = exponent.is_integer()
    if not integer and abs(exponent - np.rint(exponent)) <= INTEGER_POWER_TOLERANCE:
        return None
    steps = []
    if exponent <= 0.0:
        steps.append((STEP_CHECK, _nonfinite))
    if not integer:
        steps.append((STEP_CHECK, _negative))
    odd = integer and math.fmod(exponent, 2.0) != 0.0

    def power(a):
        magnitude = np.power(np.abs(a), np.full_like(a, exponent))
        return np.copysign(magnitude, a) if odd else magnitude

    steps.append((STEP_UNARY, power))
    return steps


def backend_name() -> str:
    """Name of the evaluation backend, recorded with benchmark results."""
    return "numpy"


def eval_program(program: Program, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at a batch of points; returns (values, invalid mask).

    ``X`` has shape (n, dimension).  Invalid points carry NaN in
    ``values`` and True in the mask.

    Under numpy every domain error yields NaN or an infinity (sqrt of a
    negative, x/0, a fractional power of a negative base, 0 to a
    negative power), and a non-finite operand gives a non-finite result
    in every operation but three: tanh(inf) is 1, x/inf is 0, and pow
    maps nan**0, 1**nan, inf**-1 and 0.5**inf to finite numbers.  Only
    those three mark their non-finite operands invalid, through check
    steps; every other failure reaches the root, where one finiteness
    check catches it.  Constants stay numpy scalars and broadcast.
    """
    if X.ndim != 2 or X.shape[1] != program.dimension:
        raise ValueError(f"batch shape {X.shape} does not match dimension {program.dimension}")
    columns = np.ascontiguousarray(X, dtype=np.float64).T.copy()
    invalid = np.zeros(X.shape[0], dtype=np.bool_)
    stack: list = []
    push, pop = stack.append, stack.pop
    with np.errstate(all="ignore"):
        for kind, arg in program.steps:
            if kind == STEP_VAR:
                push(columns[arg])
            elif kind == STEP_BINARY:
                b = pop()
                push(arg(pop(), b))
            elif kind == STEP_UNARY:
                push(arg(pop()))
            elif kind == STEP_CONST:
                push(arg)
            elif kind == STEP_CHECK:
                invalid |= arg(stack[-1])
            else:
                b = pop()
                push(_power(pop(), b, invalid))
    values = pop()
    invalid |= ~np.isfinite(values)
    return np.where(invalid, np.nan, values), invalid
