"""Batch expression evaluation kernels.

Scoring one candidate benchmark costs millions of objective evaluations
(2 algorithms x trials x population x generations), so expressions are
compiled once and evaluated over whole batches of points.  A kernel
answers one question per point: the value, or invalid.  A point is
invalid exactly when :func:`ebg.expressions.evaluate` reports a cause
there (a domain error, NaN, or an infinity at any subterm); callers that
need the cause string ask ``evaluate`` for it at the point in question.

:func:`compile_program` turns an expression into a flat postfix program
(``codes``/``operands``) and decodes it, once, into a tuple of
``(kind, arg)`` steps with the numpy function of each operation already
resolved.  Two interchangeable backends implement identical semantics:

* a pure-numpy interpreter that walks the steps over whole columns; it
  runs wherever numba is not importable, or when ``EBG_NUMBA=0``;
* a numba ``@njit`` twin of it that loops over points and reads the
  postfix codes; it is used when numba imports.

A power whose exponent is a constant (a literal or its negation) and
whose base reads ``x`` is one step, its exponent rule decided at compile
time (see :func:`_constant_power_steps`); every other power takes the
general rule in :func:`_power`.  Both give the same bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .expressions import (
    INTEGER_POWER_TOLERANCE,
    Constant,
    Expression,
    Node,
    Unary,
    Variable,
)

# opcode layout: leaf ops, then unaries, then binaries
OP_CONST = 0
OP_VAR = 1
OP_NEG = 2
OP_SQRT = 3
OP_SIN = 4
OP_COS = 5
OP_TAN = 6
OP_SINH = 7
OP_COSH = 8
OP_TANH = 9
OP_ABS = 10
OP_ADD = 11
OP_SUB = 12
OP_MUL = 13
OP_DIV = 14
OP_POW = 15

# (opcode, numpy function) per operator
_UNARY_OPS = {
    "neg": (OP_NEG, np.negative),
    "sqrt": (OP_SQRT, np.sqrt),
    "sin": (OP_SIN, np.sin),
    "cos": (OP_COS, np.cos),
    "tan": (OP_TAN, np.tan),
    "sinh": (OP_SINH, np.sinh),
    "cosh": (OP_COSH, np.cosh),
    "tanh": (OP_TANH, np.tanh),
    "abs": (OP_ABS, np.abs),
}
_BINARY_OPS = {
    "add": (OP_ADD, np.add),
    "sub": (OP_SUB, np.subtract),
    "mul": (OP_MUL, np.multiply),
    "div": (OP_DIV, np.divide),
    "pow": (OP_POW, None),
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
    operands: np.ndarray  # float64, constant value or variable index
    stack_need: int
    dimension: int
    steps: tuple  # (kind, arg) pairs for the numpy interpreter


def _constant_exponent(node: Node) -> float | None:
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Unary) and node.op == "neg" and isinstance(node.operand, Constant):
        return -node.operand.value
    return None


def compile_program(expr: Expression) -> Program:
    codes: list[int] = []
    operands: list[float] = []
    steps: list[tuple] = []

    def emit(node) -> tuple[int, bool]:
        # returns the stack depth needed to evaluate this subtree and
        # whether it reads x
        if isinstance(node, Constant):
            codes.append(OP_CONST)
            operands.append(node.value)
            steps.append((STEP_CONST, np.float64(node.value)))
            return 1, False
        if isinstance(node, Variable):
            codes.append(OP_VAR)
            operands.append(float(node.index))
            steps.append((STEP_VAR, node.index))
            return 1, True
        if isinstance(node, Unary):
            need, reads_x = emit(node.operand)
            code, function = _UNARY_OPS[node.op]
            codes.append(code)
            operands.append(0.0)
            if code == OP_TANH:
                steps.append((STEP_CHECK, np.isinf))
            steps.append((STEP_UNARY, function))
            return need, reads_x
        need_left, left_reads_x = emit(node.left)
        mark = len(steps)
        need_right, right_reads_x = emit(node.right)
        code, function = _BINARY_OPS[node.op]
        codes.append(code)
        operands.append(0.0)
        if code == OP_POW:
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
            if code == OP_DIV:
                steps.append((STEP_CHECK, _nonfinite))
            steps.append((STEP_BINARY, function))
        return max(need_left, need_right + 1), left_reads_x or right_reads_x

    need, _ = emit(expr.root)
    return Program(
        codes=np.asarray(codes, dtype=np.int64),
        operands=np.asarray(operands, dtype=np.float64),
        stack_need=need,
        dimension=expr.dimension,
        steps=tuple(steps),
    )


# ------------------------------------------------------------- numba path


def _eval_program_scalar(codes, operands, X, stack_need):
    """Point-by-point twin of the numpy kernel, compiled by numba.

    It calls numpy's functions, not math's, so that it also runs as
    plain Python (math.sinh raises on overflow where numba returns inf);
    the tests run it that way where numba is missing.  Each point stops
    at its first failing operation.
    """
    n = X.shape[0]
    m = codes.shape[0]
    values = np.empty(n, dtype=np.float64)
    invalid = np.zeros(n, dtype=np.bool_)
    stack = np.empty(stack_need, dtype=np.float64)
    for p in range(n):
        sp = 0
        bad = False
        for k in range(m):
            op = codes[k]
            if op == OP_CONST:
                stack[sp] = operands[k]
                sp += 1
                continue
            if op == OP_VAR:
                r = X[p, int(operands[k])]
            elif op <= OP_ABS:
                a = stack[sp - 1]
                sp -= 1
                if op == OP_NEG:
                    r = -a
                elif op == OP_SQRT:
                    if a < 0.0:
                        bad = True
                        break
                    r = np.sqrt(a)
                elif op == OP_SIN:
                    r = np.sin(a)
                elif op == OP_COS:
                    r = np.cos(a)
                elif op == OP_TAN:
                    r = np.tan(a)
                elif op == OP_SINH:
                    r = np.sinh(a)
                elif op == OP_COSH:
                    r = np.cosh(a)
                elif op == OP_TANH:
                    r = np.tanh(a)
                else:
                    r = abs(a)
            else:
                b = stack[sp - 1]
                a = stack[sp - 2]
                sp -= 2
                if op == OP_ADD:
                    r = a + b
                elif op == OP_SUB:
                    r = a - b
                elif op == OP_MUL:
                    r = a * b
                elif op == OP_DIV:
                    if b == 0.0:
                        bad = True
                        break
                    r = a / b
                else:
                    if a < 0.0:
                        nb = np.rint(b)
                        if abs(b - nb) > INTEGER_POWER_TOLERANCE:
                            bad = True
                            break
                        mag = (-a) ** nb
                        r = -mag if nb % 2.0 != 0.0 else mag
                    elif a == 0.0 and b < 0.0:
                        bad = True
                        break
                    else:
                        r = a ** b
            if not np.isfinite(r):
                bad = True
                break
            stack[sp] = r
            sp += 1
        values[p] = np.nan if bad else stack[0]
        invalid[p] = bad
    return values, invalid


def _numba_enabled() -> bool:
    flag = os.environ.get("EBG_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


HAS_NUMBA = False
_eval_program_jit = None
if _numba_enabled():
    try:
        import numba

        _eval_program_jit = numba.njit(cache=True, nogil=True)(_eval_program_scalar)
        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False


# ------------------------------------------------------------- numpy path


def _nonfinite(a):
    return ~np.isfinite(a)


def _negative(a):
    return a < 0.0


def _eval_program_vectorized(steps, X):
    """Walk decoded steps over whole columns.

    Under numpy every domain error yields NaN or an infinity (sqrt of a
    negative, x/0, a fractional power of a negative base, 0 to a
    negative power), and a non-finite operand gives a non-finite result
    in every operation but three: tanh(inf) is 1, x/inf is 0, and pow
    maps nan**0, 1**nan, inf**-1 and 0.5**inf to finite numbers.  Only
    those three mark their non-finite operands invalid, through check
    steps; every other failure reaches the root, where one finiteness
    check catches it.  Constants stay numpy scalars and broadcast.
    """
    columns = X.T.copy()
    invalid = np.zeros(X.shape[0], dtype=np.bool_)
    stack: list = []
    push, pop = stack.append, stack.pop
    with np.errstate(all="ignore"):
        for kind, arg in steps:
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


# ------------------------------------------------------------- dispatcher


def backend_name() -> str:
    return "numba" if HAS_NUMBA else "numpy"


def eval_program_numpy(program: Program, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _eval_program_vectorized(program.steps, X)


def eval_program_numba(program: Program, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not HAS_NUMBA:
        raise RuntimeError("numba backend is unavailable (EBG_NUMBA=0 or numba missing)")
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _eval_program_jit(program.codes, program.operands, X, program.stack_need)


def eval_program(program: Program, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at a batch of points; returns (values, invalid mask).

    ``X`` has shape (n, dimension).  Invalid points carry NaN in
    ``values`` and True in the mask.
    """
    if X.ndim != 2 or X.shape[1] != program.dimension:
        raise ValueError(f"batch shape {X.shape} does not match dimension {program.dimension}")
    if HAS_NUMBA:
        return eval_program_numba(program, X)
    return eval_program_numpy(program, X)
