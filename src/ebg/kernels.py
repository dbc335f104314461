"""Batch expression evaluation kernels.

Scoring one candidate benchmark costs millions of objective evaluations
(2 algorithms x trials x population x generations), so expressions are
compiled once into a flat postfix program and evaluated over whole
batches of points.  A kernel answers one question per point: the value,
or invalid.  A point is invalid exactly when :func:`ebg.expressions.evaluate`
reports a cause there (a domain error, NaN, or an infinity at any
subterm); callers that need the cause string ask ``evaluate`` for it at
the point in question.  Two interchangeable backends implement identical
semantics:

* a numba ``@njit`` stack machine looping over points (default), and
* a pure-numpy vectorized interpreter used as fallback.

Set ``EBG_NUMBA=0`` to force the numpy path; the numba path is also
skipped automatically when numba is not importable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .expressions import (
    INTEGER_POWER_TOLERANCE,
    Binary,
    Constant,
    Expression,
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

_UNARY_CODES = {
    "neg": OP_NEG,
    "sqrt": OP_SQRT,
    "sin": OP_SIN,
    "cos": OP_COS,
    "tan": OP_TAN,
    "sinh": OP_SINH,
    "cosh": OP_COSH,
    "tanh": OP_TANH,
    "abs": OP_ABS,
}
_BINARY_CODES = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV, "pow": OP_POW}

@dataclass(frozen=True)
class Program:
    """Flat postfix form of one expression."""

    codes: np.ndarray  # int64, one opcode per instruction
    operands: np.ndarray  # float64, constant value or variable index
    stack_need: int
    dimension: int


def compile_program(expr: Expression) -> Program:
    codes: list[int] = []
    operands: list[float] = []

    def emit(node) -> int:
        # returns the stack depth needed to evaluate this subtree
        if isinstance(node, Constant):
            codes.append(OP_CONST)
            operands.append(node.value)
            return 1
        if isinstance(node, Variable):
            codes.append(OP_VAR)
            operands.append(float(node.index))
            return 1
        if isinstance(node, Unary):
            need = emit(node.operand)
            codes.append(_UNARY_CODES[node.op])
            operands.append(0.0)
            return need
        need_left = emit(node.left)
        need_right = emit(node.right)
        codes.append(_BINARY_CODES[node.op])
        operands.append(0.0)
        return max(need_left, need_right + 1)

    need = emit(expr.root)
    return Program(
        codes=np.asarray(codes, dtype=np.int64),
        operands=np.asarray(operands, dtype=np.float64),
        stack_need=need,
        dimension=expr.dimension,
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


def _eval_program_vectorized(codes, operands, X):
    """Stack machine over whole columns.

    Under numpy every domain error yields NaN or an infinity (sqrt of a
    negative, x/0, a fractional power of a negative base, 0 to a
    negative power), and a non-finite operand gives a non-finite result
    in every operation but three: tanh(inf) is 1, x/inf is 0, and pow
    maps nan**0, 1**nan, inf**-1 and 0.5**inf to finite numbers.  Only
    those three mark their non-finite operands invalid; every other
    failure reaches the root, where one finiteness check catches it.
    Constants stay numpy scalars and broadcast.
    """
    n = X.shape[0]
    columns = X.T.copy()
    invalid = np.zeros(n, dtype=np.bool_)
    stack: list = []
    with np.errstate(all="ignore"):
        for k in range(codes.shape[0]):
            op = int(codes[k])
            if op == OP_CONST:
                stack.append(operands[k])
                continue
            if op == OP_VAR:
                r = columns[int(operands[k])]
            elif op <= OP_ABS:
                a = stack.pop()
                if op == OP_NEG:
                    r = -a
                elif op == OP_SQRT:
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
                    invalid |= np.isinf(a)
                    r = np.tanh(a)
                else:
                    r = np.abs(a)
            else:
                b = stack.pop()
                a = stack.pop()
                if op == OP_ADD:
                    r = a + b
                elif op == OP_SUB:
                    r = a - b
                elif op == OP_MUL:
                    r = a * b
                elif op == OP_DIV:
                    invalid |= ~np.isfinite(b)
                    r = a / b
                else:
                    r = _power(a, b, invalid)
            stack.append(r)
    values = stack.pop()
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


# ------------------------------------------------------------- dispatcher


def backend_name() -> str:
    return "numba" if HAS_NUMBA else "numpy"


def eval_program_numpy(program: Program, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _eval_program_vectorized(program.codes, program.operands, X)


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
