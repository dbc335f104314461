from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from ebg import kernels
from ebg.expressions import (
    Binary,
    Constant,
    Expression,
    Unary,
    Variable,
    evaluate,
    node_count,
    parse,
)
from helpers import child_env, random_expression

CASES = [
    "x[0]/x[1]",
    "sqrt(x[0])",
    "(-1 - x[0]**2)**0.5",
    "x[0]**-2",
    "x[0]**x[1]",
    "sinh(x[0]*900)",
    "tan(x[0])/(x[1] - x[1])",
    "cos(x[0])*cosh(x[1]) + tanh(x[2])",
]

SPECIAL_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, -2.5, -1.0, -0.3
]


def eval_program_scalar_twin(prog, X):
    """The numba kernel's source run as plain Python, so the twin is
    checked even where numba is missing."""
    with np.errstate(all="ignore"):
        return kernels._eval_program_scalar(prog.codes, prog.operands, X, prog.stack_need)


PATHS = [kernels.eval_program_numpy, eval_program_scalar_twin] + (
    [kernels.eval_program_numba] if kernels.HAS_NUMBA else []
)


def _batch(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1, 1, (n, d))


@pytest.mark.parametrize("path", PATHS)
def test_kernels_match_reference_semantics(path):
    rng = np.random.default_rng(3)
    for text in CASES:
        expr = parse(text, 5)
        prog = kernels.compile_program(expr)
        X = _batch(int(rng.integers(1 << 30)), 64, 5)
        values, invalid = path(prog, X)
        assert invalid.dtype == np.bool_
        for i in range(64):
            ref = evaluate(expr, X[i])
            assert bool(invalid[i]) == (not ref.ok), (text, i)
            if ref.ok:
                assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
            else:
                assert np.isnan(values[i])


@pytest.mark.parametrize("path", PATHS)
def test_kernels_match_reference_on_random_trees(path):
    rng = np.random.default_rng(99)
    for k in range(60):
        expr = random_expression(rng, 4, int(rng.integers(1, 6)))
        prog = kernels.compile_program(expr)
        # 16 uniform points, then the special values on one axis
        specials = np.full((len(SPECIAL_VALUES), 4), 0.5)
        specials[:, k % 4] = SPECIAL_VALUES
        X = np.vstack([rng.uniform(-1, 1, (16, 4)), specials])
        values, invalid = path(prog, X)
        for i in range(X.shape[0]):
            ref = evaluate(expr, X[i])
            assert bool(invalid[i]) == (not ref.ok), (expr, X[i])
            if ref.ok:
                assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
            else:
                assert np.isnan(values[i])


# a non-finite subterm that a later operation maps back to a finite value
# (tanh(inf) = 1, x/inf = 0, nan**0 = 1, 1**nan = 1, 0.5**inf = 0) still
# makes the point invalid
SWALLOWED = [
    "tanh(sinh(900*x[0]))",
    "x[1]/sinh(900*x[0])",
    "sqrt(x[0])**0",
    "1**sqrt(x[0])",
    "0.5**sinh(900*x[0])",
    "(1/(x[0] - x[0]))**0",
    "sqrt(x[0])**x[1]",
    "tanh(1/0) + x[0]",
]


@pytest.mark.parametrize("path", PATHS)
def test_kernels_keep_swallowed_failures_invalid(path):
    X = _batch(7, 64, 5)
    X[:4, 0] = 0.0
    # an exponent within the tolerance of an integer counts as that
    # integer, so negative bases stay valid there
    for text in SWALLOWED + ["x[0]**2.0000000001"]:
        expr = parse(text, 5)
        values, invalid = path(kernels.compile_program(expr), X)
        for i in range(64):
            ref = evaluate(expr, X[i])
            assert bool(invalid[i]) == (not ref.ok), (text, i)
            if ref.ok:
                assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
        assert invalid.any() == (text in SWALLOWED), text


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba backend disabled")
def test_numba_and_numpy_paths_agree():
    rng = np.random.default_rng(5)
    for text in CASES:
        prog = kernels.compile_program(parse(text, 5))
        X = _batch(int(rng.integers(1 << 30)), 256, 5)
        vj, ij = kernels.eval_program_numba(prog, X)
        vn, in_ = kernels.eval_program_numpy(prog, X)
        assert np.array_equal(ij, in_), text
        ok = ~ij
        scale = np.maximum(1.0, np.abs(vj[ok]))
        assert np.all(np.abs(vj[ok] - vn[ok]) <= 1e-12 * scale), text


# ------------------------------------------------ constant-exponent powers

# the last two lie within INTEGER_POWER_TOLERANCE of an integer without
# being one, so they keep the general rule
POWER_EXPONENTS = [0.0, 1.0, -1.0, 2.0, 3.0, -2.0, 0.5, 1.5, 2 + 5e-10, -3 + 5e-10]
GENERAL_EXPONENTS = {2 + 5e-10, -3 + 5e-10}


def _literal(value: float):
    return Constant(value) if value >= 0.0 else Unary("neg", Constant(-value))


def _general_power(a, b):
    """What the program computes when every power takes ``_power``."""
    invalid = np.zeros(np.broadcast(a, b).shape, dtype=np.bool_)
    with np.errstate(all="ignore"):
        values = kernels._power(a, b, invalid)
    invalid |= ~np.isfinite(values)
    return np.where(invalid, np.nan, values), invalid


def _assert_same_bits(got, want):
    (values, invalid), (ref_values, ref_invalid) = got, want
    assert np.array_equal(invalid, ref_invalid)
    assert np.array_equal(values, ref_values, equal_nan=True)
    assert np.array_equal(values.view(np.int64), ref_values.view(np.int64))


def _power_batches():
    rng = np.random.default_rng(17)
    pool = np.concatenate([SPECIAL_VALUES, rng.uniform(-3.0, 3.0, 38)])
    for n in (1, 7, 50):
        for start in range(0, pool.size, n):
            yield pool[start : start + n]
    yield rng.permutation(np.resize(pool, 1000))


def _uses_general_power(program) -> bool:
    return any(kind == kernels.STEP_POWER for kind, _ in program.steps)


@pytest.mark.parametrize("exponent", POWER_EXPONENTS)
def test_constant_exponent_power_matches_general_rule_bit_for_bit(exponent):
    expr = Expression(Binary("pow", Variable(0), _literal(exponent)), 1)
    program = kernels.compile_program(expr)
    assert _uses_general_power(program) == (exponent in GENERAL_EXPONENTS)
    for column in _power_batches():
        got = kernels.eval_program_numpy(program, column[:, None])
        _assert_same_bits(got, _general_power(column, np.float64(exponent)))


@pytest.mark.parametrize(
    "text, reference",
    [
        ("2**3", lambda X: _general_power(np.float64(2.0), np.float64(3.0))),
        ("(-2)**3", lambda X: _general_power(np.float64(-2.0), np.float64(3.0))),
        ("2**x[0]", lambda X: _general_power(np.float64(2.0), X[:, 0])),
        ("x[0]**x[1]", lambda X: _general_power(X[:, 0], X[:, 1])),
    ],
)
def test_constant_base_and_variable_exponent_powers_keep_the_general_rule(text, reference):
    program = kernels.compile_program(parse(text, 2))
    assert _uses_general_power(program)
    rng = np.random.default_rng(23)
    for column in _power_batches():
        X = np.column_stack([column, rng.permutation(column)])
        values, invalid = kernels.eval_program_numpy(program, X)
        ref_values, ref_invalid = reference(X)
        shape = column.shape
        _assert_same_bits(
            (values, invalid),
            (np.broadcast_to(ref_values, shape), np.broadcast_to(ref_invalid, shape)),
        )


def test_compile_program_shape():
    expr = parse("sin(x[0]) + x[1]*x[2]", 3)
    prog = kernels.compile_program(expr)
    assert prog.codes.shape == prog.operands.shape
    assert len(prog.codes) == node_count(expr)
    assert 1 <= prog.stack_need <= node_count(expr)
    assert prog.dimension == 3


def test_eval_program_validates_batch_shape():
    prog = kernels.compile_program(parse("x[0]", 2))
    with pytest.raises(ValueError):
        kernels.eval_program(prog, np.zeros((4, 3)))


def test_env_flag_selects_numpy_backend():
    out = subprocess.run(
        [sys.executable, "-c", "import ebg.kernels as k; print(k.backend_name())"],
        env=child_env(EBG_NUMBA="0"),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"
