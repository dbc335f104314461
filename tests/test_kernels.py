from __future__ import annotations

import json
import os
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


def _batch(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1, 1, (n, d))


def test_kernels_match_reference_semantics():
    rng = np.random.default_rng(3)
    for text in CASES:
        expr = parse(text, 5)
        prog = kernels.compile_program(expr)
        X = _batch(int(rng.integers(1 << 30)), 64, 5)
        values, invalid = kernels.eval_program(prog, X)
        assert invalid.dtype == np.bool_
        for i in range(64):
            ref = evaluate(expr, X[i])
            assert bool(invalid[i]) == (not ref.ok), (text, i)
            if ref.ok:
                assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
            else:
                assert np.isnan(values[i])


def test_kernels_match_reference_on_random_trees():
    rng = np.random.default_rng(99)
    for k in range(60):
        expr = random_expression(rng, 4, int(rng.integers(1, 6)))
        prog = kernels.compile_program(expr)
        # 16 uniform points, then the special values on one axis
        specials = np.full((len(SPECIAL_VALUES), 4), 0.5)
        specials[:, k % 4] = SPECIAL_VALUES
        X = np.vstack([rng.uniform(-1, 1, (16, 4)), specials])
        values, invalid = kernels.eval_program(prog, X)
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


def test_kernels_keep_swallowed_failures_invalid():
    X = _batch(7, 64, 5)
    X[:4, 0] = 0.0
    # an exponent within the tolerance of an integer counts as that
    # integer, so negative bases stay valid there
    for text in SWALLOWED + ["x[0]**2.0000000001"]:
        expr = parse(text, 5)
        values, invalid = kernels.eval_program(kernels.compile_program(expr), X)
        for i in range(64):
            ref = evaluate(expr, X[i])
            assert bool(invalid[i]) == (not ref.ok), (text, i)
            if ref.ok:
                assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
        assert invalid.any() == (text in SWALLOWED), text


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
        got = kernels.eval_program(program, column[:, None])
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
        values, invalid = kernels.eval_program(program, X)
        ref_values, ref_invalid = reference(X)
        shape = column.shape
        _assert_same_bits(
            (values, invalid),
            (np.broadcast_to(ref_values, shape), np.broadcast_to(ref_invalid, shape)),
        )


def test_compile_program_shape():
    expr = parse("sin(x[0]) + x[1]*x[2]", 3)
    prog = kernels.compile_program(expr)
    assert prog.codes.dtype == np.int64
    assert len(prog.codes) == 6  # postfix: x0 sin x1 x2 * +
    assert prog.dimension == 3


def test_eval_program_validates_batch_shape():
    prog = kernels.compile_program(parse("x[0]", 2))
    with pytest.raises(ValueError):
        kernels.eval_program(prog, np.zeros((4, 3)))




# ------------------------------------------------ ill-conditioned formulas

# the outer sin amplifies the last-bit differences between numpy's and
# math's sinh and tan by the size of its argument u
ILL_CONDITIONED = "sin((x[0] - sinh((1.017 - x[1])/abs(x[1])))*tan(-abs(1.102)))"


def test_kernel_error_on_an_ill_conditioned_formula_scales_with_the_argument():
    expr = parse(ILL_CONDITIONED, 2)
    argument = Expression(expr.root.operand, 2)
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 2))
    values, invalid = kernels.eval_program(kernels.compile_program(expr), X)
    eps = np.finfo(np.float64).eps
    for i, x in enumerate(X):
        ref = evaluate(expr, x)
        assert bool(invalid[i]) == (not ref.ok), x
        if not ref.ok:
            continue
        u = abs(evaluate(argument, x).value)
        error = abs(values[i] - ref.value)
        assert error <= 4 * eps * max(1.0, u), (x, u)
        if u < 1e3:
            assert error <= 1e-12 * max(1.0, abs(ref.value)), (x, u)


# --------------------------------------------------------- one evaluation path

# prints what a run's fitness depends on in the kernel: the backend, whether
# numba was loaded, and the bytes of one batch evaluation
PROBE = """
import hashlib, importlib.util, json, sys
import numpy as np
import ebg.cli
from ebg import kernels
from ebg.expressions import GA_ADVANTAGE_EXAMPLE, parse
X = np.random.default_rng(11).uniform(-5.0, 5.0, (300, 5))
values, invalid = kernels.eval_program(
    kernels.compile_program(parse(GA_ADVANTAGE_EXAMPLE, 5)), X
)
print(json.dumps({
    "numba_findable": importlib.util.find_spec("numba") is not None,
    "backend": kernels.backend_name(),
    "numba_imported": "numba" in sys.modules,
    "digest": hashlib.sha256(values.tobytes() + invalid.tobytes()).hexdigest(),
}))
"""


def _probe(env: dict) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


def test_evaluation_does_not_depend_on_installed_packages(tmp_path):
    # a stand-in numba whose njit leaves the function as it is
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text(
        "def njit(*args, **kwargs):\n    return lambda function: function\n"
    )
    stubbed = child_env()
    stubbed["PYTHONPATH"] = os.pathsep.join([str(tmp_path), stubbed["PYTHONPATH"]])
    with_stub, without = _probe(stubbed), _probe(child_env())
    assert with_stub.pop("numba_findable")
    without.pop("numba_findable")
    assert with_stub == without
    assert with_stub["backend"] == "numpy" and not with_stub["numba_imported"]
