from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from ebg import kernels
from ebg.expressions import evaluate, node_count, parse
from helpers import random_expression

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
    for _ in range(60):
        expr = random_expression(rng, 4, int(rng.integers(1, 6)))
        prog = kernels.compile_program(expr)
        X = rng.uniform(-1, 1, (16, 4))
        values, invalid = path(prog, X)
        for i in range(16):
            ref = evaluate(expr, X[i])
            assert bool(invalid[i]) == (not ref.ok)
            if ref.ok:
                assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))


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
    env = dict(os.environ, EBG_NUMBA="0")
    out = subprocess.run(
        [sys.executable, "-c", "import ebg.kernels as k; print(k.backend_name())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"
