from __future__ import annotations

import math

import numpy as np
import pytest

from ebg.expressions import (
    Binary,
    Constant,
    DE_ADVANTAGE_EXAMPLE,
    DimensionError,
    ExpressionError,
    Expression,
    GA_ADVANTAGE_EXAMPLE,
    ParseError,
    SymbolError,
    Unary,
    Variable,
    evaluate,
    parse,
    render,
)
from helpers import de_advantage_native, ga_advantage_native, random_expression


# ------------------------------------------------------------------ parsing


def test_parse_basic_shape():
    expr = parse("x[0] + 2*x[1]", 2)
    assert expr.root == Binary("add", Variable(0), Binary("mul", Constant(2.0), Variable(1)))


def test_parse_function_power():
    expr = parse("sin(x[1])**2", 3)
    assert expr.root == Binary("pow", Unary("sin", Variable(1)), Constant(2.0))


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("x[0] @ 2", 1)
    assert err.value.position == 5


def test_parse_number_that_overflows_a_float():
    with pytest.raises(ParseError) as err:
        parse("x[0] + 1e999", 1)
    assert str(err.value) == "number 1e999 is out of range (at position 7)"
    parse("x[0] + 1e308", 1)  # the largest decade a float holds is fine


def test_parse_unknown_function_named():
    with pytest.raises(SymbolError) as err:
        parse("log(x[0])", 1)
    assert err.value.symbol == "log"


def test_parse_out_of_range_index():
    with pytest.raises(DimensionError):
        parse("x[5]", 5)
    parse("x[4]", 5)  # boundary index is fine


def test_parse_rejects_empty_and_trailing():
    with pytest.raises(ParseError):
        parse("   ", 1)
    with pytest.raises(ParseError):
        parse("x[0] x[0]", 1)


def test_parse_python_precedence():
    # ** binds tighter than a leading unary minus, and is right associative
    assert parse("-x[0]**2", 1).root == Unary("neg", Binary("pow", Variable(0), Constant(2.0)))
    assert parse("x[0]**-1", 1).root == Binary("pow", Variable(0), Unary("neg", Constant(1.0)))
    assert parse("2**3**2", 1).root == Binary(
        "pow", Constant(2.0), Binary("pow", Constant(3.0), Constant(2.0))
    )
    assert evaluate(parse("-x[0]**2", 1), [2.0]).value == -4.0
    assert evaluate(parse("2**3**2", 1), [0.0]).value == 512.0


def test_parse_scientific_notation():
    assert parse("2.5e-3", 1).root == Constant(0.0025)
    assert parse("1E2", 1).root == Constant(100.0)


# ---------------------------------------------------------------- rendering


def test_render_keeps_required_parens():
    assert render(parse("(x[0] + x[1])*x[2]", 3)) == "(x[0] + x[1])*x[2]"
    # right-nested subtraction must keep its parentheses
    tree = Binary("sub", Variable(0), Binary("sub", Variable(1), Variable(2)))
    assert render(tree) == "x[0] - (x[1] - x[2])"
    assert parse(render(tree), 3).root == tree


def test_render_number_forms():
    assert render(Constant(2.0)) == "2"
    assert render(Constant(0.5)) == "0.5"
    assert render(parse("x[0]**2", 1)) == "x[0]**2"


def test_constant_must_be_nonnegative_finite():
    with pytest.raises(ExpressionError):
        Constant(-1.0)
    with pytest.raises(ExpressionError):
        Constant(float("inf"))


def test_round_trip_random_trees():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        expr = random_expression(rng, 5, int(rng.integers(1, 6)))
        text = render(expr)
        again = parse(text, 5)
        assert again.root == expr.root, text
        # rendering is deterministic, so a second trip is the fixed point
        assert render(again) == text


def test_round_trip_showcase_texts():
    for text in (GA_ADVANTAGE_EXAMPLE, DE_ADVANTAGE_EXAMPLE):
        expr = parse(text, 5)
        assert parse(render(expr), 5).root == expr.root


# --------------------------------------------------------------- evaluation


def test_evaluate_div_by_zero():
    res = evaluate(parse("x[0]/x[1]", 2), [1.0, 0.0])
    assert not res.ok and res.cause == "div-by-zero"


def test_evaluate_sqrt_negative():
    res = evaluate(parse("sqrt(x[0])", 1), [-1.0])
    assert res.cause == "sqrt-of-negative"
    assert evaluate(parse("sqrt(x[0])", 1), [4.0]).value == 2.0


def test_evaluate_signed_integer_powers():
    assert evaluate(parse("(-2)**2", 1), [0.0]).value == 4.0
    assert evaluate(parse("(-2)**3", 1), [0.0]).value == -8.0
    # near-integer exponents are accepted and rounded
    res = evaluate(parse("(0 - 2)**(3 + 1e-10)", 1), [0.0])
    assert res.ok and res.value == -8.0


def test_evaluate_fractional_power_of_negative():
    res = evaluate(parse("(-2)**0.5", 1), [0.0])
    assert res.cause == "fractional-power-of-negative"


def test_evaluate_zero_to_negative_power():
    res = evaluate(parse("x[0]**x[1]", 2), [0.0, -1.0])
    assert res.cause == "zero-to-negative-power"


def test_evaluate_overflow_is_infinite():
    assert evaluate(parse("sinh(x[0])", 1), [800.0]).cause == "infinite"
    assert evaluate(parse("10**x[0]", 1), [1e10]).cause == "infinite"


def test_evaluate_nan_input():
    assert evaluate(parse("x[0]", 1), [float("nan")]).cause == "nan"


def test_evaluate_checks_point_length():
    with pytest.raises(ExpressionError):
        evaluate(parse("x[0]", 2), [1.0])


def test_evaluate_totality_random():
    # ok results are always finite floats; failures always carry a cause
    rng = np.random.default_rng(7)
    for _ in range(200):
        expr = random_expression(rng, 3, int(rng.integers(1, 5)))
        x = rng.uniform(-1, 1, 3)
        res = evaluate(expr, x)
        if res.ok:
            assert math.isfinite(res.value)
        else:
            assert res.value is None and isinstance(res.cause, str)


# ------------------------------------------------------- showcase fixtures


def test_showcase_fixtures_match_native_oracles():
    rng = np.random.default_rng(11)
    pairs = [
        (parse(GA_ADVANTAGE_EXAMPLE, 5), ga_advantage_native),
        (parse(DE_ADVANTAGE_EXAMPLE, 5), de_advantage_native),
    ]
    for expr, native in pairs:
        assert evaluate(expr, [0.0] * 5).value == 1.0
        for _ in range(200):
            x = rng.uniform(-1, 1, 5)
            got = evaluate(expr, x)
            want = native(x)
            assert got.ok
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want))
