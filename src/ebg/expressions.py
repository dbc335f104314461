"""Symbolic expression trees over box-bounded real vectors.

Expressions are the genome of the benchmark generator: closed-form
formulas in variables ``x[0] .. x[D-1]`` built from arithmetic operators
and the unary functions of one table, ``UNARY_FUNCTIONS``; the parser
accepts no other function name.  The surface syntax is a single line of
Python-compatible code (``x[i]`` indexing, ``**`` power, function call
notation), which is exactly what appears in prompts, persisted run
files, and CLI input.

Evaluation is total: instead of raising on bad math it returns an
:class:`EvalResult` that either carries a finite float or names the
failure cause (NaN, overflow to infinity, or a domain error such as the
square root of a negative number).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

# ---------------------------------------------------------------- op tables

UNARY_FUNCTIONS = ("neg", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh", "abs")
BINARY_OPERATORS = ("add", "sub", "mul", "div", "pow")

# Invalid-evaluation causes.
CAUSE_NAN = "nan"
CAUSE_INFINITE = "infinite"
CAUSE_SQRT_NEGATIVE = "sqrt-of-negative"
CAUSE_DIV_ZERO = "div-by-zero"
CAUSE_FRACTIONAL_POWER = "fractional-power-of-negative"
CAUSE_ZERO_NEGATIVE_POWER = "zero-to-negative-power"

# Exponents this close to an integer are treated as integers, so that
# e.g. (-x)**2 is a valid signed power rather than a domain error.
INTEGER_POWER_TOLERANCE = 1e-9


class ExpressionError(ValueError):
    """Malformed expression text or tree."""


class ParseError(ExpressionError):
    """Syntax error, with the character position where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SymbolError(ExpressionError):
    """A function name outside ``UNARY_FUNCTIONS``."""

    def __init__(self, symbol: str):
        super().__init__(f"function {symbol!r} is not in the whitelist")
        self.symbol = symbol


class DimensionError(ExpressionError):
    """A variable index outside the declared dimension."""

    def __init__(self, index: int, dimension: int):
        super().__init__(f"variable x[{index}] out of range for dimension {dimension}")
        self.index = index
        self.dimension = dimension


# ---------------------------------------------------------------- AST nodes


@dataclass(frozen=True)
class Constant:
    """Nonnegative literal; negative values are spelled neg(Constant)."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or v < 0.0:
            raise ExpressionError(f"constant must be finite and nonnegative, got {v!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Variable:
    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or self.index < 0:
            raise ExpressionError(f"variable index must be a nonnegative int, got {self.index!r}")


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"

    def __post_init__(self) -> None:
        if self.op not in UNARY_FUNCTIONS:
            raise ExpressionError(f"unknown unary op {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPERATORS:
            raise ExpressionError(f"unknown binary op {self.op!r}")


Node = Union[Constant, Variable, Unary, Binary]


@dataclass(frozen=True)
class Expression:
    """A rooted expression tree bound to a dimension D."""

    root: Node
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ExpressionError(f"dimension must be >= 1, got {self.dimension}")
        for node in walk(self.root):
            if isinstance(node, Variable) and node.index >= self.dimension:
                raise DimensionError(node.index, self.dimension)

    def __str__(self) -> str:
        return render(self.root)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, depth first."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Unary):
            stack.append(cur.operand)
        elif isinstance(cur, Binary):
            stack.append(cur.right)
            stack.append(cur.left)


# ---------------------------------------------------------------- rendering

# Surface precedence, Python semantics: ** binds tighter than unary minus
# on its left operand, unary minus tighter than * and /.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

_BINARY_SYMBOL = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "**"}
_BINARY_PREC = {"add": _PREC_ADD, "sub": _PREC_ADD, "mul": _PREC_MUL, "div": _PREC_MUL, "pow": _PREC_POW}


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_NEG if node.op == "neg" else _PREC_ATOM
    return _PREC_ATOM


def render(node: Node | Expression) -> str:
    """Deterministic textual form; ``parse`` inverts it structurally."""
    if isinstance(node, Expression):
        node = node.root
    if isinstance(node, Constant):
        return _format_number(node.value)
    if isinstance(node, Variable):
        return f"x[{node.index}]"
    if isinstance(node, Unary):
        if node.op == "neg":
            child = render(node.operand)
            # parenthesize +,-,*,/ children and nested negations
            if _prec(node.operand) < _PREC_NEG or (
                isinstance(node.operand, Unary) and node.operand.op == "neg"
            ):
                child = f"({child})"
            return f"-{child}"
        return f"{node.op}({render(node.operand)})"
    left, right = render(node.left), render(node.right)
    if node.op == "pow":
        # left operand of ** must be an atom; a bare unary may follow it
        if _prec(node.left) < _PREC_ATOM:
            left = f"({left})"
        if _prec(node.right) < _PREC_NEG:
            right = f"({right})"
    else:
        prec = _BINARY_PREC[node.op]
        if _prec(node.left) < prec:
            left = f"({left})"
        # equal precedence on the right needs parens to keep association
        if _prec(node.right) <= prec:
            right = f"({right})"
    return f"{left}{_BINARY_SYMBOL[node.op]}{right}"


# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[+\-*/()\[\]]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if stripped == "":
                break
            bad_at = pos + (len(text) - pos - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the Python-style surface syntax."""

    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, start = self.take()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", start)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, start = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting with {val!r}", start)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            node = Binary("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = Binary("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[1] == "-":
            self.take()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[1] == "**":
            self.take()
            # right-associative; exponent may carry a unary minus
            return Binary("pow", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, start = self.take()
        if kind == "number":
            value = float(val)
            if not math.isfinite(value):
                raise ParseError(f"number {val} is out of range", start)
            return Constant(value)
        if kind == "name":
            if val == "x":
                self.expect("[")
                ikind, ival, istart = self.take()
                if ikind != "number" or not ival.isdigit():
                    raise ParseError(f"expected an integer index, found {ival!r}", istart)
                self.expect("]")
                index = int(ival)
                if index >= self.dimension:
                    raise DimensionError(index, self.dimension)
                return Variable(index)
            if val not in UNARY_FUNCTIONS:
                # a name followed by "(" is a function someone tried to
                # use; a bare name is just unparseable prose
                if self.peek()[1] == "(":
                    raise SymbolError(val)
                raise ParseError(f"unexpected name {val!r}", start)
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Unary(val, inner)
        if val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {val or 'end of input'!r}", start)


def parse(text: str, dimension: int) -> Expression:
    """Parse one expression line into a tree bound to ``dimension``.

    Raises :class:`ParseError` on syntax errors (with position),
    :class:`SymbolError` on a function name outside ``UNARY_FUNCTIONS``,
    and :class:`DimensionError` on out-of-range variable indices.  No
    simplification or constant folding is performed: lineage analysis
    depends on the surface form surviving a parse/render round trip.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    return Expression(_Parser(text, dimension).parse(), dimension)


# ---------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class EvalResult:
    """Either a finite value or an invalidity cause, never both."""

    value: float | None
    cause: str | None = None

    @property
    def ok(self) -> bool:
        return self.cause is None


class _Invalid(Exception):
    def __init__(self, cause: str):
        self.cause = cause


def _checked(value: float) -> float:
    if math.isnan(value):
        raise _Invalid(CAUSE_NAN)
    if math.isinf(value):
        raise _Invalid(CAUSE_INFINITE)
    return value


def _signed_power(base: float, exponent: float) -> float:
    if base < 0.0:
        nearest = float(round(exponent))
        if abs(exponent - nearest) > INTEGER_POWER_TOLERANCE:
            raise _Invalid(CAUSE_FRACTIONAL_POWER)
        magnitude = math.pow(-base, nearest)
        return -magnitude if int(nearest) % 2 else magnitude
    if base == 0.0 and exponent < 0.0:
        raise _Invalid(CAUSE_ZERO_NEGATIVE_POWER)
    return math.pow(base, exponent)


_UNARY_MATH = {
    "neg": lambda v: -v,
    "abs": abs,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}


def _eval_node(node: Node, x: Sequence[float]) -> float:
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        return _checked(float(x[node.index]))
    try:
        if isinstance(node, Unary):
            v = _eval_node(node.operand, x)
            if node.op == "sqrt":
                if v < 0.0:
                    raise _Invalid(CAUSE_SQRT_NEGATIVE)
                return _checked(math.sqrt(v))
            return _checked(_UNARY_MATH[node.op](v))
        a = _eval_node(node.left, x)
        b = _eval_node(node.right, x)
        if node.op == "add":
            return _checked(a + b)
        if node.op == "sub":
            return _checked(a - b)
        if node.op == "mul":
            return _checked(a * b)
        if node.op == "div":
            if b == 0.0:
                raise _Invalid(CAUSE_DIV_ZERO)
            return _checked(a / b)
        return _checked(_signed_power(a, b))
    except OverflowError:
        raise _Invalid(CAUSE_INFINITE) from None


def evaluate(expr: Expression, x: Sequence[float]) -> EvalResult:
    """Evaluate at one point; reference semantics for the fast kernels.

    The first failing subterm (postorder, left to right) determines the
    cause; once any subterm is invalid the whole result is invalid.
    """
    if len(x) != expr.dimension:
        raise ExpressionError(f"point has length {len(x)}, expected {expr.dimension}")
    try:
        return EvalResult(_eval_node(expr.root, x))
    except _Invalid as err:
        return EvalResult(None, err.cause)


# ------------------------------------------------------- showcase fixtures

# Two evolved 5-D benchmarks kept as evaluator fixtures and demo inputs:
# on the first, a real-coded GA outperforms DE; on the second, the reverse.
GA_ADVANTAGE_EXAMPLE = (
    "x[0]**2 + sin(x[1])*x[2] + abs(x[3] - x[4]) + sqrt(abs(x[0] - x[1]))"
    " + x[2]*x[3]/(1 + x[4]**2 + abs(sin(x[0])*sinh(x[1])))"
    " + sinh(x[0])*cos(x[1])**2 + abs(x[2] - x[3])**2/(1 + abs(x[4]))"
    " + x[0]*x[1]*x[2]*x[3]*x[4]/(1 + abs(x[0]) + abs(x[1]) + abs(x[2]) + abs(x[3]) + abs(x[4]))"
    " + sin(x[0])*sin(x[1])*sin(x[2])*sin(x[3])*sin(x[4])"
    " + abs(x[0] - x[1])**2/(1 + x[2]**2)"
    " + cos(x[0])*cos(x[1])*cos(x[2])*cos(x[3])*cos(x[4])"
    " + x[3]*x[4]/(1 + abs(x[0]) + abs(x[1]) + abs(x[2]))"
)

DE_ADVANTAGE_EXAMPLE = (
    "x[0]**2 + abs(x[1]*x[2]) + sqrt(abs(x[3])) - sin(x[4])"
    " + sin(x[0]*x[1]) + cos(x[2]*x[3]) + x[0]/(1 + x[4]**2)"
    " + sinh(x[1]*x[2]*x[3]) + abs(x[0] - x[1] + x[2] - x[3] + x[4])"
    " + sqrt(x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + x[4]**2)"
    " + x[1]*sinh(x[0]*x[2]) + abs(x[2] - x[3])/sqrt(1 + x[4]**2)"
)
