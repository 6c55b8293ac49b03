"""Tiny arithmetic expression language for utilities and contour coefficients.

Grammar (infix, conventional precedence):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)*
    exponent := ['-'] INTEGER
    atom     := NUMBER | VARIABLE | '(' expr ')'

Variables are the profile coordinates ``x1 .. xn`` (1-based in the surface
syntax, 0-based internally).  Exponents are restricted to integer literals so
expressions stay real-valued on all of R^n.  Nesting is capped at
``MAX_DEPTH`` levels (see there).

An expression is evaluated only through :func:`compile_expression`, which
emits the tree as one numpy lambda; utilities and contour rows share it.
Literals are Python floats, so a subexpression without variables is computed
in Python float arithmetic and everything else elementwise in numpy.  The
compiled function returns one float64 value per profile of the (..., n) batch
it is given, as an ndarray of shape ``values.shape[:-1]``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import _SHOWN_DIGITS, EvaluationError, ExpressionError, shown_number

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "Negate",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Power",
    "parse_expression",
    "compile_expression",
    "ColumnView",
]


class Expr:
    """Base class for expression nodes."""

    def variables(self) -> frozenset[int]:
        """Zero-based indices of the variables referenced by this node."""
        raise NotImplementedError

    def degree(self, own: frozenset[int]) -> int | None:
        """Polynomial degree in the variables ``own``, the others held fixed.

        None when the node is no polynomial in them that the tree shows: a
        divisor or a negative power of a base that depends on them.  The
        degree is read off the tree, so it bounds the true one from above
        (``x1 - x1`` reads 1).
        """
        raise NotImplementedError

    def _emit(self) -> str:
        raise NotImplementedError


def _combine(left: int | None, right: int | None, op) -> int | None:
    return None if left is None or right is None else op(left, right)


@dataclass(frozen=True)
class Literal(Expr):
    value: float

    def variables(self) -> frozenset[int]:
        return frozenset()

    def degree(self, own: frozenset[int]) -> int | None:
        return 0

    def _emit(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Variable(Expr):
    index: int  # zero-based profile coordinate

    def variables(self) -> frozenset[int]:
        return frozenset({self.index})

    def degree(self, own: frozenset[int]) -> int | None:
        return 1 if self.index in own else 0

    def _emit(self) -> str:
        return f"v[..., {self.index}]"


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr

    def variables(self) -> frozenset[int]:
        return self.operand.variables()

    def degree(self, own: frozenset[int]) -> int | None:
        return self.operand.degree(own)

    def _emit(self) -> str:
        return f"(-{self.operand._emit()})"


@dataclass(frozen=True)
class _Binary(Expr):
    """``left <_symbol> right``; equal only to a node of the same class."""

    left: Expr
    right: Expr
    _symbol: ClassVar[str]

    def variables(self) -> frozenset[int]:
        return self.left.variables() | self.right.variables()

    def degree(self, own: frozenset[int]) -> int | None:
        return _combine(self.left.degree(own), self.right.degree(own), max)

    def _emit(self) -> str:
        return f"({self.left._emit()} {self._symbol} {self.right._emit()})"


class Add(_Binary):
    _symbol = "+"


class Sub(_Binary):
    _symbol = "-"


class Mul(_Binary):
    _symbol = "*"

    def degree(self, own: frozenset[int]) -> int | None:
        return _combine(self.left.degree(own), self.right.degree(own), operator.add)


class Div(_Binary):
    _symbol = "/"

    def degree(self, own: frozenset[int]) -> int | None:
        return self.left.degree(own) if self.right.degree(own) == 0 else None


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int

    def variables(self) -> frozenset[int]:
        return self.base.variables()

    def degree(self, own: frozenset[int]) -> int | None:
        base = self.base.degree(own)
        if base is None:
            return None
        if self.exponent >= 0:
            return base * self.exponent
        return 0 if base == 0 else None

    def _emit(self) -> str:
        return f"({self.base._emit()} ** {self.exponent})"


# Cap on the expression tree depth, and on the nesting of parentheses and
# unary minus while parsing.  The tree walks (variables, degree, _emit) and the
# parser recurse once per level, and compile_expression emits one bracket
# per level, which CPython refuses beyond 200.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad]!r}", bad)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0  # open parentheses and unary minus being parsed
        self.depths: dict[int, int] = {}  # id(node) -> tree depth; leaves are 1

    def capped(self, depth: int, position: int) -> int:
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels", position)
        return depth

    def node(self, cls, position: int, *parts):
        """Build ``cls(*parts)``, refusing a tree deeper than MAX_DEPTH."""
        made = cls(*parts)
        depth = 1 + max(self.depths.get(id(p), 1) for p in parts if isinstance(p, Expr))
        self.depths[id(made)] = self.capped(depth, position)
        return made

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ExpressionError("unexpected end of expression", len(self.text))
        self.pos += 1
        return token

    def expect_op(self, symbol: str) -> None:
        token = self.advance()
        if token[0] != "op" or token[1] != symbol:
            raise ExpressionError(f"expected {symbol!r}, found {token[1]!r}", token[2])

    def parse(self) -> Expr:
        node = self.expr()
        leftover = self.peek()
        if leftover is not None:
            raise ExpressionError(f"trailing input {leftover[1]!r}", leftover[2])
        return node

    def expr(self) -> Expr:
        node = self.term()
        while (token := self.peek()) is not None and token[1] in "+-":
            self.advance()
            right = self.term()
            node = self.node(Add if token[1] == "+" else Sub, token[2], node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (token := self.peek()) is not None and token[1] in "*/":
            self.advance()
            right = self.factor()
            node = self.node(Mul if token[1] == "*" else Div, token[2], node, right)
        return node

    def factor(self) -> Expr:
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] == "-":
            self.advance()
            self.nesting = self.capped(self.nesting + 1, token[2])
            operand = self.factor()
            self.nesting -= 1
            return self.node(Negate, token[2], operand)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while (token := self.peek()) is not None and token[1] == "^":
            self.advance()
            node = self.node(Power, token[2], node, self.integer_exponent())
        return node

    def integer_exponent(self) -> int:
        sign = 1
        token = self.advance()
        if token[0] == "op" and token[1] == "-":
            sign = -1
            token = self.advance()
        if token[0] != "number" or any(c in token[1] for c in ".eE"):
            raise ExpressionError("exponent must be an integer literal", token[2])
        return sign * _small_integer(token[1], "exponent", token[2])

    def atom(self) -> Expr:
        token = self.advance()
        kind, text, position = token
        if kind == "number":
            value = float(text)
            if not np.isfinite(value):
                raise ExpressionError(
                    f"number overflows a float: {shown_number(text)}", position
                )
            return Literal(value)
        if kind == "var":
            index = _small_integer(text[1:], "variable index", position)
            if index < 1:
                raise ExpressionError("variables are numbered from x1", position)
            return Variable(index - 1)
        if kind == "op" and text == "(":
            self.nesting = self.capped(self.nesting + 1, position)
            node = self.expr()
            self.expect_op(")")
            self.nesting -= 1
            return node
        raise ExpressionError(f"unexpected token {text!r}", position)


def _small_integer(digits: str, what: str, position: int) -> int:
    """The integer ``digits`` spells; more than ``_SHOWN_DIGITS`` digits is a
    parse error (no game has that many coordinates, and no float power needs
    such an exponent)."""
    if len(digits) > _SHOWN_DIGITS:
        raise ExpressionError(f"{what} is {shown_number(digits)}", position)
    return int(digits)


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExpressionError` with the offending position on bad input,
    including input nested deeper than ``MAX_DEPTH``.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    return _Parser(text).parse()


class ColumnView:
    """The columns of an (..., n) profile batch, held apart.

    ``view[..., k]`` returns ``columns[k]``, the k-th column of the batch the
    view stands for; the columns need only broadcast against each other, so a
    coordinate shared by every row can be a shape-(1,) array and a lattice
    axis can vary along its own dimension alone.  ``shape`` is the broadcast
    shape of the columns followed by ``n``, the shape of that batch.  Keep
    every column an ndarray of at least one dimension: numpy scalars take
    other arithmetic routines (``**`` through C ``pow``) that may round
    unlike the array ones.
    """

    __slots__ = ("columns", "shape")

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.shape = np.broadcast_shapes(*(np.shape(c) for c in self.columns)) + (
            len(self.columns),
        )

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] is Ellipsis):
            raise TypeError(f"a column view supports only view[..., k], got {key!r}")
        return self.columns[key[1]]


def compile_expression(expr: Expr):
    """Compile ``expr`` into ``f(values) -> ndarray``, the one evaluation route.

    ``values`` is an (..., n) ndarray or a :class:`ColumnView` of one, with
    ``values[..., k]`` bound to variable ``x(k+1)``.  ``f`` returns a float64
    ndarray of shape ``values.shape[:-1]``; a result of a smaller shape that
    broadcasts to it, such as a constant, comes back as a read-only view.

    The generated source reads its input only as ``values[..., k]`` and
    applies elementwise arithmetic, so it is safe to ``eval``, keeps numpy
    broadcasting semantics, and gives every element the same floating-point
    operations on either input.  Literals are Python floats, so constant
    subexpressions are computed by Python: where numpy would give inf or nan
    (division by zero, overflow) they raise, and ``f`` raises
    :class:`EvaluationError`.  On arrays, division by zero, invalid
    operations and overflow give inf or nan without a warning; callers
    report non-finite values themselves.
    """
    fn = eval(f"lambda v: {expr._emit()}", {"__builtins__": {}}, {})

    def compiled(values):
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                result = fn(values)
        except (ZeroDivisionError, OverflowError) as err:
            raise EvaluationError(f"expression is not finite: {err}") from err
        result = np.asarray(result, dtype=np.float64)
        shape = values.shape[:-1]
        return result if result.shape == shape else np.broadcast_to(result, shape)

    return compiled
