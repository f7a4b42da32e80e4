"""Small expression language for metric components and densities.

Grammar (infix, conventional precedence, ``^`` binds tightest)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    atom     := NUMBER | VAR | REDUCER | FUNC '(' expr ')' | '(' expr ')'

``VAR`` is ``x1..xn`` or ``y1..yn`` (1-based).  ``FUNC`` is ``sqrt``, ``ln``
or ``exp``.  ``REDUCER`` is ``normx2`` (|x|^2), ``normy2`` (|y|^2) or
``dotxy`` (<x, y>).  A ``NUMBER`` must parse to a finite float: ``1e400``
is rejected at parse time with :class:`ConfigError`, naming its line and
column.  Exponents are integer or rational literals only; there is no
``abs`` and no piecewise construct, so every parsed expression is smooth
on the domain where it evaluates without :class:`BranchError` /
:class:`PoleError`.

Evaluation is generic over the scalar type: floats and
:class:`~finslerkit.jets.Jet` both work, so the same tree serves the fast
float path and every differentiation order.  Literals stay plain
numbers whatever the scalar type: a jet scaled by a float costs no table
product, so ``0.3*x1`` or ``4/(1 + normx2)^2`` multiply only where a
variable is involved, and a subtree without variables (``g_1_1 = 1.5``)
evaluates to a float even over jets.  Callers that need a jet wrap such a
result in a constant jet.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
from dataclasses import dataclass

from .errors import BranchError, ConfigError, DimensionError, ExpressionSyntaxError, PoleError

__all__ = ["parse_expression", "evaluate", "Node"]


class Node:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    axis: str  # 'x' or 'y'
    index: int  # 1-based


@dataclass(frozen=True)
class Reduce(Node):
    name: str  # normx2 | normy2 | dotxy


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    num: int
    den: int  # > 0, gcd(num, den) == 1


@dataclass(frozen=True)
class Call(Node):
    fn: str  # sqrt | ln | exp
    arg: Node


_FUNCS = ("sqrt", "ln", "exp")
_REDUCERS = ("normx2", "normy2", "dotxy")

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>[ \t]+)
  | (?P<nl>\n)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # num | ident | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str, base_line: int, base_column: int):
    tokens = []
    line, col = base_line, base_column
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind == "ws":
            col += len(tok)
        else:
            tokens.append(_Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            found = repr(tok.text) if tok.text else "end of input"
            raise ExpressionSyntaxError(f"expected {op!r}, found {found}", tok.line, tok.column)
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            num, den = self.exponent()
            return Pow(base, num, den)
        return base

    def exponent(self) -> tuple[int, int]:
        # A bare exponent is a (possibly negative) integer; rational
        # exponents must be parenthesized so that 'a^3/b' stays division.
        parenthesized = False
        if self.peek().kind == "op" and self.peek().text == "(":
            self.take()
            parenthesized = True
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ExpressionSyntaxError(
                "exponent must be an integer or rational literal", tok.line, tok.column
            )
        num = sign * int(self.take().text)
        den = 1
        if parenthesized:
            if self.peek().kind == "op" and self.peek().text == "/":
                self.take()
                tok = self.peek()
                if tok.kind != "num" or not tok.text.isdigit() or int(tok.text) == 0:
                    raise ExpressionSyntaxError(
                        "exponent denominator must be a positive integer", tok.line, tok.column
                    )
                den = int(self.take().text)
            self.expect_op(")")
        g = math.gcd(abs(num), den)
        if g > 1:
            num //= g
            den //= g
        return num, den

    def atom(self) -> Node:
        tok = self.take()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ConfigError(
                    f"literal {tok.text!r} is not a finite float (line {tok.line}, column {tok.column})"
                )
            return Num(value)
        if tok.kind == "ident":
            name = tok.text
            if name in _REDUCERS:
                return Reduce(name)
            if name in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            m = re.fullmatch(r"([xy])([1-9][0-9]*)", name)
            if m:
                return Var(m.group(1), int(m.group(2)))
            raise ExpressionSyntaxError(f"unknown identifier {name!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        found = repr(tok.text) if tok.text else "end of input"
        raise ExpressionSyntaxError(f"expected a value, found {found}", tok.line, tok.column)


def parse_expression(text: str, base_line: int = 1, base_column: int = 1) -> Node:
    """Parse expression text into an AST.

    ``base_line``/``base_column`` offset reported error positions, so text
    embedded in a larger file can point at the real location.
    """
    return _Parser(_tokenize(text, base_line, base_column)).parse()


# -- analysis ----------------------------------------------------------

def check_variables(node: Node, dimension: int, allow_y: bool = True, context: str = "expression"):
    """Raise :class:`DimensionError` at the first out-of-range or forbidden
    variable in reading order; the reducers ``normy2`` and ``dotxy`` read y."""

    def walk(nd: Node):
        if isinstance(nd, Var) and nd.index > dimension:
            raise DimensionError(f"{context} uses {nd.axis}{nd.index} but the dimension is {dimension}")
        reads_y = isinstance(nd, Var) and nd.axis == "y" or isinstance(nd, Reduce) and nd.name != "normx2"
        if reads_y and not allow_y:
            raise DimensionError(f"{context} must not depend on y (found y-variable)")
        if isinstance(nd, (Neg, Call)):
            walk(nd.arg)
        elif isinstance(nd, Pow):
            walk(nd.base)
        elif isinstance(nd, BinOp):
            walk(nd.left)
            walk(nd.right)

    walk(node)


# -- evaluation --------------------------------------------------------

def _is_plain(v) -> bool:
    return isinstance(v, numbers.Real)


def _branch(fn_name: str, v: float):
    if v <= 0.0:
        raise BranchError(f"{fn_name} of non-positive value {v!r}")


def evaluate(node: Node, xs, ys):
    """Evaluate over scalars (floats or jets) ``xs``, ``ys``; a
    subtree without variables gives a float (module docstring)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        seq = xs if node.axis == "x" else ys
        if node.index > len(seq):
            raise DimensionError(f"variable {node.axis}{node.index} out of range (n={len(seq)})")
        return seq[node.index - 1]
    if isinstance(node, Reduce):
        if node.name == "normx2":
            return _sum_products(xs, xs)
        if node.name == "normy2":
            return _sum_products(ys, ys)
        return _sum_products(xs, ys)
    if isinstance(node, Neg):
        return -evaluate(node.arg, xs, ys)
    if isinstance(node, Call):
        arg = evaluate(node.arg, xs, ys)
        if _is_plain(arg):
            if node.fn == "exp":
                return math.exp(arg)
            _branch(node.fn, arg)
            return math.sqrt(arg) if node.fn == "sqrt" else math.log(arg)
        return getattr(arg, node.fn)()
    if isinstance(node, Pow):
        base = evaluate(node.base, xs, ys)
        if node.den == 1:
            if _is_plain(base):
                if node.num < 0 and base == 0.0:
                    raise PoleError("zero base raised to a negative power")
                return float(base) ** node.num
            return base**node.num
        alpha = node.num / node.den
        if _is_plain(base):
            _branch(f"power {node.num}/{node.den}", base)
            return float(base) ** alpha
        return base.powc(alpha)
    if isinstance(node, BinOp):
        left = evaluate(node.left, xs, ys)
        right = evaluate(node.right, xs, ys)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if _is_plain(right) and float(right) == 0.0:
            raise PoleError("division by zero")
        return left / right
    raise TypeError(f"not an expression node: {node!r}")


def _total(terms):
    """Left-to-right sum of one or more scalars."""
    return functools.reduce(operator.add, terms)


def _sum_products(a, b):
    """Left-to-right sum of the products a[k] * b[k]."""
    return _total(map(operator.mul, a, b))
