"""Arithmetic expression language for edge dynamics and running costs.

Problem files describe each edge by two formulas in the variables ``x``
(arclength position on the edge) and ``a`` (control value).  This module
parses such formulas into immutable syntax trees, evaluates them, and
renders them back to a canonical fully parenthesized form.

Grammar (EBNF)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := number | 'x' | 'a' | 'pi' | func '(' expr (',' expr)? ')'
             | '(' expr ')'

``^`` binds tightest and is right-associative, unary minus binds tighter
than ``*`` and ``/``, which bind tighter than ``+`` and ``-``.  Numbers are
decimal with an optional exponent.  The known functions are ``sin``,
``cos``, ``exp``, ``abs`` (unary) and ``min``, ``max`` (binary).

A tree is compiled to a Python ``lambda x, a: ...`` on its first evaluation
(not by ``parse``) and cached on the node.  Only numbers, ``x``, ``a``, ``pi``
and the six functions reach the generated code, so no text of a formula is
ever executed.  ``evaluate`` raises EvalError wherever a tree walker that
checks every operation would (see its docstring); ``evaluate_array`` never
raises: invalid entries come out non-finite.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression", "Lit", "Var", "Neg", "BinOp", "Call", "ExprError", "ExprSyntaxError",
    "EvalError", "parse", "evaluate", "evaluate_array", "format_expr", "format_number",
]

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "min": 2, "max": 2}
VARIABLES = ("x", "a")


class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the character offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class EvalError(ExprError):
    """Evaluation failure (division by zero, domain error, non-finite result)."""


@dataclass(frozen=True)
class Expression:
    """Base node type; concrete nodes are Lit, Var, Neg, BinOp, Call."""

    @functools.cached_property
    def _scalar(self):
        return _compile(self, checked=True)

    @functools.cached_property
    def _array(self):
        return _compile(self, checked=False)

    def __getstate__(self):  # compiled forms do not pickle; they are rebuilt on use
        return {k: v for k, v in vars(self).items() if k not in ("_scalar", "_array")}


@dataclass(frozen=True)
class Lit(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str  # "x" or "a"


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Call(Expression):
    func: str
    args: tuple[Expression, ...]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "end"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.offset)
        return self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Lit(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text == "pi":
                return Lit(math.pi)
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.current.kind == "op" and self.current.text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{tok.text} expects {arity} argument(s), got {len(args)}",
                        tok.offset,
                    )
                return Call(tok.text, tuple(args))
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "expected a number, variable, function call or '('", tok.offset
        )


def parse(source: str) -> Expression:
    """Parse a formula in the variables x and a into an Expression tree."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ExprSyntaxError("formula nested too deeply", parser.current.offset) from None
    tok = parser.current
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return node


# ---------------------------------------------------------------------------
# Evaluation: each tree is compiled to a Python lambda on first use
# ---------------------------------------------------------------------------

def evaluate(expr: Expression, x: float, a: float) -> float:
    """Evaluate a tree at position ``x`` and control ``a``; raises EvalError
    on division by zero, zero raised to a negative power, domain errors, and
    any non-finite intermediate or final result."""
    try:
        value = expr._scalar(x, a)
    except (ArithmeticError, ValueError) as exc:  # EvalError is a ValueError
        raise EvalError(f"{exc} (at x={x!r}, a={a!r})") from None
    return _finite(value)


def evaluate_array(expr: Expression, x, a) -> np.ndarray:
    """Vectorized evaluation over numpy arrays (broadcasting x against a);
    invalid operations give non-finite entries, for callers to judge."""
    x, a = np.asarray(x, dtype=float), np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        out = expr._array(x, a)
    return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(x.shape, a.shape)).copy()


def _finite(value):
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value!r}")
    return value


def _checked_pow(left, right):
    if left == 0.0 and right < 0.0:
        raise EvalError("zero raised to a negative power")
    return math.pow(left, right)


# All that generated code can reach; "_pow" takes nonnegative literal exponents.
_SCALAR_NAMESPACE = {"__builtins__": {}, "_fin": _finite, "_div": operator.truediv,
                     "_pow": math.pow, "_checked_pow": _checked_pow, "sin": math.sin,
                     "cos": math.cos, "exp": math.exp, "abs": abs, "min": min, "max": max}
_ARRAY_NAMESPACE = {"__builtins__": {}, "_div": np.divide, "_pow": np.power,
                    "_checked_pow": np.power, "sin": np.sin, "cos": np.cos, "exp": np.exp,
                    "abs": np.abs, "min": np.minimum, "max": np.maximum}
_INFIX = {"+": 1, "-": 1, "*": 2}  # precedence, the same in Python
_SPLIT_DEPTH = 32  # deeper subtrees are compiled apart: Python limits nesting


def _compile(expr: Expression, checked: bool):
    """expr as ``lambda x, a: ...``; literals and split subtrees are closure constants."""
    consts: list = []
    body = _source(expr, consts, checked, True, 0)[0]
    params = ", ".join(f"_k{i}" for i in range(len(consts)))
    return _factory(f"lambda {params}: lambda x, a: {body}", checked)(*consts)


@functools.lru_cache(maxsize=1024)  # trees of one shape differ only in constants
def _factory(source: str, checked: bool):
    return eval(source, _SCALAR_NAMESPACE if checked else _ARRAY_NAMESPACE)


def _source(node, consts: list, checked: bool, chained: bool, depth: int) -> tuple[str, int]:
    """Source of node and its precedence (1 sum, 2 product, 3 negation, 4
    atom), parenthesized only where Python would group otherwise.  With
    checked, a BinOp result is tested for finiteness unless chained: its
    nearest ancestor other than Neg is +, - or *, which carry inf and nan to
    the top of the chain, or it has none, and evaluate tests the root."""
    if isinstance(node, Lit):
        consts.append(node.value)
        return f"_k{len(consts) - 1}", 4
    if isinstance(node, Var):
        return ("x" if node.name == "x" else "a"), 4
    if depth >= _SPLIT_DEPTH and not isinstance(node, Neg):
        consts.append(node._scalar if checked else node._array)
        text, prec = f"_k{len(consts) - 1}(x, a)", 4
    elif isinstance(node, Neg):
        text, prec = _source(node.operand, consts, checked, chained, depth + 1)
        return (f"-{text}" if prec >= 3 else f"-({text})"), 3
    elif isinstance(node, BinOp) and node.op in _INFIX:
        prec = _INFIX[node.op]
        left, lp = _source(node.left, consts, checked, True, depth + 1)
        right, rp = _source(node.right, consts, checked, True, depth + 1)
        left = left if lp >= prec else f"({left})"
        text = f"{left} {node.op} {right if rp > prec else f'({right})'}"
    elif isinstance(node, BinOp):
        unsigned = isinstance(node.right, Lit) and node.right.value >= 0.0
        func = "_div" if node.op == "/" else "_pow" if unsigned else "_checked_pow"
        left = _source(node.left, consts, checked, False, depth + 1)[0]
        right = _source(node.right, consts, checked, False, depth + 1)[0]
        text, prec = f"{func}({left}, {right})", 4
    elif isinstance(node, Call) and node.func in FUNCTIONS:
        args = ", ".join(_source(arg, consts, checked, False, depth + 1)[0] for arg in node.args)
        return f"{node.func}({args})", 4
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if checked and not chained and isinstance(node, BinOp):
        return f"_fin({text})", 4
    return text, prec


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def format_number(value: float) -> str:
    """Canonical text for a numeric literal; reparses to the same float."""
    if value == math.inf:
        return "1e999"  # a literal that overflows, as parse reads it
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_expr(expr: Expression) -> str:
    """Canonical fully parenthesized text; parse(format_expr(t)) == t."""
    if isinstance(expr, Lit):
        return format_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{format_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(format_expr(arg) for arg in expr.args)})"
    raise TypeError(f"not an expression node: {expr!r}")
