"""Arithmetic expression language for edge dynamics and running costs.

Problem files describe each edge by two formulas in the variables ``x``
(arclength position on the edge) and ``a`` (control value).  This module
parses such formulas into immutable syntax trees, evaluates them, and
renders them back to a canonical fully parenthesized form.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | 'x' | 'a' | 'pi' | func '(' expr (',' expr)? ')'
              | '(' expr ')'
    number := (digit+ ('.' digit*)? | '.' digit+) (('e'|'E') ('+'|'-')? digit+)?

This is Python's expression grammar with ``^`` for ``**``, and ``parse``
reads it with Python's parser (``ast``).  Python's other forms, such as
``1_0``, ``0x10``, ``1j``, ``x**2``, ``x//2``, ``sin(x,)`` or keywords, are
syntax errors.  The functions are ``sin``, ``cos``, ``exp``, ``abs`` (unary)
and ``min``, ``max`` (binary).

A tree is compiled to a Python ``lambda x, a: ...`` on its first evaluation
(not by ``parse``) and cached on the node.  Only numbers, ``x``, ``a``, ``pi``
and the six functions reach the generated code, so no text of a formula is
ever executed.  ``evaluate`` raises EvalError wherever a tree walker that
checks every operation would (see its docstring); ``evaluate_array`` never
raises: invalid entries come out non-finite.

``kernel`` compiles an edge's f and ell at all of its controls into one
call from the same source text, so its floats are evaluate's bit for bit;
``EdgeSpec.kernel`` keeps one per edge, and a rollout step
(``oracle.simulate``) calls it once instead of evaluate twice per control.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression", "Lit", "Var", "Neg", "BinOp", "Call", "ExprError", "ExprSyntaxError",
    "EvalError", "parse", "evaluate", "evaluate_array", "kernel", "format_expr", "format_number",
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
# Parsing: Python's parser reads the grammar, with '**' standing for '^'
# ---------------------------------------------------------------------------

_UNEXPECTED = re.compile(r"[^\sA-Za-z0-9_.+\-*/^(),]|(?<=[*^])[*^]")  # "**" is not "^"
_BLANKS = re.compile(r"[^\S ]|(?<![\w.])(?<![eE][+-])0+(?=\d)")  # newlines, tabs, and the 00 of 007
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_ARGUMENTS = re.compile(r" *\(.*[^, ] *\)")  # sin(x), not (sin)(x) nor sin(x,)
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse(source: str) -> Expression:
    """Parse a formula in the variables x and a into an Expression tree."""
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    if bad := _UNEXPECTED.search(source):
        raise ExprSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    text = _BLANKS.sub(lambda blank: " " * len(blank.group()), source).lstrip()
    lead, text = len(source) - len(text), text.replace("^", "**")  # one ASCII line: columns are offsets

    def at(column: int) -> int:  # the offset in source of a column of text
        return lead + len(text[:column].replace("**", "^"))

    def tree(node: ast.AST) -> Expression:
        kind, start, end = type(node), node.col_offset, node.end_col_offset
        if kind is ast.Constant and _NUMBER.fullmatch(text, start, end):
            return Lit(float(text[start:end]))
        if kind is ast.Name and node.id in (*VARIABLES, "pi"):
            return Lit(math.pi) if node.id == "pi" else Var(node.id)
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return Neg(tree(node.operand))
        if kind is ast.BinOp and type(node.op) in _OPERATORS:
            return BinOp(_OPERATORS[type(node.op)], tree(node.left), tree(node.right))
        if (kind is ast.Call and getattr(node.func, "id", None) in FUNCTIONS and not node.keywords
                and _ARGUMENTS.fullmatch(text, node.func.end_col_offset, end)):
            name, args = node.func.id, tuple(tree(arg) for arg in node.args)
            if len(args) != (arity := FUNCTIONS[name]):
                raise ExprSyntaxError(f"{name} expects {arity} argument(s), got {len(args)}", at(start))
            return Call(name, args)
        what = "unknown identifier" if kind is ast.Name else "unsupported syntax"
        raise ExprSyntaxError(f"{what} {source[at(start):at(end)]!r}", at(start))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as on 1and x: the tree or the error is the answer
        try:
            return tree(ast.parse(text, mode="eval").body)
        except SyntaxError as exc:  # Python's columns are 1-based; 0 means the end
            column = exc.offset - 1 if exc.offset else len(text)
            message = "formula nested too deeply" if "nested" in exc.msg else re.split("[.;] ", exc.msg)[0]
            with contextlib.suppress(SyntaxError, RecursionError, MemoryError):
                ast.parse(text[:column], mode="eval")  # a formula ends where the error starts
                message = f"unexpected trailing input {source[at(column):].strip()!r}"
            raise ExprSyntaxError(message, at(column)) from None
        except (RecursionError, MemoryError):
            raise ExprSyntaxError("formula nested too deeply", 0) from None


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
    body = _source(expr, consts, checked, True, 0, "a")[0]
    params = ", ".join(f"_k{i}" for i in range(len(consts)))
    return _factory(f"lambda {params}: lambda x, a: {body}", checked)(*consts)


def kernel(f: Expression, ell: Expression, controls: tuple[float, ...]):
    """``x -> (f(x, a_0), ell(x, a_0), f(x, a_1), ...)``: evaluate's lambdas
    of f and ell, each control a closure constant where ``a`` stands, in one
    call, so every float is evaluate's bit for bit.  It raises where evaluate
    would, but not on a non-finite root and not with evaluate's message."""
    consts: list = []
    parts = []
    for a in controls:
        consts.append(a)
        name = f"_k{len(consts) - 1}"
        parts += [_source(tree, consts, True, True, 0, name)[0] for tree in (f, ell)]
    params = ", ".join(f"_k{i}" for i in range(len(consts)))
    return _factory(f"lambda {params}: lambda x: ({', '.join(parts)},)", True)(*consts)


@functools.lru_cache(maxsize=1024)  # trees of one shape differ only in constants
def _factory(source: str, checked: bool):
    return eval(source, _SCALAR_NAMESPACE if checked else _ARRAY_NAMESPACE)


def _source(node, consts: list, checked: bool, chained: bool, depth: int, a: str) -> tuple[str, int]:
    """Source of node, with the text a standing for Var("a"), and its
    precedence (1 sum, 2 product, 3 negation, 4 atom), parenthesized only
    where Python would group otherwise.  With checked, a BinOp result is
    tested for finiteness unless chained: its nearest ancestor other than
    Neg is +, - or *, which carry inf and nan to the top of the chain, or it
    has none, and evaluate tests the root."""
    if isinstance(node, Lit):
        consts.append(node.value)
        return f"_k{len(consts) - 1}", 4
    if isinstance(node, Var):
        return ("x" if node.name == "x" else a), 4
    if depth >= _SPLIT_DEPTH and not isinstance(node, Neg):
        consts.append(node._scalar if checked else node._array)
        text, prec = f"_k{len(consts) - 1}(x, {a})", 4
    elif isinstance(node, Neg):
        text, prec = _source(node.operand, consts, checked, chained, depth + 1, a)
        return (f"-{text}" if prec >= 3 else f"-({text})"), 3
    elif isinstance(node, BinOp) and node.op in _INFIX:
        prec = _INFIX[node.op]
        left, lp = _source(node.left, consts, checked, True, depth + 1, a)
        right, rp = _source(node.right, consts, checked, True, depth + 1, a)
        left = left if lp >= prec else f"({left})"
        text = f"{left} {node.op} {right if rp > prec else f'({right})'}"
    elif isinstance(node, BinOp):
        unsigned = isinstance(node.right, Lit) and node.right.value >= 0.0
        func = "_div" if node.op == "/" else "_pow" if unsigned else "_checked_pow"
        left = _source(node.left, consts, checked, False, depth + 1, a)[0]
        right = _source(node.right, consts, checked, False, depth + 1, a)[0]
        text, prec = f"{func}({left}, {right})", 4
    elif isinstance(node, Call) and node.func in FUNCTIONS:
        args = ", ".join(_source(arg, consts, checked, False, depth + 1, a)[0] for arg in node.args)
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
