import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from junction_hjb import exprlang
from junction_hjb.exprlang import (
    BinOp,
    Call,
    EvalError,
    ExprSyntaxError,
    Lit,
    Neg,
    Var,
    evaluate,
    format_expr,
    parse,
)


def test_parse_direct_grammar_cases():
    assert parse("1 - a") == BinOp("-", Lit(1.0), Var("a"))
    assert parse("a") == Var("a")


def test_parse_precedence_hand_derivation():
    # Hand parse: unary minus binds the whole power, min is a binary call.
    expected = BinOp(
        "+",
        Neg(BinOp("^", Var("x"), Lit(2.0))),
        Call("min", (Var("a"), Lit(0.5))),
    )
    assert parse("-x^2 + min(a, 0.5)") == expected


def test_precedence_values():
    assert evaluate(parse("2+3*4"), 0.0, 0.0) == 14
    assert evaluate(parse("2^3^2"), 0.0, 0.0) == 512


def test_left_associativity():
    assert format_expr(parse("1-a-x")) == "((1 - a) - x)"


def test_pi_constant():
    assert evaluate(parse("cos(pi)"), 0.0, 0.0) == pytest.approx(-1.0)


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'b'"):
        parse("1 + b")


def test_wrong_arity():
    with pytest.raises(ExprSyntaxError, match="min expects 2"):
        parse("min(a)")
    with pytest.raises(ExprSyntaxError, match="sin expects 1"):
        parse("sin(a, x)")


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError, match="trailing"):
        parse("1 2")


def test_error_offsets_count_source_characters():
    # Python's parser reads '^' as '**', one column wider; offsets are the source's.
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'b'") as err:
        parse("x^2 + b")
    assert err.value.offset == 6
    with pytest.raises(ExprSyntaxError, match="sin expects 1") as err:
        parse("x ^ 2 ^ sin(a, x)")
    assert err.value.offset == 8
    with pytest.raises(ExprSyntaxError) as err:
        parse("x^2 + * 2")
    assert err.value.offset == 6


@pytest.mark.parametrize(
    "source",
    ["1_0", "0x10", "0o7", "1j", "sin(x,)", "min(x, a,)", "x**2", "x//2", "x % 2", "1and x",
     "0x1for a", "x if a else 1", "(sin)(x)", "min(^x)", "min(x, a, ^x)", "+x", "True"],
)
def test_python_only_forms_are_refused(source):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExprSyntaxError):
            parse(source)


@pytest.mark.parametrize(
    "source, tree",
    [
        ("1\n+ x", BinOp("+", Lit(1.0), Var("x"))),  # an embedded newline
        (" \tx ^ 2\n", BinOp("^", Var("x"), Lit(2.0))),  # leading and trailing whitespace
        ("\u3000a", Var("a")),  # any whitespace str.isspace knows
        ("007 - 1e+007", BinOp("-", Lit(7.0), Lit(1e7))),  # leading zeros, which Python refuses
        ("1" * 400, Lit(math.inf)),  # integers too large for a float overflow, as floats do
        ("1" * 5000 + ".0", Lit(math.inf)),
    ],
)
def test_whitespace_zeros_and_overflowing_literals_are_accepted(source, tree):
    assert parse(source) == tree


def test_non_ascii_digits_are_refused():
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        parse("2 * \uff11")
    assert err.value.offset == 4


def test_integer_literal_beyond_pythons_digit_limit_is_refused():
    # Python refuses integer literals of more than 4300 digits; floats have no limit.
    with pytest.raises(ExprSyntaxError, match="4300"):
        parse("1" * 5000)


@pytest.mark.parametrize(
    "source",
    [
        "(" * 300 + "a" + ")" * 300,
        "-" * 3000 + "x",
        "^".join(["x"] * 3000),
        "sin(" * 300 + "x" + ")" * 300,
    ],
    ids=["parentheses", "unary", "power", "calls"],
)
def test_deep_nesting_is_a_syntax_error(source):
    # Python's parser reports "too many nested parentheses", RecursionError or
    # MemoryError, depending on the form and the version; each is this error.
    with pytest.raises(ExprSyntaxError, match="formula nested too deeply"):
        parse(source)


_PIECES = ["0", "1", "2.5", ".5", "1e3", "e", "x", "a", "pi", "b", "sin", "min", "+", "-", "*", "/", "^",
           "(", ")", ",", " ", "**", "//", "_", "0x", "j", "if", "and", ",)", "\n", "\uff11"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
def test_parse_returns_a_tree_or_raises_a_syntax_error(source):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tree = parse(source)
        except ExprSyntaxError as err:
            assert 0 <= err.offset <= len(source)
        else:
            assert parse(format_expr(tree)) == tree


def test_evaluate_substitution():
    assert evaluate(parse("1 - a"), 0.0, 1.0) == 0.0
    assert evaluate(parse("a"), 7.0, -1.0) == -1.0
    assert evaluate(parse("exp(-x)*a"), math.log(2), 2.0) == pytest.approx(1.0)


def test_evaluate_errors():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("1 / x"), 0.0, 0.0)
    with pytest.raises(EvalError, match="negative power"):
        evaluate(parse("x ^ (-1)"), 0.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("exp(x)"), 1e9, 0.0)  # overflow is reported, not inf


def test_evaluate_is_deterministic():
    expr = parse("sin(x) * a + exp(-x^2)")
    assert evaluate(expr, 0.3, 0.7) == evaluate(expr, 0.3, 0.7)


def test_format_examples():
    assert format_expr(Var("a")) == "a"
    assert format_expr(BinOp("-", Lit(1.0), Var("a"))) == "(1 - a)"


# Arbitrary trees: literals are nonnegative (the grammar produces negative
# values only through unary minus); parse("1e999") yields Lit(inf).
_lits = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    st.floats(
        min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False
    ),
    st.just(math.inf),
).map(Lit)
_vars = st.sampled_from([Var("x"), Var("a")])


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


_trees = st.recursive(st.one_of(_lits, _vars), _compound, max_leaves=25)


@given(_trees)
def test_format_parse_round_trip(tree):
    assert parse(format_expr(tree)) == tree


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_parse_format_fixpoint_on_source(x, a):
    source = "-x^2 + min(a, 0.5) * exp(-abs(x)) / (1 + a^2)"
    tree = parse(source)
    assert parse(format_expr(tree)) == tree
    assert evaluate(tree, x, a) == evaluate(parse(format_expr(tree)), x, a)


def test_evaluate_array_matches_scalar():
    expr = parse("a * (1 + 0.5 * x) - max(x, a)")
    xs = np.linspace(0, 2, 7)
    arr = exprlang.evaluate_array(expr, xs, np.full_like(xs, 0.3))
    for x, v in zip(xs, arr):
        assert v == pytest.approx(evaluate(expr, float(x), 0.3))


# Reference: tree walkers that check every operation.  The compiled
# evaluator must agree with them bit for bit, and raise EvalError wherever
# they do.
_REF_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}
_REF_ARRAY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}


def _ref_evaluate(expr, x, a):
    value = _ref_eval(expr, x, a)
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value!r}")
    return value


def _ref_eval(expr, x, a):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return x if expr.name == "x" else a
    if isinstance(expr, Neg):
        return -_ref_eval(expr.operand, x, a)
    if isinstance(expr, BinOp):
        left = _ref_eval(expr.left, x, a)
        right = _ref_eval(expr.right, x, a)
        if expr.op == "+":
            result = left + right
        elif expr.op == "-":
            result = left - right
        elif expr.op == "*":
            result = left * right
        elif expr.op == "/":
            if right == 0.0:
                raise EvalError("division by zero")
            result = left / right
        else:  # "^"
            if left == 0.0 and right < 0.0:
                raise EvalError("zero raised to a negative power")
            try:
                result = math.pow(left, right)
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"pow({left}, {right}): {exc}") from None
        if not math.isfinite(result):
            raise EvalError(f"non-finite result in {expr.op!r}")
        return result
    args = [_ref_eval(arg, x, a) for arg in expr.args]
    if expr.func == "min":
        return min(args)
    if expr.func == "max":
        return max(args)
    try:
        return _REF_FUNCS[expr.func](args[0])
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"{expr.func}({args[0]}): {exc}") from None


def _ref_eval_array(expr, x, a):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return x if expr.name == "x" else a
    if isinstance(expr, Neg):
        return -_ref_eval_array(expr.operand, x, a)
    if isinstance(expr, BinOp):
        left = _ref_eval_array(expr.left, x, a)
        right = _ref_eval_array(expr.right, x, a)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return np.divide(left, right)
        return np.power(left, right)
    args = [_ref_eval_array(arg, x, a) for arg in expr.args]
    if expr.func == "min":
        return np.minimum(args[0], args[1])
    if expr.func == "max":
        return np.maximum(args[0], args[1])
    return _REF_ARRAY_FUNCS[expr.func](args[0])


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except EvalError:
        return "EvalError"


_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, -1.0]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_trees, _inputs, _inputs)
def test_evaluate_matches_reference_walker(tree, x, a):
    assert _outcome(evaluate, tree, x, a) == _outcome(_ref_evaluate, tree, x, a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_trees, st.lists(st.tuples(_inputs, _inputs), min_size=1, max_size=6))
def test_evaluate_array_matches_reference_walker(tree, points):
    xs = np.array([p[0] for p in points])
    as_ = np.array([p[1] for p in points])
    got = exprlang.evaluate_array(tree, xs, as_)
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(_ref_eval_array(tree, xs, as_), dtype=float), xs.shape)
    assert got.tobytes() == want.tobytes()


def test_evaluate_keeps_the_tree_grouping():
    # Reassociating either of these changes the result.
    assert evaluate(parse("x - (a - 1)"), 0.0, 1.0) == 0.0
    assert evaluate(parse("x * (a * 1e-10)"), 1e308, 10.0) == pytest.approx(1e299)
    with pytest.raises(EvalError):
        evaluate(parse("x * a * 1e-10"), 1e308, 10.0)


@pytest.mark.parametrize(
    "source",
    [
        "^".join(["x"] * 300),  # compiled to 300 nested calls, beyond Python's 200
        "min(" * 150 + "x" + ", a)" * 150,
        "x - (" * 150 + "x" + ")" * 150,
        " + ".join(["x * a"] * 600),
        "-" * 500 + "x",
    ],
)
def test_deep_trees_match_reference_walker(source):
    tree = parse(source)
    assert evaluate(tree, 0.5, 0.25) == _ref_evaluate(tree, 0.5, 0.25)
    xs, as_ = np.array([0.5, 2.0, math.inf]), np.array([0.25, -1.0, 0.0])
    with np.errstate(all="ignore"):
        want = np.broadcast_to(_ref_eval_array(tree, xs, as_), xs.shape)
    assert exprlang.evaluate_array(tree, xs, as_).tobytes() == want.tobytes()


def test_evaluate_compiles_once_on_first_use():
    tree = parse("a * (1 + 0.5 * x) - max(x, a) / 2")
    assert "_scalar" not in vars(tree) and "_array" not in vars(tree)
    compiled = (evaluate(tree, 0.5, 0.3), tree._scalar)
    assert evaluate(tree, 0.5, 0.3) == compiled[0] and tree._scalar is compiled[1]
    assert "_array" not in vars(tree)


def test_trees_of_one_shape_share_compiled_code():
    one, two = parse("2 * x + 1"), parse("3 * x + 5")
    assert evaluate(one, 1.0, 0.0) == 3.0 and evaluate(two, 1.0, 0.0) == 8.0
    assert one._scalar.__code__ is two._scalar.__code__
    assert one._scalar.__code__ is not one._array.__code__


def test_evaluated_tree_pickles():
    tree = parse("a * x^2 - exp(-x) / 2")
    value = evaluate(tree, 0.5, 0.3)
    exprlang.evaluate_array(tree, [0.5], [0.3])
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and evaluate(copy, 0.5, 0.3) == value
