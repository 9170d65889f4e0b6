"""Row-wise expression semantics: three-valued logic, NULL propagation,
LIKE, scalar functions, and the closures :func:`compile_expr` /
:func:`compile_predicate` make of QGM expressions."""

import pytest

from repro.engine.expressions import (
    arithmetic,
    compare,
    compile_expr,
    compile_predicate,
    like_match,
    sql_and,
    sql_not,
    sql_or,
)
from repro.errors import ExecutionError
from repro.qgm import expr as qe
from repro.qgm.model import Box, BoxKind, OutputColumn, Quantifier, QuantifierType


def make_env(values, columns=("a", "b")):
    base = Box(
        kind=BoxKind.BASE,
        name="T",
        columns=[OutputColumn(name=c) for c in columns],
    )
    quantifier = Quantifier(name="t", qtype=QuantifierType.FOREACH, input_box=base)
    return quantifier, {quantifier: tuple(values)}


def value_of(expr, env=None):
    """``expr`` compiled, then called on ``env``."""
    return compile_expr(expr)({} if env is None else env)


# -- three-valued logic -------------------------------------------------------


@pytest.mark.parametrize(
    "left,right,expected",
    [
        (True, True, True),
        (True, False, False),
        (False, None, False),
        (True, None, None),
        (None, None, None),
    ],
)
def test_sql_and(left, right, expected):
    assert sql_and(left, right) is expected


@pytest.mark.parametrize(
    "left,right,expected",
    [
        (False, False, False),
        (True, None, True),
        (False, None, None),
        (None, None, None),
    ],
)
def test_sql_or(left, right, expected):
    assert sql_or(left, right) is expected


def test_sql_not():
    assert sql_not(True) is False
    assert sql_not(False) is True
    assert sql_not(None) is None


def test_comparisons_with_null_are_unknown():
    for op in ("=", "<>", "<", "<=", ">", ">="):
        assert compare(op, None, 1) is None
        assert compare(op, 1, None) is None


def test_comparisons_basic():
    assert compare("=", 2, 2) is True
    assert compare("<>", 2, 3) is True
    assert compare("<", "a", "b") is True
    assert compare(">=", 5, 5) is True


def test_incomparable_types_raise():
    with pytest.raises(ExecutionError):
        compare("<", 1, "x")


# -- arithmetic ----------------------------------------------------------------


def test_arithmetic_null_propagates():
    for op in ("+", "-", "*", "/", "%", "||"):
        assert arithmetic(op, None, 1) is None


def test_integer_division_exact_stays_int():
    assert arithmetic("/", 6, 3) == 2
    assert isinstance(arithmetic("/", 6, 3), int)
    assert arithmetic("/", 7, 2) == 3.5


def test_division_by_zero_raises():
    with pytest.raises(ExecutionError):
        arithmetic("/", 1, 0)
    with pytest.raises(ExecutionError):
        arithmetic("%", 1, 0)


def test_concat_coerces_to_string():
    assert arithmetic("||", "x", 1) == "x1"


# -- LIKE ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,pattern,expected",
    [
        ("hello", "h%", True),
        ("hello", "%lo", True),
        ("hello", "h_llo", True),
        ("hello", "H%", False),
        ("a.b", "a.b", True),
        ("axb", "a.b", False),  # dot is literal
        (None, "x", None),
        ("x", None, None),
    ],
)
def test_like_match(value, pattern, expected):
    assert like_match(value, pattern) is expected


# -- compiled closures over environments ----------------------------------------


def test_column_reference_lookup():
    quantifier, env = make_env((7, 8))
    assert value_of(quantifier.ref("b"), env) == 8
    assert value_of(quantifier.ref("a"), env) == 7


def test_unbound_quantifier_raises():
    quantifier, _ = make_env((7, 8))
    with pytest.raises(ExecutionError, match="unbound quantifier 't'"):
        value_of(quantifier.ref("a"), {})


def test_case_expression_first_true_branch():
    quantifier, env = make_env((2, 0))
    expr = qe.QCase(
        branches=[
            (qe.QBinary("=", quantifier.ref("a"), qe.QLiteral(1)), qe.QLiteral("one")),
            (qe.QBinary("=", quantifier.ref("a"), qe.QLiteral(2)), qe.QLiteral("two")),
        ],
        default=qe.QLiteral("other"),
    )
    assert value_of(expr, env) == "two"


def test_case_without_default_yields_null():
    quantifier, env = make_env((9, 0))
    expr = qe.QCase(
        branches=[(qe.QBinary("=", quantifier.ref("a"), qe.QLiteral(1)), qe.QLiteral("one"))]
    )
    assert value_of(expr, env) is None


def test_is_null_and_negation():
    quantifier, env = make_env((None, 1))
    assert value_of(qe.QIsNull(operand=quantifier.ref("a")), env) is True
    assert value_of(qe.QIsNull(operand=quantifier.ref("a"), negated=True), env) is False
    assert value_of(qe.QIsNull(operand=quantifier.ref("b")), env) is False


def test_predicate_holds_only_on_true():
    quantifier, env = make_env((None, 1))
    unknown = qe.QBinary("=", quantifier.ref("a"), qe.QLiteral(1))
    assert value_of(unknown, env) is None
    assert compile_predicate(unknown)(env) is False
    false = qe.QBinary("=", quantifier.ref("b"), qe.QLiteral(2))
    assert compile_predicate(false)(env) is False
    true = qe.QBinary("=", quantifier.ref("b"), qe.QLiteral(1))
    assert compile_predicate(true)(env) is True


# -- scalar functions ----------------------------------------------------------------


def test_builtin_scalar_functions():
    assert value_of(qe.QFunc("UPPER", [qe.QLiteral("ab")])) == "AB"
    assert value_of(qe.QFunc("LOWER", [qe.QLiteral("AB")])) == "ab"
    assert value_of(qe.QFunc("LENGTH", [qe.QLiteral("abc")])) == 3
    assert value_of(qe.QFunc("ABS", [qe.QLiteral(-4)])) == 4
    assert value_of(qe.QFunc("MOD", [qe.QLiteral(7), qe.QLiteral(3)])) == 1
    assert value_of(qe.QFunc("COALESCE", [qe.QLiteral(None), qe.QLiteral(5)])) == 5
    assert (
        value_of(qe.QFunc("SUBSTR", [qe.QLiteral("hello"), qe.QLiteral(2), qe.QLiteral(3)]))
        == "ell"
    )


def test_scalar_functions_null_propagation():
    assert value_of(qe.QFunc("UPPER", [qe.QLiteral(None)])) is None
    assert value_of(qe.QFunc("ABS", [qe.QLiteral(None)])) is None
    assert value_of(qe.QBinary("+", qe.QLiteral(None), qe.QLiteral(1))) is None
    assert value_of(qe.QUnary("-", qe.QLiteral(None))) is None


def test_unknown_function_raises():
    # At compile time: no environment is needed to find out.
    with pytest.raises(ExecutionError, match="unknown scalar function 'NOPE'"):
        compile_expr(qe.QFunc("NOPE", [qe.QLiteral(1)]))


def test_custom_scalar_function_registration():
    from repro.engine.expressions import scalar_function

    @scalar_function("DOUBLE_IT")
    def double_it(value):
        return None if value is None else value * 2

    assert value_of(qe.QFunc("DOUBLE_IT", [qe.QLiteral(21)])) == 42
    assert value_of(qe.QFunc("double_it", [qe.QLiteral(None)])) is None


def test_aggregate_outside_groupby_raises():
    with pytest.raises(ExecutionError, match="outside a groupby box"):
        compile_expr(qe.QAggregate(func="SUM", arg=qe.QLiteral(1)))


# -- compiled expressions ------------------------------------------------------


def test_compile_expr_expected_values():
    quantifier, env = make_env((3, None))
    a, b = quantifier.ref("a"), quantifier.ref("b")
    cases = [
        (qe.QLiteral(7), 7),
        (a, 3),
        (b, None),
        (qe.QBinary("+", a, qe.QLiteral(4)), 7),
        (qe.QBinary("/", a, qe.QLiteral(2)), 1.5),
        (qe.QBinary("||", a, qe.QLiteral("x")), "3x"),
        (qe.QBinary("=", a, qe.QLiteral(3)), True),
        (qe.QBinary("<", b, qe.QLiteral(3)), None),
        (qe.QBinary("AND", qe.QLiteral(True), qe.QIsNull(operand=b)), True),
        (qe.QBinary("AND", qe.QLiteral(False), qe.QLiteral(None)), False),
        (qe.QBinary("OR", qe.QLiteral(False), qe.QLiteral(None)), None),
        (qe.QBinary("OR", qe.QLiteral(True), qe.QLiteral(None)), True),
        (qe.QUnary("NOT", qe.QLiteral(None)), None),
        (qe.QUnary("NOT", qe.QLiteral(False)), True),
        (qe.QUnary("-", a), -3),
        (qe.QIsNull(operand=b, negated=True), False),
        (qe.QLike(operand=qe.QLiteral("abc"), pattern=qe.QLiteral("a%")), True),
        (
            qe.QLike(
                operand=qe.QLiteral("abc"), pattern=qe.QLiteral("a%"), negated=True
            ),
            False,
        ),
        (qe.QLike(operand=b, pattern=qe.QLiteral("a%")), None),
        (qe.QFunc("ABS", [qe.QUnary("-", a)]), 3),
        (
            qe.QCase(
                branches=[(qe.QBinary("=", a, qe.QLiteral(3)), qe.QLiteral("hit"))],
                default=qe.QLiteral("miss"),
            ),
            "hit",
        ),
        # An UNKNOWN condition does not take its branch.
        (
            qe.QCase(
                branches=[(qe.QBinary("=", b, qe.QLiteral(3)), qe.QLiteral("hit"))],
                default=qe.QLiteral("miss"),
            ),
            "miss",
        ),
    ]
    for expr, expected in cases:
        value = compile_expr(expr)(env)
        assert value == expected and type(value) is type(expected), str(expr)


def test_compile_predicate_true_only():
    quantifier, env = make_env((3, None))
    unknown = qe.QBinary("=", quantifier.ref("b"), qe.QLiteral(1))
    assert compile_predicate(unknown)(env) is False
    true = qe.QBinary("=", quantifier.ref("a"), qe.QLiteral(3))
    assert compile_predicate(true)(env) is True


def test_compile_expr_unbound_quantifier_raises():
    quantifier, _ = make_env((1, 2))
    fn = compile_expr(quantifier.ref("a"))
    with pytest.raises(ExecutionError):
        fn({})


def test_compile_expr_rejects_aggregates():
    with pytest.raises(ExecutionError):
        compile_expr(qe.QAggregate(func="SUM", arg=qe.QLiteral(1)))
