"""Row-wise semantics of QGM expressions, with SQL three-valued logic.

:func:`compile_expr` is the one definition of what a scalar expression
means one row at a time: it turns an expression into a closure
``fn(env) -> value`` once, and every row-at-a-time site of the engines
(join and post-join predicates, hash-probe keys, E/A tests, scalar
subquery selectors, outer-join conditions, projections) calls such a
closure per environment. Its column-wise twin is
:func:`~repro.engine.columnar.vector.compile_vector`, which applies the
same operator helpers defined here (:func:`compare`, :func:`arithmetic`,
:func:`like_match`, the scalar-function registry) to whole columns; the
differential suite pins the two against each other.

An *environment* maps :class:`~repro.qgm.model.Quantifier` objects to the
current row (a tuple laid out per the quantifier's input box columns), and
the reserved key :data:`PARAMETERS` to the statement's parameter vector
when the graph still carries :class:`~repro.qgm.expr.QParam` nodes.
Boolean expressions evaluate to ``True``, ``False`` or ``None`` (UNKNOWN);
predicates accept a row only when the result is ``True``. An expression
that cannot be evaluated at all (an unknown scalar function, an aggregate
outside a groupby box) fails when it is compiled, not per row.
"""

from __future__ import annotations

import operator
import re

from repro.errors import ExecutionError
from repro.qgm import expr as qe

_LIKE_CACHE = {}


class _ParametersKey:
    """Environment key of the parameter vector (never a quantifier)."""

    def __repr__(self):
        return "PARAMETERS"


#: ``env[PARAMETERS]`` is the tuple of values bound to the statement's
#: ``?`` slots for this execution. Evaluators put it in their root
#: environment, every derived environment copies it along, so compiled
#: closures stay free of per-execution values and one compilation serves
#: every binding.
PARAMETERS = _ParametersKey()


def parameter_value(env, index):
    """The value bound to parameter slot ``index`` in ``env``."""
    values = env.get(PARAMETERS)
    if values is None:
        raise ExecutionError(
            "unbound parameter ?%d reached the evaluator; pass parameter "
            "values to the execution or bind_parameters first" % (index + 1),
            context={"parameter": index},
        )
    if index >= len(values):
        raise ExecutionError(
            "statement expects parameter ?%d but only %d value(s) "
            "were bound" % (index + 1, len(values)),
            context={"parameter": index, "bound": len(values)},
        )
    return values[index]

#: Raw (not NULL-aware) binary operator callables, shared with the batch
#: executor's vector compiler. The vectorized paths apply these inside
#: comprehensions with explicit None guards; ``/``, ``%`` and ``||`` stay
#: out because they carry extra semantics (zero checks, exact integer
#: division, string coercion) and go through :func:`arithmetic` per value.
COMPARISON_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

ARITHMETIC_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def like_match(value, pattern):
    """SQL LIKE with ``%`` and ``_`` wildcards; NULL-propagating."""
    if value is None or pattern is None:
        return None
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        parts = []
        for char in pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        regex = re.compile("^%s$" % "".join(parts), re.DOTALL)
        _LIKE_CACHE[pattern] = regex
    return regex.match(value) is not None


def sql_and(left, right):
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left, right):
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value):
    if value is None:
        return None
    return not value


def compare(op, left, right):
    """Three-valued comparison; any NULL operand yields UNKNOWN."""
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise ExecutionError(
            "cannot compare %r and %r with %s" % (left, right, op)
        )
    raise ExecutionError("unknown comparison operator %r" % op)


def arithmetic(op, left, right):
    """NULL-propagating arithmetic and string concatenation."""
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return left / right
        if op == "%":
            if right == 0:
                raise ExecutionError("division by zero")
            return left % right
        if op == "||":
            return str(left) + str(right)
    except TypeError:
        raise ExecutionError("invalid operands for %s: %r, %r" % (op, left, right))
    raise ExecutionError("unknown operator %r" % op)


_SCALAR_FUNCTIONS = {}


def scalar_function(name):
    """Decorator registering a scalar SQL function (extensibility hook)."""

    def register(fn):
        _SCALAR_FUNCTIONS[name.upper()] = fn
        return fn

    return register


@scalar_function("UPPER")
def _fn_upper(value):
    return None if value is None else str(value).upper()


@scalar_function("LOWER")
def _fn_lower(value):
    return None if value is None else str(value).lower()


@scalar_function("LENGTH")
def _fn_length(value):
    return None if value is None else len(str(value))


@scalar_function("ABS")
def _fn_abs(value):
    return None if value is None else abs(value)


@scalar_function("MOD")
def _fn_mod(left, right):
    if left is None or right is None:
        return None
    if right == 0:
        raise ExecutionError("MOD by zero")
    return left % right


@scalar_function("COALESCE")
def _fn_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


@scalar_function("SUBSTR")
def _fn_substr(value, start, length=None):
    if value is None or start is None:
        return None
    text = str(value)
    begin = max(int(start) - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def compile_expr(expr):
    """Compile a QGM expression into a closure ``fn(env) -> value``.

    Dispatch, column ordinals, operator and function lookups are resolved
    here, once; the closure only reads the environment. Expressions must
    not be mutated after compilation (rewrite rules rebuild expressions
    rather than mutating, so anything reachable during execution is
    stable).
    """
    if isinstance(expr, qe.QParam):
        index = expr.index
        return lambda env: parameter_value(env, index)
    if isinstance(expr, qe.QLiteral):
        value = expr.value
        return lambda env: value
    if isinstance(expr, qe.QColRef):
        quantifier = expr.quantifier
        ordinal = quantifier.input_box.column_ordinal(expr.column)
        name = expr.quantifier.name

        def column_fn(env, _q=quantifier, _o=ordinal, _n=name):
            row = env.get(_q)
            if row is None:
                raise ExecutionError(
                    "unbound quantifier %r while evaluating %s.%s"
                    % (_n, _n, expr.column)
                )
            return row[_o]

        return column_fn
    if isinstance(expr, qe.QBinary):
        op = expr.op
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        if op == "AND":
            return lambda env: sql_and(left(env), right(env))
        if op == "OR":
            return lambda env: sql_or(left(env), right(env))
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda env: compare(op, left(env), right(env))
        return lambda env: arithmetic(op, left(env), right(env))
    if isinstance(expr, qe.QUnary):
        operand = compile_expr(expr.operand)
        if expr.op == "NOT":
            return lambda env: sql_not(operand(env))
        if expr.op == "-":

            def negate(env):
                value = operand(env)
                return None if value is None else -value

            return negate
        raise ExecutionError("unknown unary operator %r" % expr.op)
    if isinstance(expr, qe.QIsNull):
        operand = compile_expr(expr.operand)
        if expr.negated:
            return lambda env: operand(env) is not None
        return lambda env: operand(env) is None
    if isinstance(expr, qe.QLike):
        operand = compile_expr(expr.operand)
        pattern = compile_expr(expr.pattern)
        negated = expr.negated

        def like_fn(env):
            result = like_match(operand(env), pattern(env))
            if result is None:
                return None
            return not result if negated else result

        return like_fn
    if isinstance(expr, qe.QFunc):
        fn = _SCALAR_FUNCTIONS.get(expr.name.upper())
        if fn is None:
            raise ExecutionError("unknown scalar function %r" % expr.name)
        args = [compile_expr(a) for a in expr.args]
        return lambda env: fn(*[a(env) for a in args])
    if isinstance(expr, qe.QCase):
        branches = [
            (compile_expr(cond), compile_expr(value))
            for cond, value in expr.branches
        ]
        default = compile_expr(expr.default) if expr.default is not None else None

        def case_fn(env):
            for cond, value in branches:
                if cond(env) is True:
                    return value(env)
            return default(env) if default is not None else None

        return case_fn
    if isinstance(expr, qe.QAggregate):
        raise ExecutionError(
            "aggregate %s evaluated outside a groupby box" % expr.func
        )
    raise ExecutionError("cannot compile expression %r" % type(expr).__name__)


def compile_predicate(expr):
    """Compile a predicate into ``fn(env) -> bool`` (TRUE-only)."""
    fn = compile_expr(expr)
    return lambda env: fn(env) is True
