"""Vectorized compilation of QGM expressions.

:func:`compile_vector` turns an expression into ``fn(batch) -> list`` — a
closure producing one value per batch position, with SQL three-valued
logic (``None`` is UNKNOWN/NULL). It is the column-at-a-time counterpart
of :func:`repro.engine.expressions.compile_expr` and must agree with it
value-for-value: the differential suite runs both engines over the same
workloads and the batch executor's only licence is "same rows, faster".

The vectorized fast paths use the raw operator tables exported by
:mod:`repro.engine.expressions` inside list comprehensions guarded by
``None`` checks; a ``TypeError`` anywhere in a fast path re-runs the
column element-wise through the scalar helpers so mixed-type operands
raise the same :class:`~repro.errors.ExecutionError` the tuple engine
raises. CASE is inherently row-at-a-time (branches must not evaluate
eagerly — an untaken branch may divide by zero), so it drops to the
scalar closure over per-row environments.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.qgm import expr as qe
from repro.engine.expressions import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    _SCALAR_FUNCTIONS,
    arithmetic,
    compare,
    compile_expr,
    like_match,
    parameter_value,
    sql_not,
)


def compile_vector(expr):
    """Compile ``expr`` into ``fn(batch) -> list`` (one value/position)."""
    if isinstance(expr, qe.QParam):
        # Read at run time from the batch's environment: the compiled
        # closure is shared by every execution, whatever it binds.
        index = expr.index
        return lambda batch: (
            [parameter_value(batch.constants, index)] * batch.length
        )
    if isinstance(expr, qe.QLiteral):
        value = expr.value
        return lambda batch: [value] * batch.length
    if isinstance(expr, qe.QColRef):
        quantifier = expr.quantifier
        ordinal = quantifier.input_box.column_ordinal(expr.column)
        return lambda batch: batch.column(quantifier, ordinal)
    if isinstance(expr, qe.QBinary):
        op = expr.op
        left = compile_vector(expr.left)
        right = compile_vector(expr.right)
        if op == "AND":

            def and_fn(batch):
                return [
                    False
                    if (a is False or b is False)
                    else (None if (a is None or b is None) else True)
                    for a, b in zip(left(batch), right(batch))
                ]

            return and_fn
        if op == "OR":

            def or_fn(batch):
                return [
                    True
                    if (a is True or b is True)
                    else (None if (a is None or b is None) else False)
                    for a, b in zip(left(batch), right(batch))
                ]

            return or_fn
        raw = COMPARISON_OPS.get(op)
        if raw is not None:

            def compare_fn(batch):
                lv = left(batch)
                rv = right(batch)
                try:
                    return [
                        None if (a is None or b is None) else raw(a, b)
                        for a, b in zip(lv, rv)
                    ]
                except TypeError:
                    # Mixed-type operands: redo element-wise so the scalar
                    # helper raises the tuple engine's ExecutionError.
                    return [compare(op, a, b) for a, b in zip(lv, rv)]

            return compare_fn
        raw = ARITHMETIC_OPS.get(op)
        if raw is not None:

            def arith_fn(batch):
                lv = left(batch)
                rv = right(batch)
                try:
                    return [
                        None if (a is None or b is None) else raw(a, b)
                        for a, b in zip(lv, rv)
                    ]
                except TypeError:
                    return [arithmetic(op, a, b) for a, b in zip(lv, rv)]

            return arith_fn
        if op == "||":
            # ``arithmetic``'s concatenation inline: str() takes any
            # operand, so there is no TypeError to fall back on.
            return lambda batch: [
                None if (a is None or b is None) else str(a) + str(b)
                for a, b in zip(left(batch), right(batch))
            ]
        # '/' and '%' carry per-value semantics (zero checks, exact
        # integer division): always element-wise.
        return lambda batch: [
            arithmetic(op, a, b) for a, b in zip(left(batch), right(batch))
        ]
    if isinstance(expr, qe.QUnary):
        operand = compile_vector(expr.operand)
        if expr.op == "NOT":
            return lambda batch: [sql_not(v) for v in operand(batch)]
        if expr.op == "-":
            return lambda batch: [
                None if v is None else -v for v in operand(batch)
            ]
        raise ExecutionError("unknown unary operator %r" % expr.op)
    if isinstance(expr, qe.QIsNull):
        operand = compile_vector(expr.operand)
        if expr.negated:
            return lambda batch: [v is not None for v in operand(batch)]
        return lambda batch: [v is None for v in operand(batch)]
    if isinstance(expr, qe.QLike):
        operand = compile_vector(expr.operand)
        pattern = compile_vector(expr.pattern)
        negated = expr.negated

        def like_fn(batch):
            out = []
            for value, pat in zip(operand(batch), pattern(batch)):
                result = like_match(value, pat)
                if result is None:
                    out.append(None)
                else:
                    out.append(not result if negated else result)
            return out

        return like_fn
    if isinstance(expr, qe.QFunc):
        fn = _SCALAR_FUNCTIONS.get(expr.name.upper())
        if fn is None:
            raise ExecutionError("unknown scalar function %r" % expr.name)
        args = [compile_vector(a) for a in expr.args]
        if not args:
            return lambda batch: [fn() for _ in range(batch.length)]
        if len(args) == 1:
            arg = args[0]
            return lambda batch: [fn(v) for v in arg(batch)]

        def func_fn(batch):
            columns = [a(batch) for a in args]
            return [fn(*values) for values in zip(*columns)]

        return func_fn
    if isinstance(expr, qe.QCase):
        scalar = compile_expr(expr)
        return lambda batch: [scalar(env) for env in batch.row_envs()]
    if isinstance(expr, qe.QAggregate):
        raise ExecutionError(
            "aggregate %s evaluated outside a groupby box" % expr.func
        )
    raise ExecutionError("cannot compile expression %r" % type(expr).__name__)
