"""Physical-plan rendering: EXPLAIN output.

Renders, per box, the operator pipeline of the compiled program
(:func:`repro.engine.columnar.compile_program`) — which quantifier is
scanned first, which are attached by hash join vs nested loop and under
which predicates, where semi/anti joins and scalar bindings apply, where
duplicates are eliminated — annotated with the estimator's row counts.

The program is what the batch executor runs, so for ``executor="batch"``
EXPLAIN cannot disagree with execution. The tuple engine interprets the
graph instead of compiling it, but decides hash key vs residual vs scan
with the same function in the same order
(:func:`repro.engine.evaluator.hashable_equality`), so the same pipeline
describes it, with two exceptions. A range join (``RANGEJOIN``, a base
table's sorted column bisected per outer row) is a nested loop there, and
shows as ``NLJOIN``. A linear recursive rule the program starts from
its delta quantifier, while the tuple engine runs it in the plan's
``order=(...)``; under any other executor such a rule shows only that
order (``JOIN ... (plan order)``), not the program's pipeline. The
``correlated`` strategy compiles no program at all, so
:meth:`repro.api.Connection.explain` renders none for it.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType
from repro.optimizer.cardinality import CardinalityEstimator
from repro.engine.columnar import compile_program
from repro.engine.columnar.operators import (
    CrossStep,
    FailedOp,
    HashStep,
    RangeStep,
    SelectOp,
)
from repro.engine.evaluator import ordered_foreach


def _child_name(quantifier):
    child = quantifier.input_box
    if child.kind == BoxKind.BASE:
        return child.table_name
    return child.name


def _select_pipeline(operator, estimator, executor):
    """Describe the compiled join pipeline of one select box as
    ``executor`` runs it."""
    box = operator.box
    lines = []
    for index, step in enumerate(operator.steps):
        quantifier = step.quantifier
        label = step.label
        if index == 0 and isinstance(step, HashStep):
            # A hash step with nothing bound before it probes with
            # constants or outer bindings: an index lookup, not a join.
            label = "INDEXSCAN"
        elif executor != "batch" and isinstance(step, RangeStep):
            label = CrossStep.label
        detail = ""
        if step.predicates:
            detail = " ON " + " AND ".join(str(p) for p in step.predicates)
        lines.append(
            "%s %s%s (%s, ~%d rows)%s"
            % (
                label,
                "magic " if quantifier.is_magic else "",
                quantifier.name,
                _child_name(quantifier),
                estimator.rows(quantifier.input_box),
                detail,
            )
        )
    probed = {
        step.quantifier for step in operator.scalars if step.lookup is not None
    }
    for quantifier in box.quantifiers:
        if quantifier.qtype == QuantifierType.EXISTENTIAL:
            lines.append(
                "SEMIJOIN %s (%s)" % (quantifier.name, _child_name(quantifier))
            )
        elif quantifier.qtype == QuantifierType.ANTI:
            kind = "null-aware " if quantifier.null_aware else ""
            lines.append(
                "%sANTIJOIN %s (%s)"
                % (kind.upper(), quantifier.name, _child_name(quantifier))
            )
        elif quantifier.qtype == QuantifierType.SCALAR:
            if quantifier in probed:
                mode = "decorrelated probe"
            elif quantifier.decorrelated:
                mode = "decorrelated scan"
            else:
                mode = "single row"
            lines.append(
                "SCALAR %s (%s, %s)"
                % (quantifier.name, _child_name(quantifier), mode)
            )
    for predicate in operator.tail_predicates:
        lines.append("FILTER %s" % predicate)
    if box.distinct == DistinctMode.ENFORCE:
        lines.append("DISTINCT")
    return lines


def physical_plan(graph, plan=None, catalog=None, executor="batch"):
    """Render the physical plan ``executor`` runs for ``graph``.

    ``plan`` is a :class:`~repro.optimizer.plan.GraphPlan` (for join
    orders); without one, declaration order is assumed.
    """
    catalog = catalog or graph.catalog
    estimator = CardinalityEstimator(catalog, root=graph.top_box)
    join_orders = plan.join_orders if plan is not None else {}
    program = compile_program(graph, join_orders)

    lines = []
    for index, component in enumerate(program.components):
        recursive = index in program.fixpoints
        for box in component:
            if box.kind == BoxKind.BASE:
                continue
            header = "%s %s (~%d rows)" % (box.kind, box.name, estimator.rows(box))
            if box is graph.top_box:
                header = "RETURN " + header
            elif recursive:
                header = "FIXPOINT " + header
            else:
                header = "MATERIALIZE " + header
            lines.append(header)
            operator = program.operators[id(box)]
            if isinstance(operator, FailedOp):
                lines.append("  cannot compile: %s" % operator.error)
            elif isinstance(operator, SelectOp):
                order = ordered_foreach(box, join_orders.get(box.box_id))
                if executor != "batch" and order != [
                    step.quantifier for step in operator.steps
                ]:
                    # A delta-first rule: this executor keeps plan order.
                    lines.append(
                        "  JOIN %s (plan order)"
                        % " > ".join(q.name for q in order)
                    )
                else:
                    for line in _select_pipeline(operator, estimator, executor):
                        lines.append("  " + line)
            elif box.kind == BoxKind.GROUPBY:
                keys = ", ".join(str(k) for k in box.group_keys) or "()"
                aggs = ", ".join(
                    str(c.expr)
                    for c in box.columns
                    if isinstance(c.expr, qe.QAggregate)
                )
                lines.append(
                    "  GROUPBY [%s] aggregates [%s] over %s"
                    % (keys, aggs, _child_name(box.quantifiers[0]))
                )
            elif box.kind == BoxKind.OUTERJOIN:
                left, right = box.quantifiers
                lines.append(
                    "  LEFT OUTER JOIN %s (%s) with %s (%s) ON %s"
                    % (
                        left.name,
                        _child_name(left),
                        right.name,
                        _child_name(right),
                        " AND ".join(str(p) for p in box.predicates),
                    )
                )
            else:
                inputs = ", ".join(_child_name(q) for q in box.quantifiers)
                mode = (
                    "DISTINCT"
                    if box.distinct == DistinctMode.ENFORCE
                    else "ALL"
                )
                lines.append("  %s %s over [%s]" % (box.kind, mode, inputs))
    if graph.order_by:
        keys = ", ".join(
            "#%d %s" % (ordinal + 1, "ASC" if ascending else "DESC")
            for ordinal, ascending in graph.order_by
        )
        lines.append("SORT %s" % keys)
    if graph.limit is not None:
        lines.append("LIMIT %d" % graph.limit)
    return "\n".join(lines)
