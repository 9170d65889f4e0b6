"""Structural invariant checks for QGM graphs (codes ``QGM1xx``).

``validate_graph`` raises :class:`~repro.errors.QgmError` on the first
violation. The rewrite tests call it after every rule application so a rule
that corrupts the graph fails loudly.

The checks are generators of :class:`StructuralError` records, so the
same invariants serve two callers: ``validate_graph`` stops at the first,
and :class:`repro.analysis.structural.StructuralPass` collects every one
of them into an analysis report.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.errors import QgmError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType

_VALID_DISTINCT = {DistinctMode.ENFORCE, DistinctMode.PRESERVE, DistinctMode.PERMIT}
_VALID_QTYPES = (
    QuantifierType.FOREACH,
    QuantifierType.EXISTENTIAL,
    QuantifierType.ANTI,
    QuantifierType.SCALAR,
)
_SETOPS = (BoxKind.UNION, BoxKind.INTERSECT, BoxKind.EXCEPT)


class StructuralError(NamedTuple):
    """One violated invariant, located at a box (and optionally one of
    its quantifiers or columns)."""

    code: str
    message: str
    box: object
    quantifier: Optional[str] = None
    column: Optional[str] = None
    hint: Optional[str] = None

    @property
    def location(self) -> str:
        where = "box %r" % self.box.name
        if self.box.box_id is not None and self.box.box_id >= 0:
            where += " #%d" % self.box.box_id
        if self.quantifier is not None:
            where += " quantifier %r" % self.quantifier
        if self.column is not None:
            where += " column %r" % self.column
        return where


def structural_errors(boxes):
    """Every invariant violation among ``boxes`` (the reachable boxes of
    one graph), box by box in order."""
    box_ids = {id(box) for box in boxes}
    all_quantifiers = {q for box in boxes for q in box.quantifiers}
    for box in boxes:
        try:
            yield from box_errors(box, box_ids, all_quantifiers)
        except Exception as exc:  # a *malformed* graph must not stop the run
            yield StructuralError(
                "QGM199",
                "structural check crashed on box %r: %s: %s"
                % (box.name, type(exc).__name__, exc),
                box,
                hint="the box is malformed beyond what the invariants model",
            )


def validate_graph(graph) -> bool:
    """Check structural invariants of every reachable box.

    Raises :class:`QgmError` carrying the first error's message; the
    diagnostic code and location are available in the error's
    ``context``.
    """
    for error in structural_errors(graph.boxes()):
        raise QgmError(
            error.message,
            context={"code": error.code, "location": error.location},
        )
    return True


def box_errors(box, box_ids, all_quantifiers):
    """The violations of one box, given the ids of every reachable box and
    the set of every quantifier in the graph."""
    if box.distinct not in _VALID_DISTINCT:
        yield StructuralError(
            "QGM101",
            "box %r has invalid distinct mode %r" % (box.name, box.distinct),
            box,
            hint="use DistinctMode.ENFORCE, PRESERVE or PERMIT",
        )

    for quantifier in box.quantifiers:
        if quantifier.parent_box is not box:
            yield StructuralError(
                "QGM102",
                "quantifier %r of box %r has wrong parent link"
                % (quantifier.name, box.name),
                box,
                quantifier=quantifier.name,
                hint="add quantifiers through Box.add_quantifier",
            )
        if id(quantifier.input_box) not in box_ids:
            yield StructuralError(
                "QGM103",
                "quantifier %r of box %r ranges over an unreachable box"
                % (quantifier.name, box.name),
                box,
                quantifier=quantifier.name,
            )
        if quantifier.qtype not in _VALID_QTYPES:
            yield StructuralError(
                "QGM104",
                "invalid quantifier type %r" % quantifier.qtype,
                box,
                quantifier=quantifier.name,
            )

    names = [q.name for q in box.quantifiers]
    if len(names) != len(set(names)):
        yield StructuralError(
            "QGM105",
            "box %r has duplicate quantifier names" % box.name,
            box,
            hint="use QueryGraph.fresh_name for generated quantifiers",
        )

    if box.kind == BoxKind.BASE:
        if box.quantifiers:
            yield StructuralError(
                "QGM106", "base box %r must not have quantifiers" % box.name, box
            )
        if box.schema is None:
            yield StructuralError(
                "QGM107", "base box %r lacks a schema" % box.name, box
            )
        return

    if box.kind == BoxKind.GROUPBY:
        yield from _groupby_errors(box)
    elif box.kind in _SETOPS:
        yield from _setop_errors(box)
    elif box.kind == BoxKind.OUTERJOIN:
        yield from _outerjoin_errors(box)
    elif box.kind == BoxKind.SELECT:
        for column in box.columns:
            if column.expr is None:
                yield StructuralError(
                    "QGM120",
                    "select box %r column %r lacks an expression"
                    % (box.name, column.name),
                    box,
                    column=column.name,
                )

    yield from _expression_errors(box, all_quantifiers)


def _groupby_errors(box):
    foreach = box.foreach_quantifiers()
    if len(foreach) != 1 or len(box.quantifiers) != 1:
        yield StructuralError(
            "QGM108",
            "groupby box %r must have exactly one foreach quantifier" % box.name,
            box,
        )
    if box.predicates:
        yield StructuralError(
            "QGM109",
            "groupby box %r must not carry predicates" % box.name,
            box,
            hint="push the predicate into the input or a wrapping select box",
        )
    for column in box.columns:
        if column.expr is None:
            yield StructuralError(
                "QGM110",
                "groupby box %r column %r lacks an expression"
                % (box.name, column.name),
                box,
                column=column.name,
            )
        elif not isinstance(column.expr, qe.QAggregate) and not any(
            qe.expr_equal(column.expr, key) for key in box.group_keys
        ):
            yield StructuralError(
                "QGM111",
                "groupby box %r column %r is neither a group key nor "
                "an aggregate" % (box.name, column.name),
                box,
                column=column.name,
            )


def _setop_errors(box):
    if box.predicates:
        yield StructuralError(
            "QGM112", "set-op box %r must not carry predicates" % box.name, box
        )
    arity = len(box.columns)
    if box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT) and len(box.quantifiers) != 2:
        yield StructuralError(
            "QGM113", "%s box %r must have two inputs" % (box.kind, box.name), box
        )
    if box.kind == BoxKind.UNION and len(box.quantifiers) < 1:
        yield StructuralError(
            "QGM113", "union box %r must have at least one input" % box.name, box
        )
    for quantifier in box.quantifiers:
        if quantifier.qtype != QuantifierType.FOREACH:
            yield StructuralError(
                "QGM114",
                "set-op box %r may only have foreach quantifiers" % box.name,
                box,
                quantifier=quantifier.name,
            )
        # Every input is compared against the set-op box's *own* column
        # list, so the offending branch is named even when the first input
        # silently disagrees with a later-added one.
        input_arity = len(quantifier.input_box.columns)
        if input_arity != arity:
            yield StructuralError(
                "QGM115",
                "set-op box %r input %r has mismatched arity "
                "(%d columns, box declares %d)"
                % (box.name, quantifier.name, input_arity, arity),
                box,
                quantifier=quantifier.name,
            )
    for column in box.columns:
        if column.expr is not None:
            yield StructuralError(
                "QGM116",
                "set-op box %r columns are positional (no expressions)" % box.name,
                box,
                column=column.name,
            )


def _outerjoin_errors(box):
    if len(box.quantifiers) != 2:
        yield StructuralError(
            "QGM117", "outer-join box %r must have two inputs" % box.name, box
        )
    for quantifier in box.quantifiers:
        if quantifier.qtype != QuantifierType.FOREACH:
            yield StructuralError(
                "QGM118",
                "outer-join box %r may only have foreach quantifiers" % box.name,
                box,
                quantifier=quantifier.name,
            )
    for column in box.columns:
        if column.expr is None:
            yield StructuralError(
                "QGM119",
                "outer-join box %r column %r lacks an expression"
                % (box.name, column.name),
                box,
                column=column.name,
            )


def _expression_errors(box, all_quantifiers):
    # Expression sanity: every referenced quantifier exists somewhere in
    # the graph, references name existing columns (local *and*
    # correlated), and aggregates only appear in groupby output columns.
    for expression in box.all_expressions():
        for node in qe.walk(expression):
            if isinstance(node, qe.QColRef):
                if node.quantifier not in all_quantifiers:
                    yield StructuralError(
                        "QGM121",
                        "box %r references a dangling quantifier %r"
                        % (box.name, node.quantifier.name),
                        box,
                        quantifier=node.quantifier.name,
                        column=node.column,
                    )
                    continue  # its input box cannot be trusted below
                if not node.quantifier.input_box.has_column(node.column):
                    yield StructuralError(
                        "QGM122",
                        "box %r references missing column %s.%s"
                        % (box.name, node.quantifier.name, node.column),
                        box,
                        quantifier=node.quantifier.name,
                        column=node.column,
                    )
            if isinstance(node, qe.QAggregate) and box.kind != BoxKind.GROUPBY:
                yield StructuralError(
                    "QGM123",
                    "aggregate found outside a groupby box (in %r)" % box.name,
                    box,
                    hint="aggregates are only valid as groupby output columns",
                )
