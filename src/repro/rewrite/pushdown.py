"""Predicate pushdown.

The standalone rule pushes *local* predicates (predicates over a single
foreach quantifier, no correlation) into derived child boxes so they apply
early — the paper's phase-1 "local predicate pushdown". The helper
functions are also used by the EMST rule, which pushes *join* predicates
through the same machinery once the join order tells it which quantifiers
may pass bindings (Algorithm 4.1 step 3).

Per-box-kind behaviour, as §4.3 describes: a select box accepts predicates
directly; a groupby box passes predicates on group-key columns through to
its input; a set-operation box distributes the predicate to its children
(for EXCEPT both the outer and the inner input may be filtered); predicates
on aggregated columns do not pass a groupby box.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, QuantifierType
from repro.rewrite.rule import RewriteRule
from repro.rewrite.common import in_own_subtree, total_uses


def map_through_select(predicate, quantifier):
    """Rewrite ``predicate`` (over ``quantifier``'s output columns) into an
    expression over the child select box's internals."""
    child = quantifier.input_box

    def mapping(ref):
        if ref.quantifier is quantifier:
            return child.column(ref.column).expr
        return None

    return qe.substitute_refs(predicate, mapping)


def groupby_pushable(predicate, quantifier):
    """True when every reference through ``quantifier`` (over a groupby box)
    is to a group-key output column (never an aggregate)."""
    child = quantifier.input_box
    for ref in qe.column_refs(predicate):
        if ref.quantifier is quantifier:
            column = child.column(ref.column)
            if isinstance(column.expr, qe.QAggregate):
                return False
    return True


def map_through_groupby(predicate, quantifier):
    """Rewrite ``predicate`` over a groupby box's group-key output columns
    into an expression over the groupby's *input* quantifier."""
    child = quantifier.input_box

    def mapping(ref):
        if ref.quantifier is quantifier:
            return child.column(ref.column).expr  # a ref over the input q
        return None

    return qe.substitute_refs(predicate, mapping)


def map_positionally(predicate, quantifier, branch_quantifier):
    """Rewrite ``predicate`` over a set-op box's columns into the same
    predicate over one of its input quantifiers (positional columns)."""
    setop = quantifier.input_box
    child = branch_quantifier.input_box

    def mapping(ref):
        if ref.quantifier is quantifier:
            position = setop.column_ordinal(ref.column)
            return qe.QColRef(
                quantifier=branch_quantifier, column=child.columns[position].name
            )
        return None

    return qe.substitute_refs(predicate, mapping)


def can_push_into_child(graph, predicate, quantifier):
    """Dry-run check for :func:`push_predicate_into_child`."""
    child = quantifier.input_box
    if child.kind == BoxKind.SELECT:
        return True
    if child.kind == BoxKind.GROUPBY:
        if not groupby_pushable(predicate, quantifier):
            return False
        mapped = map_through_groupby(predicate, quantifier)
        inner = child.quantifiers[0]
        if inner.input_box.kind != BoxKind.SELECT:
            return False
        if total_uses(graph, inner.input_box) != 1:
            return False
        return can_push_into_child(graph, mapped, inner)
    if child.kind in (BoxKind.UNION, BoxKind.INTERSECT, BoxKind.EXCEPT):
        if in_own_subtree(child):
            return False  # recursive union: pushdown would change the fixpoint
        for branch in child.quantifiers:
            if branch.input_box.kind == BoxKind.BASE:
                return False
            if total_uses(graph, branch.input_box) != 1:
                return False
            mapped = map_positionally(predicate, quantifier, branch)
            if not can_push_into_child(graph, mapped, branch):
                return False
        return True
    return False


def push_predicate_into_child(graph, predicate, quantifier):
    """Push ``predicate`` (over ``quantifier``) into the child box.

    Returns True on success, having mutated the child; False leaves the
    graph untouched (the check runs first). The caller removes the
    predicate from the parent. The child must be exclusively owned (single
    use) — callers check; EMST pushes into fresh adorned copies, which
    always are.
    """
    if not can_push_into_child(graph, predicate, quantifier):
        return False
    _do_push(graph, predicate, quantifier)
    return True


def _do_push(graph, predicate, quantifier):
    child = quantifier.input_box
    if child.kind == BoxKind.SELECT:
        child.predicates.append(map_through_select(predicate, quantifier))
        return
    if child.kind == BoxKind.GROUPBY:
        mapped = map_through_groupby(predicate, quantifier)
        _do_push(graph, mapped, child.quantifiers[0])
        return
    for branch in child.quantifiers:
        mapped = map_positionally(predicate, quantifier, branch)
        _do_push(graph, mapped, branch)


class PredicatePushdownRule(RewriteRule):
    """Push local (single-quantifier, uncorrelated) predicates down."""

    name = "predicate-pushdown"
    phases = frozenset({1, 2, 3})
    priority = 40

    def applies_to(self, box, context):
        return box.kind == BoxKind.SELECT and bool(box.predicates)

    def apply(self, box, context):
        local = set(box.quantifiers)
        for predicate in list(box.predicates):
            refs = qe.column_refs(predicate)
            quantifiers = {ref.quantifier for ref in refs}
            if quantifiers - local:
                continue  # correlated predicate: owned by EMST
            if len(quantifiers) != 1:
                continue
            quantifier = next(iter(quantifiers))
            if quantifier.qtype != QuantifierType.FOREACH:
                continue
            child = quantifier.input_box
            if child.kind == BoxKind.BASE:
                continue
            if context.phase < 3 and child.is_special:
                continue
            if context.index.total_uses(child) != 1:
                continue
            if in_own_subtree(child):
                continue
            if push_predicate_into_child(context.graph, predicate, quantifier):
                box.predicates.remove(predicate)
                return True
        return False
