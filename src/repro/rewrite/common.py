"""Shared helpers for rewrite rules."""

from __future__ import annotations

from repro.qgm import expr as qe


def substitute_everywhere(graph, mapping):
    """Apply a column-reference substitution to every expression in the
    graph. ``mapping`` takes a QColRef and returns a replacement expression
    or None to keep it."""
    for box in graph.boxes():
        substitute_in_box(box, mapping)


def substitute_in_box(box, mapping):
    """Apply a column-reference substitution to one box's expressions."""
    box.columns = [
        type(column)(
            name=column.name,
            expr=qe.substitute_refs(column.expr, mapping)
            if column.expr is not None
            else None,
        )
        for column in box.columns
    ]
    box.predicates = [qe.substitute_refs(p, mapping) for p in box.predicates]
    box.group_keys = [qe.substitute_refs(k, mapping) for k in box.group_keys]
    for quantifier in box.quantifiers:
        if quantifier.selector_predicates:
            quantifier.selector_predicates = [
                qe.substitute_refs(p, mapping)
                for p in quantifier.selector_predicates
            ]


def total_uses(graph, target):
    """Number of quantifiers ranging over ``target`` plus magic links.

    Walks the graph: for checks made while a rule is mutating it. Checks
    made before a mutation read :meth:`RuleIndex.total_uses
    <repro.rewrite.rule.RuleIndex.total_uses>` instead."""
    count = 0
    for box in graph.boxes():
        for quantifier in box.quantifiers:
            if quantifier.input_box is target:
                count += 1
        for magic in box.linked_magic:
            if magic is target:
                count += 1
    return count


def in_own_subtree(box):
    """True when ``box`` is reachable from itself (part of a cycle)."""
    seen = set()
    stack = [q.input_box for q in box.quantifiers]
    while stack:
        current = stack.pop()
        if current is box:
            return True
        if id(current) in seen:
            continue
        seen.add(id(current))
        for quantifier in current.quantifiers:
            stack.append(quantifier.input_box)
    return False
