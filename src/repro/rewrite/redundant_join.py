"""Redundant join elimination.

Two tiers, cheapest first, both decided from facts the compiler derives
itself:

1. **Syntactic**: a select box joins two quantifiers over the same box —
   or over two distinct BASE boxes of the *same table* — on a full key of
   that source (the key fixpoint, :mod:`repro.qgm.facts.keyflow`); the
   second quantifier denotes the same row and is removed (the pattern view
   expansion leaves behind, e.g. query D referencing ``department`` both
   directly and through ``mgrSal``).
2. **FK-covered parent joins**: a join of a child table to its FOREIGN
   KEY parent on the full FK, where the parent is read only through the
   referenced columns. When those columns cover a declared key of the
   parent and every FK column is NOT NULL — exactly when the catalog's
   inclusion dependency ``child[fk] ⊆ parent[ref]`` is unconditional —
   every child row matches exactly one parent row, so the join neither
   filters nor multiplies and the parent quantifier goes.

The chase (:mod:`repro.analysis.equivalence`) decides nothing here; it
checks these firings afterwards (paranoid mode, translation validation),
and the ``QGM602`` diagnostic reports the joins only the chase can prove
redundant.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.facts.keyflow import solve_box_keys
from repro.qgm.model import BoxKind
from repro.rewrite.rule import RewriteRule
from repro.rewrite.common import substitute_everywhere


def _is_trivial_self_equality(predicate):
    sides = qe.equality_sides(predicate)
    if sides is None:
        return False
    left, right = sides
    return left.quantifier is right.quantifier and left.column == right.column


def _same_source(first_box, second_box):
    """Same box object, or two BASE boxes over one stored table."""
    if first_box is second_box:
        return True
    return (
        first_box.kind == BoxKind.BASE
        and second_box.kind == BoxKind.BASE
        and first_box.table_name is not None
        and second_box.table_name is not None
        and first_box.table_name.lower() == second_box.table_name.lower()
    )


def columns_read_through(graph, quantifier):
    """Lower-cased column names referenced from ``quantifier`` anywhere."""
    columns = set()
    for box in graph.boxes():
        for expression in box.all_expressions():
            for ref in qe.column_refs(expression):
                if ref.quantifier is quantifier:
                    columns.add(ref.column.lower())
    return columns


def linked_by_equality(box, first, second):
    """True when some predicate of ``box`` equates a column of ``first``
    with a column of ``second``."""
    for predicate in box.predicates:
        sides = qe.equality_sides(predicate)
        if sides is None:
            continue
        quantifiers = {sides[0].quantifier, sides[1].quantifier}
        if quantifiers == {first, second}:
            return True
    return False


def eliminate_quantifier(box, graph, keep, drop, column_mapping, join_orders=None):
    """Remove ``drop`` from ``box``, redirecting every reference through
    ``column_mapping`` (lower-cased drop column -> keep column name)."""

    def mapping(ref):
        if ref.quantifier is drop:
            return qe.QColRef(
                quantifier=keep,
                column=column_mapping.get(ref.column.lower(), ref.column),
            )
        return None

    box.remove_quantifier(drop)
    substitute_everywhere(graph, mapping)
    # Join predicates became trivial self-equalities; remove them (they
    # would only re-filter NULL keys, and the equivalence argument — a
    # declared key or a NOT NULL foreign key — guarantees the column is
    # non-null exactly where the join matched).
    box.predicates = [
        p for p in box.predicates if not _is_trivial_self_equality(p)
    ]
    if join_orders is not None:
        order = join_orders.get(box.box_id)
        if order and drop.name in order:
            join_orders[box.box_id] = [n for n in order if n != drop.name]


def fk_parent_joins(box, graph):
    """Yield ``(child, parent, fk, column_mapping)`` for every join of
    ``box`` from a BASE child to a BASE parent over the child's foreign
    key ``fk`` that equates the full FK, where the parent is read (in any
    box) only through the referenced columns. ``column_mapping`` maps
    each referenced column to its FK column."""
    foreach = box.foreach_quantifiers()
    for child in foreach:
        child_box = child.input_box
        if child_box.kind != BoxKind.BASE or child_box.schema is None:
            continue
        for fk in child_box.schema.foreign_keys:
            for parent in foreach:
                if parent is child:
                    continue
                parent_box = parent.input_box
                if (
                    parent_box.kind != BoxKind.BASE
                    or parent_box.table_name is None
                    or parent_box.table_name.lower() != fk.ref_table.lower()
                ):
                    continue
                if not _fk_fully_equated(box, child, parent, fk):
                    continue
                column_mapping = {
                    ref.lower(): child_col
                    for ref, child_col in zip(fk.ref_columns, fk.columns)
                }
                if not columns_read_through(graph, parent) <= set(column_mapping):
                    continue
                yield child, parent, fk, column_mapping


def _fk_fully_equated(box, child, parent, fk):
    equated = set()
    for predicate in box.predicates:
        sides = qe.equality_sides(predicate)
        if sides is None:
            continue
        left, right = sides
        if left.quantifier is parent and right.quantifier is child:
            left, right = right, left
        if left.quantifier is child and right.quantifier is parent:
            equated.add((left.column.lower(), right.column.lower()))
    return all(
        (child_col.lower(), ref_col.lower()) in equated
        for child_col, ref_col in zip(fk.columns, fk.ref_columns)
    )


def fk_matches_one_parent(child, parent, fk):
    """True when every row of ``child`` joins exactly one row of
    ``parent`` on ``fk``: the referenced columns cover a declared key of
    the parent (at most one match) and every FK column is NOT NULL (the
    declared inclusion holds for every child row, so at least one)."""
    not_null = child.input_box.schema.not_null_columns()
    return parent.input_box.schema.is_unique_on(fk.ref_columns) and all(
        column.lower() in not_null for column in fk.columns
    )


class RedundantJoinRule(RewriteRule):
    """Eliminate joins that provably re-fetch an already-joined row."""

    name = "redundant-join"
    phases = frozenset({1, 3})
    priority = 60

    def applies_to(self, box, context):
        if box.kind != BoxKind.SELECT or box.is_special:
            return False
        foreach = box.foreach_quantifiers()
        if len(foreach) < 2:
            return False
        for i, first in enumerate(foreach):
            for second in foreach[i + 1:]:
                if _same_source(first.input_box, second.input_box):
                    return True
                if linked_by_equality(box, first, second):
                    return True
        return False

    def apply(self, box, context):
        return self._apply_syntactic(box, context) or self._apply_fk_parent(
            box, context
        )

    # -- tier 1: key-equated same-source joins -------------------------------

    def _apply_syntactic(self, box, context):
        foreach = box.foreach_quantifiers()
        for i, first in enumerate(foreach):
            for second in foreach[i + 1:]:
                if not _same_source(first.input_box, second.input_box):
                    continue
                matched = self._key_equated(box, first, second)
                if matched is None:
                    continue
                identity = {
                    name.lower(): name
                    for name in first.input_box.column_names
                }
                eliminate_quantifier(
                    box, context.graph, first, second, identity,
                    context.join_orders,
                )
                return True
        return False

    def _key_equated(self, box, first, second):
        """If the box equates a full key of the shared source between the
        two quantifiers, return the list of those equality predicates."""
        pairs = {}
        predicates_by_column = {}
        for predicate in box.predicates:
            sides = qe.equality_sides(predicate)
            if sides is None:
                continue
            left, right = sides
            pair = None
            if left.quantifier is first and right.quantifier is second:
                pair = (left.column.lower(), right.column.lower())
            elif left.quantifier is second and right.quantifier is first:
                pair = (right.column.lower(), left.column.lower())
            if pair and pair[0] == pair[1]:
                pairs[pair[0]] = True
                predicates_by_column[pair[0]] = predicate
        for key in solve_box_keys(first.input_box):
            if key and all(column in pairs for column in key):
                return [predicates_by_column[column] for column in key]
        return None

    # -- tier 2: FK-covered parent joins -------------------------------------

    def _apply_fk_parent(self, box, context):
        for child, parent, fk, column_mapping in fk_parent_joins(
            box, context.graph
        ):
            if fk_matches_one_parent(child, parent, fk):
                eliminate_quantifier(
                    box, context.graph, child, parent, column_mapping,
                    context.join_orders,
                )
                return True
        return False
