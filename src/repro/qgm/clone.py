"""Cloning machinery for QGM boxes.

The EMST rule needs *adorned copies* of boxes ("a copy with adornment alpha
may have been made earlier, or such a copy may be created at this step",
Algorithm 4.2 step 3). A copy shares children that do not correlate back
into the copied region and deep-clones children that do, so the copy is a
self-contained unit whose expressions never reference the original's
quantifiers.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.model import Box, BoxKind, OutputColumn, Quantifier, QueryGraph


def clone_graph(graph):
    """A self-contained structural copy of a whole :class:`QueryGraph`.

    Every box and quantifier is a new object and every expression is
    rebuilt with its column references re-pointed at the copied
    quantifiers; ``box_id`` values are preserved so plan artifacts keyed by
    box id (join orders) remain valid against the copy. The catalog, table
    schemas and literal nodes are shared: they are never mutated through a
    graph. Boxes reachable only from the graph's bookkeeping maps (unused
    base boxes, adorned copies no longer referenced) are copied too.

    Used for the heuristic's phase-1 snapshot, the rewrite engine's
    per-firing rollback snapshot and trial rewrites.
    """
    boxes = {}  # id(original box) -> copy
    quantifiers = {}  # original quantifier -> copy
    pending = []

    def box_copy(box):
        copy = boxes.get(id(box))
        if copy is None:
            copy = Box(
                kind=box.kind,
                name=box.name,
                box_id=box.box_id,
                distinct=box.distinct,
                table_name=box.table_name,
                schema=box.schema,
                magic_role=box.magic_role,
                adornment=box.adornment,
                emst_done=box.emst_done,
                properties=dict(box.properties),
            )
            boxes[id(box)] = copy
            pending.append((box, copy))
        return copy

    def quantifier_copy(quantifier):
        copy = quantifiers.get(quantifier)
        if copy is None:
            copy = Quantifier(
                name=quantifier.name,
                qtype=quantifier.qtype,
                input_box=box_copy(quantifier.input_box),
                parent_box=(
                    box_copy(quantifier.parent_box)
                    if quantifier.parent_box is not None else None
                ),
                is_magic=quantifier.is_magic,
                null_aware=quantifier.null_aware,
                decorrelated=quantifier.decorrelated,
            )
            quantifiers[quantifier] = copy
        return copy

    def repoint(node):
        if isinstance(node, qe.QColRef):
            return qe.QColRef(
                quantifier=quantifier_copy(node.quantifier), column=node.column
            )
        return node

    def expr_copy(expression):
        # map_expr rebuilds every interior node and hands literals to
        # ``repoint`` unchanged, so literals are the only shared nodes.
        return qe.map_expr(expression, repoint)

    copy_graph = QueryGraph(graph.catalog)
    if graph.top_box is not None:
        copy_graph.top_box = box_copy(graph.top_box)
    copy_graph._base_boxes = {
        name: box_copy(box) for name, box in graph._base_boxes.items()
    }
    copy_graph.adorned_copies = {
        key: box_copy(box) for key, box in graph.adorned_copies.items()
    }
    while pending:
        original, copy = pending.pop()
        copy.quantifiers = [quantifier_copy(q) for q in original.quantifiers]
        copy.linked_magic = [box_copy(m) for m in original.linked_magic]
        copy.columns = [
            OutputColumn(
                name=column.name,
                expr=expr_copy(column.expr) if column.expr is not None else None,
            )
            for column in original.columns
        ]
        copy.predicates = [expr_copy(p) for p in original.predicates]
        copy.group_keys = [expr_copy(k) for k in original.group_keys]
        for quantifier, new_quantifier in zip(original.quantifiers, copy.quantifiers):
            if quantifier.selector_predicates:
                new_quantifier.selector_predicates = [
                    expr_copy(p) for p in quantifier.selector_predicates
                ]
    copy_graph.order_by = list(graph.order_by)
    copy_graph.limit = graph.limit
    copy_graph._next_box_id = graph._next_box_id
    copy_graph._name_counters = dict(graph._name_counters)
    return copy_graph


def restore_graph(graph, snapshot):
    """Restore ``graph`` *in place* to a snapshot taken by
    :func:`clone_graph`. In-place matters: callers up the stack (the
    rewrite context, the heuristic pipeline) hold references to the graph
    object itself."""
    graph.__dict__.clear()
    graph.__dict__.update(snapshot.__dict__)


def _subtree_boxes(box):
    """All boxes reachable from ``box`` through quantifiers (inclusive)."""
    seen = {}
    stack = [box]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen[id(current)] = current
        for quantifier in current.quantifiers:
            stack.append(quantifier.input_box)
        for magic in current.linked_magic:
            stack.append(magic)
    return list(seen.values())


def _boxes_referencing(boxes, quantifier_owner_ids):
    """Of ``boxes``, those whose expressions reference a quantifier owned by
    a box in ``quantifier_owner_ids``."""
    out = []
    for box in boxes:
        for expression in box.all_expressions():
            refs = qe.column_refs(expression)
            if any(
                id(ref.quantifier.parent_box) in quantifier_owner_ids for ref in refs
            ):
                out.append(box)
                break
    return out


def clone_box(graph, box, name=None, keep_linked_magic=False, deep_derived=False):
    """Clone ``box`` and return the copy.

    Children are shared unless their subtree correlates back into the cloned
    region, in which case they are cloned too (recursively, to a fixpoint).
    Cloned boxes get fresh ids and names; expressions are remapped onto the
    cloned quantifiers. Correlated references to quantifiers *outside* the
    cloned region are preserved as-is.

    With ``deep_derived`` every non-base box of the subtree is cloned (base
    tables stay shared) — used when the copy will be *mutated* down its
    whole chain, e.g. by the local-magic rule pushing a restriction below
    a shared grouping.
    """
    # Fixpoint: which boxes must be cloned (vs shared)?
    to_clone = {id(box): box}
    if deep_derived:
        for member in _subtree_boxes(box):
            if member.kind != BoxKind.BASE:
                to_clone[id(member)] = member
    # A recursive box must be cloned together with its whole strongly
    # connected component, otherwise the copy's recursive references would
    # leak back into the original cycle.
    own_subtree = {id(b): b for b in _subtree_boxes(box)}
    for candidate in own_subtree.values():
        if candidate is box:
            continue
        if id(box) in {id(b) for b in _subtree_boxes(candidate)}:
            to_clone[id(candidate)] = candidate
    while True:
        region_ids = set(to_clone)
        descendants = []
        for member in list(to_clone.values()):
            for quantifier in member.quantifiers:
                for child in _subtree_boxes(quantifier.input_box):
                    if id(child) not in region_ids:
                        descendants.append(child)
        # A descendant correlating into the cloned region must be cloned,
        # together with every box on the path from the region to it.
        correlating = _boxes_referencing(descendants, region_ids)
        if not correlating:
            break
        correlating_ids = {id(b) for b in correlating}
        added = False
        for member in correlating:
            if id(member) not in to_clone:
                to_clone[id(member)] = member
                added = True
        # Also pull in ancestors within the subtree chain: any box already
        # slated for cloning that references a to-clone box keeps working
        # via the quantifier re-pointing below, but a *shared* intermediate
        # box ranging over a cloned child would leak the clone into the
        # original graph, so intermediates must be cloned as well.
        changed = True
        while changed:
            changed = False
            for member in descendants:
                if id(member) in to_clone:
                    continue
                for quantifier in member.quantifiers:
                    if id(quantifier.input_box) in to_clone:
                        to_clone[id(member)] = member
                        added = True
                        changed = True
                        break
        if not added:
            break

    # Create empty clones and quantifier mapping.
    box_map = {}
    quantifier_map = {}
    for original_id, original in to_clone.items():
        copy = Box(kind=original.kind, name=original.name)
        graph.register_box(copy)
        copy.distinct = original.distinct
        copy.table_name = original.table_name
        copy.schema = original.schema
        copy.magic_role = original.magic_role
        copy.adornment = original.adornment
        copy.properties = dict(original.properties)
        box_map[original_id] = copy
    for original_id, original in to_clone.items():
        copy = box_map[original_id]
        for quantifier in original.quantifiers:
            target = box_map.get(id(quantifier.input_box), quantifier.input_box)
            new_quantifier = Quantifier(
                name=graph.fresh_name(quantifier.name),
                qtype=quantifier.qtype,
                input_box=target,
                is_magic=quantifier.is_magic,
                null_aware=quantifier.null_aware,
            )
            copy.add_quantifier(new_quantifier)
            quantifier_map[quantifier] = new_quantifier

    def remap(expression):
        return qe.remap_quantifier(expression, quantifier_map)

    for original_id, original in to_clone.items():
        copy = box_map[original_id]
        copy.columns = [
            OutputColumn(
                name=column.name,
                expr=remap(column.expr) if column.expr is not None else None,
            )
            for column in original.columns
        ]
        copy.predicates = [remap(p) for p in original.predicates]
        copy.group_keys = [remap(k) for k in original.group_keys]
        for quantifier, new_quantifier in quantifier_map.items():
            if quantifier.parent_box is original and quantifier.selector_predicates:
                new_quantifier.selector_predicates = [
                    remap(p) for p in quantifier.selector_predicates
                ]
                new_quantifier.decorrelated = quantifier.decorrelated
        if keep_linked_magic:
            copy.linked_magic = list(original.linked_magic)

    result = box_map[id(box)]
    if name is not None:
        result.name = name
    return result, quantifier_map
