"""Constructors for the three special box types EMST introduces (§4.1):
magic-boxes, condition-magic-boxes and supplementary-magic-boxes.

A magic box is built with ``SELECT DISTINCT`` (ENFORCE); the distinct-
pullup rule later relaxes it when duplicate-freeness is provable, which is
what allows phase 3 to merge the box away. When a second consumer
contributes bindings to the same adorned box, the magic box is *extended
into a union* in place (its object identity is preserved so every existing
reference keeps working) — this is also how magic over recursive queries
acquires its recursive magic rules.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.facts.keyflow import is_duplicate_free
from repro.qgm.model import (
    BoxKind,
    DistinctMode,
    MagicRole,
    OutputColumn,
    Quantifier,
    QuantifierType,
)


def relax_proven_duplicate_free(graph):
    """Relax DISTINCT enforcement on every special-role (magic,
    condition-magic, supplementary) box whose output the key fixpoint
    proves duplicate-free without the enforcement.

    The distinct-pullup rule does the same box-at-a-time during phase 2;
    this sweep runs once on the whole graph before phase 3, so that boxes
    the rule's traversal missed (notably members of recursive magic
    cycles, which the historical key derivation bailed out on) still shed
    their enforcement and become mergeable. Returns the relaxed boxes.
    """
    relaxed = []
    for box in graph.boxes():
        if box.magic_role == MagicRole.REGULAR:
            continue
        if box.distinct != DistinctMode.ENFORCE:
            continue
        if is_duplicate_free(box, ignore_enforce=True):
            box.distinct = DistinctMode.PERMIT
            relaxed.append(box)
    return relaxed


def build_contribution(graph, box, eligible, output_specs, role=MagicRole.MAGIC):
    """Build one magic contribution: a select box over clones of the
    ``eligible`` quantifiers of ``box``, carrying the predicates of ``box``
    local to them, projecting ``output_specs`` (list of (name, expr) with
    exprs over the eligible quantifiers), with DISTINCT enforced."""
    contribution = graph.new_box(BoxKind.SELECT, graph.fresh_name("MG"))
    contribution.magic_role = role
    contribution.distinct = DistinctMode.ENFORCE
    quantifier_map = {}
    for quantifier in eligible:
        clone = Quantifier(
            name=graph.fresh_name(quantifier.name),
            qtype=QuantifierType.FOREACH,
            input_box=quantifier.input_box,
        )
        contribution.add_quantifier(clone)
        quantifier_map[quantifier] = clone
    eligible_set = set(eligible)
    for predicate in box.predicates:
        involved = {r.quantifier for r in qe.column_refs(predicate)}
        if involved and involved <= eligible_set:
            contribution.predicates.append(
                qe.remap_quantifier(predicate, quantifier_map)
            )
    contribution.columns = [
        OutputColumn(name=name, expr=qe.remap_quantifier(expr, quantifier_map))
        for name, expr in output_specs
    ]
    return contribution


def build_link_contribution(graph, magic_box, output_specs, role=MagicRole.MAGIC):
    """Build a contribution that derives a child's magic table from the
    parent's linked magic table (Example 4.14: m_mgrSal is a single
    quantifier over m_avgMgrSal). ``output_specs`` maps (name, magic column
    name of ``magic_box``)."""
    contribution = graph.new_box(BoxKind.SELECT, graph.fresh_name("MG"))
    contribution.magic_role = role
    contribution.distinct = DistinctMode.ENFORCE
    quantifier = Quantifier(
        name=graph.fresh_name("m"),
        qtype=QuantifierType.FOREACH,
        input_box=magic_box,
    )
    contribution.add_quantifier(quantifier)
    contribution.columns = [
        OutputColumn(name=name, expr=quantifier.ref(source))
        for name, source in output_specs
    ]
    return contribution


def extend_magic(graph, magic_box, contribution):
    """Add ``contribution`` as another source of ``magic_box`` bindings,
    converting the magic box into a union in place when necessary."""
    if magic_box is contribution:
        return magic_box
    if magic_box.kind != BoxKind.UNION:
        # Move the current content into a fresh branch box and turn the
        # magic box itself into a union, preserving its identity.
        branch = graph.new_box(BoxKind.SELECT, graph.fresh_name(magic_box.name + "_b"))
        branch.magic_role = magic_box.magic_role
        branch.distinct = DistinctMode.PRESERVE
        branch.columns = magic_box.columns
        branch.predicates = magic_box.predicates
        branch.quantifiers = magic_box.quantifiers
        for quantifier in branch.quantifiers:
            quantifier.parent_box = branch
        magic_box.kind = BoxKind.UNION
        magic_box.columns = [OutputColumn(name=c.name) for c in branch.columns]
        magic_box.predicates = []
        magic_box.quantifiers = []
        magic_box.distinct = DistinctMode.ENFORCE
        magic_box.add_quantifier(
            Quantifier(
                name=graph.fresh_name("u"),
                qtype=QuantifierType.FOREACH,
                input_box=branch,
            )
        )
    magic_box.add_quantifier(
        Quantifier(
            name=graph.fresh_name("u"),
            qtype=QuantifierType.FOREACH,
            input_box=contribution,
        )
    )
    return magic_box


def build_supplementary_box(graph, box, prefix, context):
    """Move the ``prefix`` quantifiers of ``box`` (and the predicates local
    to them) into a new supplementary-magic-box shared between ``box`` and
    the magic boxes derived from it (Algorithm 4.2 step 4a, Example 4.11).

    Returns the quantifier over the new box, inserted in ``box`` at the
    position of the first moved quantifier.
    """
    supplementary = graph.new_box(BoxKind.SELECT, graph.fresh_name("SM_" + box.name))
    supplementary.magic_role = MagicRole.SUPPLEMENTARY
    supplementary.distinct = DistinctMode.PRESERVE

    prefix_set = set(prefix)
    position = min(box.quantifiers.index(q) for q in prefix)
    for quantifier in prefix:
        box.remove_quantifier(quantifier)
        quantifier.parent_box = supplementary
        supplementary.quantifiers.append(quantifier)

    moved_predicates = []
    kept = []
    for predicate in box.predicates:
        involved = {r.quantifier for r in qe.column_refs(predicate)}
        if involved and involved <= prefix_set:
            moved_predicates.append(predicate)
        else:
            kept.append(predicate)
    box.predicates = kept
    supplementary.predicates = moved_predicates

    # The supplementary box outputs every column of the moved quantifiers
    # still referenced anywhere in the graph (including by ``box`` itself
    # and by correlated descendants).
    needed = []
    seen = set()
    for other in graph.boxes():
        if other is supplementary:
            continue
        for expression in other.all_expressions():
            for ref in qe.column_refs(expression):
                if ref.quantifier in prefix_set:
                    key = (id(ref.quantifier), ref.column.lower())
                    if key not in seen:
                        seen.add(key)
                        needed.append((ref.quantifier, ref.column))
    used_names = set()
    columns = []
    mapping_table = {}
    for quantifier, column in needed:
        name = column
        if name.lower() in used_names:
            name = "%s_%s" % (quantifier.name, column)
        used_names.add(name.lower())
        columns.append(OutputColumn(name=name, expr=quantifier.ref(column)))
        mapping_table[(quantifier, column.lower())] = name
    if not columns:
        # Nothing referenced (pure filter prefix): expose one column anyway.
        first = prefix[0]
        name = first.input_box.columns[0].name
        columns.append(OutputColumn(name=name, expr=first.ref(name)))
    supplementary.columns = columns

    over = Quantifier(
        name=graph.fresh_name("sm"),
        qtype=QuantifierType.FOREACH,
        input_box=supplementary,
    )
    over.parent_box = box
    box.quantifiers.insert(position, over)

    def mapping(ref):
        target = mapping_table.get((ref.quantifier, ref.column.lower()))
        if target is not None:
            return qe.QColRef(quantifier=over, column=target)
        return None

    # Redirect references from everywhere except the supplementary box
    # itself (whose expressions legitimately reference the moved
    # quantifiers).
    from repro.rewrite.common import substitute_in_box

    for other in graph.boxes():
        if other is supplementary:
            continue
        substitute_in_box(other, mapping)

    # Keep the join-order oracle coherent for ``box``.
    order = context.join_orders.get(box.box_id)
    if order:
        moved_names = {q.name for q in prefix}
        new_order = [over.name] + [n for n in order if n not in moved_names]
        context.join_orders[box.box_id] = new_order
    return over
