"""The merge rule: view unfolding (the analog of unfolding in logic).

Merges a single-use child select-box into its consuming select-box:
the child's quantifiers and predicates move up and every reference to the
child's output is replaced by the defining expression. This is the rule
that, in phase 3, folds the magic boxes EMST created back into their
consumers (Example 4.1 / Figure 4 lower-right), once the distinct-pullup
rule has proven their DISTINCT unnecessary.
"""

from __future__ import annotations

from repro.magic.adornment import all_free, is_all_free
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType
from repro.rewrite.rule import RewriteRule
from repro.rewrite.common import in_own_subtree, substitute_everywhere


class MergeRule(RewriteRule):
    """Merge child select-boxes into their (single) consumer."""

    name = "merge"
    #: Not active in phase 2: EMST is wiring magic boxes there and the join
    #: orders from plan pass 1 must stay valid while it runs.
    phases = frozenset({1, 3})
    priority = 50

    def applies_to(self, box, context):
        return box.kind == BoxKind.SELECT

    def apply(self, box, context):
        for quantifier in list(box.quantifiers):
            if self._mergeable(box, quantifier, context):
                self._merge(box, quantifier, context)
                return True
        return False

    def _mergeable(self, parent, quantifier, context):
        child = quantifier.input_box
        if quantifier.qtype != QuantifierType.FOREACH:
            return False
        if child.kind != BoxKind.SELECT:
            return False
        if context.phase < 3 and (child.is_special or parent.is_special):
            return False
        if child.linked_magic:
            return False
        if context.index.total_uses(child) != 1:
            return False
        if in_own_subtree(child):
            return False
        if child.distinct == DistinctMode.ENFORCE:
            # Dropping the child's duplicate elimination is only legal when
            # it is provably a no-op, or when the parent enforces DISTINCT
            # itself (dedup later subsumes dedup earlier for set output).
            if not context.index.duplicate_free(child):
                if parent.distinct != DistinctMode.ENFORCE:
                    return False
        return True

    def _merge(self, parent, quantifier, context):
        graph = context.graph
        child = quantifier.input_box

        # Move the child's quantifiers up.
        moved = list(child.quantifiers)
        existing_names = {q.name for q in parent.quantifiers}
        for inner in moved:
            if inner.name in existing_names:
                inner.name = graph.fresh_name(inner.name)
            inner.parent_box = parent
            parent.quantifiers.append(inner)
            existing_names.add(inner.name)
        child.quantifiers = []

        # Replace references to the merged quantifier by the child's
        # defining expressions — everywhere, because descendants of the
        # parent may correlate to it.
        definitions = {
            column.name.lower(): column.expr for column in child.columns
        }

        def mapping(ref):
            if ref.quantifier is quantifier:
                return definitions[ref.column.lower()]
            return None

        parent.remove_quantifier(quantifier)
        substitute_everywhere(graph, mapping)
        parent.predicates.extend(child.predicates)

        # A merged binding set (magic or supplementary box) is now plain
        # joins, which later rules may drop (a vacuous restriction, an
        # FK-covered parent). Once the parent ranges over no binding set,
        # its adornment letters describe no restriction: reset them, as
        # projection prune drops the letters of pruned columns.
        if (
            child.is_special
            and not is_all_free(parent.adornment)
            and not any(
                q.is_magic or q.input_box.is_special
                for q in parent.quantifiers
            )
        ):
            parent.adornment = all_free(len(parent.columns))

        # Keep the join-order oracle coherent: splice the child's foreach
        # order in at the merged quantifier's position.
        order = context.join_orders.get(parent.box_id)
        if order and quantifier.name in order:
            child_order = context.join_orders.get(child.box_id) or [
                q.name for q in moved if q.qtype == QuantifierType.FOREACH
            ]
            position = order.index(quantifier.name)
            context.join_orders[parent.box_id] = (
                order[:position]
                + [n for n in child_order if any(q.name == n for q in moved)]
                + order[position + 1 :]
            )
