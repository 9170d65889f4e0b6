"""The local magic rule.

§3.3 of the paper: during rewrite phase 1 "a version of the EMST rule that
does not depend on join orders and pushes only local predicates is used in
Starburst". The plain predicate-pushdown rule handles single-use children;
this rule covers the *shared* ones: a local predicate on a multi-use
derived table is pushed into a private copy of the table, leaving the
other consumers untouched. Copies are cached by (box, predicate signature)
so identical restrictions share one copy.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.clone import clone_box
from repro.qgm.model import BoxKind, QuantifierType
from repro.rewrite.rule import RewriteRule
from repro.rewrite.common import in_own_subtree
from repro.rewrite.pushdown import can_push_into_child, push_predicate_into_child


class LocalMagicRule(RewriteRule):
    """Push local predicates into private copies of shared views."""

    name = "local-magic"
    phases = frozenset({1})
    priority = 45  # after plain pushdown (40), before merge (50)

    def applies_to(self, box, context):
        return box.kind == BoxKind.SELECT and bool(box.predicates)

    def apply(self, box, context):
        local = set(box.quantifiers)
        for predicate in list(box.predicates):
            refs = qe.column_refs(predicate)
            quantifiers = {ref.quantifier for ref in refs}
            if quantifiers - local or len(quantifiers) != 1:
                continue
            quantifier = next(iter(quantifiers))
            if quantifier.qtype != QuantifierType.FOREACH:
                continue
            child = quantifier.input_box
            if child.kind == BoxKind.BASE or child.is_special:
                continue
            if context.index.total_uses(child) <= 1:
                continue  # the plain pushdown rule owns single-use children
            if in_own_subtree(child):
                continue
            if not can_push_into_child(context.graph, predicate, quantifier):
                continue
            self._push_into_copy(box, predicate, quantifier, context)
            return True
        return False

    def _push_into_copy(self, box, predicate, quantifier, context):
        from repro.magic.adorn import predicate_signature

        graph = context.graph
        child = quantifier.input_box
        signature = predicate_signature(predicate, quantifier)
        origin = child.properties.get("adorned_origin", child.box_id)
        cache_key = ("local-magic", origin, signature)
        cached = graph.adorned_copies.get(cache_key)
        if cached is not None:
            quantifier.input_box = cached
            box.predicates.remove(predicate)
            return
        copy, quantifier_map = clone_box(
            graph, child, name="%s'" % child.name, deep_derived=True
        )
        copy.properties["adorned_origin"] = origin
        # Inherit any join-order oracle entries for the cloned boxes.
        by_box = {}
        for old, new in quantifier_map.items():
            if old.parent_box is None or new.parent_box is None:
                continue
            entry = by_box.setdefault(
                id(old.parent_box), (old.parent_box, new.parent_box, {})
            )
            entry[2][old.name] = new.name
        for old_box, new_box, name_map in by_box.values():
            order = context.join_orders.get(old_box.box_id)
            if order:
                context.join_orders[new_box.box_id] = [
                    name_map.get(name, name) for name in order
                ]
        quantifier.input_box = copy
        if push_predicate_into_child(graph, predicate, quantifier):
            box.predicates.remove(predicate)
            graph.adorned_copies[cache_key] = copy
