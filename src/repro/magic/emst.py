"""The EMST rewrite rule — Algorithm 4.2 (magic-process).

EMST processes one QGM box at a time, in any traversal order, combining
adornment and magic transformation in a single step (§6: "it creates magic
tables concurrently while adorning the original query"):

1. walk the box's foreach quantifiers in the join order chosen by the plan
   optimizer (magic quantifiers first),
2. classify the box's predicates per quantifier (adorn-box, Algorithm 4.1),
3. re-point the quantifier at an adorned copy of the child box (cached per
   (box, adornment) — or transformed in place when the child has a single
   use),
4. when profitable, factor the eligible prefix into a supplementary-
   magic-box shared by the box and the magic boxes derived from it,
5. build a magic-box (or condition-magic-box when ``c`` adornments are
   present) and attach it: inserted as a magic quantifier when the child is
   AMQ, linked when the child is NMQ (to be passed down to the child's
   children when EMST fires on the child),
6. decorrelate existential/anti subqueries by *lifting* their equality
   correlation predicates into output columns (adding group keys through
   groupby boxes, per the magic/aggregate rules of [MPR90]) and then
   restricting the subquery through a magic box like any other child.

Magic restriction uses a foreach quantifier plus equality predicates when
the adornment is pure ``b`` (safe for duplicates because magic tables are
DISTINCT and the join is on all of their columns), and an existential
(semi-join) quantifier when conditions are involved — this is how the
ground magic-sets variant [MFPR90b] keeps all tuples ground while pushing
non-equality predicates.
"""

from __future__ import annotations

from repro.errors import MagicError
from repro.qgm import expr as qe
from repro.qgm.clone import clone_box
from repro.qgm.model import BoxKind, MagicRole, Quantifier, QuantifierType
from repro.rewrite.common import in_own_subtree, total_uses
from repro.rewrite.rule import RewriteRule
from repro.magic.adorn import (
    QuantifierAdornment,
    classify_quantifier,
    predicate_signature,
)
from repro.magic.adornment import all_free, is_all_free
from repro.magic.magic_boxes import (
    build_contribution,
    build_link_contribution,
    build_supplementary_box,
    extend_magic,
)
from repro.magic.properties import (
    has_operation,
    is_amq,
    operation_properties,
)


class EmstRule(RewriteRule):
    """The extended magic-sets transformation as a query-rewrite rule.

    The constructor flags select the transformation variant, for the
    ablations the paper discusses:

    * ``use_supplementary`` — off reverts to plain magic sets [BMSU86]:
      the eligible prefix is *cloned* into each magic box instead of being
      factored into a shared supplementary table [BR91],
    * ``push_conditions`` — off reverts to equality-only magic (no ``c``
      adornments / ground condition magic [MFPR90b]),
    * ``decorrelate_subqueries`` — off leaves E/A/S subqueries correlated.
    """

    name = "emst"
    phases = frozenset({2})
    priority = 10

    def __init__(
        self,
        use_supplementary=True,
        push_conditions=True,
        decorrelate_subqueries=True,
        sip_reorder=True,
    ):
        self.use_supplementary = use_supplementary
        self.push_conditions = push_conditions
        self.decorrelate_subqueries = decorrelate_subqueries
        #: Refine the plan optimizer's join order by following equality
        #: connectivity from the magic quantifiers (see _ordered_foreach).
        self.sip_reorder = sip_reorder

    def applies_to(self, box, context):
        if box.emst_done or box.is_special:
            return False
        if not has_operation(box.kind):
            return False
        return operation_properties(box.kind).processed_by_emst

    def apply(self, box, context):
        # The cursor's sweep list is computed at sweep start; an earlier
        # firing may have re-pointed consumers at an adorned copy, leaving
        # this box unreachable. Processing a dead box would pollute the
        # shared adorned-copy/magic caches with unrestricted contributions.
        if not context.index.is_live(box):
            box.emst_done = True
            return False
        MagicProcessor(context, options=self).process(box)
        box.emst_done = True
        return True


class MagicProcessor:
    """Applies magic-process to one box; ``options`` is the
    :class:`EmstRule` whose variant flags it follows."""

    def __init__(self, context, options):
        self.context = context
        self.graph = context.graph
        self.options = options

    # -- entry ---------------------------------------------------------------

    def process(self, box):
        if box.adornment is None:
            box.adornment = all_free(len(box.columns))
        properties = operation_properties(box.kind)
        if properties.amq:
            self._process_amq(box)
        elif properties.pass_down is not None:
            properties.pass_down(self, box)
        # An NMQ operation without a pass-down handler simply drops the
        # restriction — always safe, magic only ever filters.

    # -- AMQ (select) boxes ----------------------------------------------------

    def _ordered_foreach(self, box):
        """The sip (sideways-information-passing) order for processing.

        Starts from the plan optimizer's join order, pins magic quantifiers
        first, and then greedily prefers quantifiers connected by an
        equality predicate to the already-eligible set — so a binding that
        arrived through the box's own magic table keeps flowing even when
        the pre-magic join order would have visited an unbound quantifier
        first (the pre-magic planner cannot know which quantifiers magic
        will make cheap).
        """
        foreach = box.foreach_quantifiers()
        magic = [q for q in foreach if q.is_magic]
        regular = [q for q in foreach if not q.is_magic]
        order = self.context.join_orders.get(box.box_id)
        if order:
            by_name = {q.name: q for q in regular}
            ordered = [by_name[n] for n in order if n in by_name]
            ordered += [q for q in regular if q not in set(ordered)]
            regular = ordered

        if not self.options.sip_reorder:
            return magic + regular

        local = set(box.quantifiers)
        connections = []  # (quantifier, quantifier) pairs joined by equality
        for predicate in box.predicates:
            if not (isinstance(predicate, qe.QBinary) and predicate.op == "="):
                continue
            involved = {
                r.quantifier
                for r in qe.column_refs(predicate)
                if r.quantifier in local
            }
            if len(involved) == 2:
                connections.append(tuple(involved))

        result = list(magic)
        remaining = list(regular)
        eligible = set(magic)
        while remaining:
            choice = None
            for candidate in remaining:
                if any(
                    (a is candidate and b in eligible)
                    or (b is candidate and a in eligible)
                    for a, b in connections
                ):
                    choice = candidate
                    break
            if choice is None:
                choice = remaining[0]
            remaining.remove(choice)
            eligible.add(choice)
            result.append(choice)
        return result

    def _process_amq(self, box):
        eligible = []
        for quantifier in self._ordered_foreach(box):
            if quantifier.is_magic:
                eligible.append(quantifier)
                continue
            eligible = self._process_child(box, quantifier, eligible)
            if quantifier in box.quantifiers:
                eligible.append(quantifier)
        for quantifier in list(box.subquery_quantifiers()):
            self._process_subquery(box, quantifier, eligible)

    def _process_child(self, box, quantifier, eligible):
        """Steps 1-4 of Algorithm 4.2 for one foreach quantifier.

        Returns the (possibly rewritten) eligible prefix: building a
        supplementary box replaces the prefix by a single quantifier.
        """
        child = quantifier.input_box
        if child.kind == BoxKind.BASE or child.is_special:
            # "No action is taken since all referenced tables are either
            # magic tables or stored tables."
            return eligible
        if not has_operation(child.kind):
            return eligible

        info = classify_quantifier(box, quantifier, set(eligible))
        if not is_amq(child) or not self.options.push_conditions:
            # Conditions cannot be carried through an NMQ link in the plain
            # bcf scheme (the paper notes complex NMQ operations need the
            # refined adornments of [Mum91]); keep only equality bindings.
            info.conditions = []
            info.condition_columns = []
        self._route_unpushable_locals_through_magic(box, quantifier, info)
        if info.is_trivial:
            return eligible

        # Step 4a: supplementary-magic-box construction, when desirable.
        if (
            info.has_dependent
            and self.options.use_supplementary
            and self._supplementary_desirable(box, eligible)
        ):
            over = build_supplementary_box(self.graph, box, eligible, self.context)
            eligible = [over]
            info = classify_quantifier(box, quantifier, set(eligible))
            if not is_amq(child) or not self.options.push_conditions:
                info.conditions = []
                info.condition_columns = []
            if info.is_trivial:
                return eligible

        adornment = info.adornment_for(child)
        if is_all_free(adornment):
            return eligible

        # Step 4b: the magic contribution for this call site.
        contribution = None
        bound_pairs = []
        condition_templates = []
        if info.has_dependent:
            contribution, bound_pairs, condition_templates = self._build_magic(
                box, info, eligible
            )

        # Step 3 + 4c: adorned copy (or in-place) with the magic attached.
        self._attach_restriction(
            box, quantifier, adornment, info, contribution, bound_pairs,
            condition_templates,
        )
        return eligible

    def _route_unpushable_locals_through_magic(self, box, quantifier, info):
        """A local constant equality that cannot be pushed into the child
        structurally (e.g. the child is a *recursive* union, where
        predicate pushdown would change the fixpoint) becomes a constant
        magic binding instead — the classic magic *seed*. The predicate
        stays in the box (harmless after restriction)."""
        from repro.magic.adorn import local_equality_parts
        from repro.rewrite.pushdown import can_push_into_child

        for predicate in list(info.local_predicates):
            parts = local_equality_parts(predicate, quantifier)
            if parts is None:
                continue
            if can_push_into_child(self.graph, predicate, quantifier):
                continue
            column, constant = parts
            info.local_predicates.remove(predicate)
            if all(existing != column for existing, _ in info.bound):
                info.bound.append((column, constant))

    def _supplementary_desirable(self, box, eligible):
        """The paper's desirability test (step 4a): not before the magic
        quantifier or the first non-magic quantifier, and not when the box
        would hold a single quantifier and no predicates."""
        non_magic = [q for q in eligible if not q.is_magic]
        if not non_magic:
            return False
        if any(q.input_box.magic_role == MagicRole.SUPPLEMENTARY for q in eligible):
            return False  # the prefix is already factored
        eligible_set = set(eligible)
        predicate_count = 0
        for predicate in box.predicates:
            involved = {r.quantifier for r in qe.column_refs(predicate)}
            if involved and involved <= eligible_set:
                predicate_count += 1
        return len(eligible) > 1 or predicate_count > 0

    # -- magic construction -----------------------------------------------------

    def _build_magic(self, box, info, eligible):
        """Build the magic (or condition-magic) contribution box.

        Returns (contribution, bound_pairs, condition_templates) where
        ``bound_pairs`` is [(child column, magic column)] sorted by child
        column for deterministic positional alignment across consumers, and
        ``condition_templates`` is [(predicate, grounding map: id(ref) →
        magic column name)] for dependent conditions.
        """
        output_specs = []
        bound_pairs = []
        for child_column, source in sorted(info.bound, key=lambda pair: pair[0]):
            magic_column = "mc_%s" % child_column
            output_specs.append((magic_column, source))
            bound_pairs.append((child_column, magic_column))

        condition_templates = []
        eligible_set = set(eligible)
        ground_index = 0
        for predicate in info.conditions:
            grounding = {}
            for ref in qe.column_refs(predicate):
                if ref.quantifier in eligible_set:
                    magic_column = "gc_%d" % ground_index
                    ground_index += 1
                    output_specs.append((magic_column, ref))
                    grounding[id(ref)] = magic_column
            condition_templates.append((predicate, grounding))

        role = MagicRole.CONDITION_MAGIC if info.conditions else MagicRole.MAGIC
        contribution = build_contribution(
            self.graph, box, eligible, output_specs, role=role
        )
        return contribution, bound_pairs, condition_templates

    # -- attaching a restriction to a child -----------------------------------------

    def _attach_restriction(
        self,
        box,
        quantifier,
        adornment,
        info,
        contribution,
        bound_pairs,
        condition_templates,
    ):
        """Make the child adorned and restricted: re-point ``quantifier`` at
        an adorned copy (cache-aware) or transform the child in place, push
        the local predicates, and attach the magic contribution."""
        child = quantifier.input_box
        graph = self.graph

        local_signature = tuple(
            sorted(predicate_signature(p, quantifier) for p in info.local_predicates)
        )
        condition_signature = tuple(
            sorted(predicate_signature(p, quantifier) for p in info.conditions)
        )
        # Key the cache on the *origin* box: an adorned copy of a recursive
        # box asking for its own adornment must resolve to itself, closing
        # the cycle (this is what makes recursive magic terminate).
        origin = child.properties.get("adorned_origin", child.box_id)
        cache_key = (origin, str(adornment), local_signature, condition_signature)

        cached = graph.adorned_copies.get(cache_key)
        if cached is not None:
            quantifier.input_box = cached
            self._remove_pushed_locals(box, info, quantifier, cached)
            if contribution is not None:
                existing = self._magic_box_of(cached)
                if existing is None:
                    raise MagicError(
                        "cached adorned copy %r lost its magic box" % cached.name
                    )
                extend_magic(graph, existing, contribution)
            return

        single_use = (
            total_uses(graph, child) == 1
            and not in_own_subtree(child)
            and child.adornment is None
        )
        if single_use:
            target = child
        else:
            target, quantifier_map = clone_box(
                graph, child, name="%s^%s" % (child.name, adornment)
            )
            self._inherit_join_orders(quantifier_map)
            quantifier.input_box = target
            target.properties["adorned_origin"] = origin
            graph.adorned_copies[cache_key] = target
        target.adornment = adornment

        # Push the local predicates into the adorned child.
        self._push_locals(box, info, quantifier, target)

        if contribution is None:
            return

        if is_amq(target):
            self._insert_magic_quantifier(
                target, contribution, bound_pairs, condition_templates, quantifier
            )
        else:
            contribution.properties["bound_columns"] = [
                child_column for child_column, _ in bound_pairs
            ]
            if target.linked_magic:
                extend_magic(graph, target.linked_magic[0], contribution)
            else:
                target.linked_magic.append(contribution)

    def _insert_magic_quantifier(
        self, target, contribution, bound_pairs, condition_templates, consumer_q
    ):
        """Insert a magic quantifier into an AMQ child copy: foreach for
        pure-b adornments, existential (ground semi-join) when conditions
        are present."""
        qtype = (
            QuantifierType.EXISTENTIAL if condition_templates else QuantifierType.FOREACH
        )
        magic_quantifier = Quantifier(
            name=self.graph.fresh_name("m_%s" % target.name.split("^")[0].lower()),
            qtype=qtype,
            input_box=contribution,
            is_magic=True,
        )
        magic_quantifier.parent_box = target
        target.quantifiers.insert(0, magic_quantifier)

        for child_column, magic_column in bound_pairs:
            inner = target.column(child_column).expr
            target.predicates.append(
                qe.QBinary(
                    op="=",
                    left=magic_quantifier.ref(magic_column),
                    right=inner,
                )
            )
        for predicate, grounding in condition_templates:
            target.predicates.append(
                self._ground_condition(
                    predicate, grounding, consumer_q, target, magic_quantifier
                )
            )
        order = self.context.join_orders.get(target.box_id)
        if order is not None:
            self.context.join_orders[target.box_id] = [magic_quantifier.name] + order

    def _ground_condition(self, predicate, grounding, consumer_q, target, magic_q):
        """Rewrite a dependent condition into the child copy: references
        through the consumer quantifier map to the child's defining
        expressions, references to eligible quantifiers map to the magic
        box's grounding columns."""

        def mapping(ref):
            magic_column = grounding.get(id(ref))
            if magic_column is not None:
                return magic_q.ref(magic_column)
            if ref.quantifier is consumer_q:
                return target.column(ref.column).expr
            return None

        return qe.substitute_refs(predicate, mapping)

    def _push_locals(self, box, info, quantifier, target):
        """Push the classified local predicates into the adorned child and
        drop them from the box (they are fully applied below)."""
        from repro.rewrite.pushdown import push_predicate_into_child

        for predicate in info.local_predicates:
            if predicate not in box.predicates:
                continue
            if push_predicate_into_child(self.graph, predicate, quantifier):
                box.predicates.remove(predicate)

    def _remove_pushed_locals(self, box, info, quantifier, target):
        """On a cache hit the local predicates are already inside the copy;
        just drop them from the box."""
        for predicate in info.local_predicates:
            if predicate in box.predicates:
                box.predicates.remove(predicate)

    def _magic_box_of(self, target):
        if is_amq(target):
            for quantifier in target.quantifiers:
                if quantifier.is_magic:
                    return quantifier.input_box
            return None
        if target.linked_magic:
            return target.linked_magic[0]
        return None

    def _inherit_join_orders(self, quantifier_map):
        """Adorned copies inherit the join orders chosen for the boxes they
        were cloned from (mapped onto the cloned quantifier names)."""
        by_box = {}
        for old, new in quantifier_map.items():
            if old.parent_box is None or new.parent_box is None:
                continue
            by_box.setdefault(id(old.parent_box), (old.parent_box, new.parent_box, {}))
            by_box[id(old.parent_box)][2][old.name] = new.name
        for old_box, new_box, name_map in by_box.values():
            order = self.context.join_orders.get(old_box.box_id)
            if order:
                self.context.join_orders[new_box.box_id] = [
                    name_map.get(name, name) for name in order
                ]

    # -- subquery decorrelation --------------------------------------------------------

    def _process_subquery(self, box, quantifier, eligible):
        """Magic decorrelation of E/A/S subqueries: lift equality
        correlation predicates into output columns of the subquery, then
        restrict the subquery through a magic box like any other child.

        A decorrelated SCALAR subquery computes one row *per binding* (for
        an aggregate: grouped by the lifted correlation columns, the
        [MPR90] construction); its lifted equalities become *selector*
        predicates on the quantifier, preserving the empty-means-NULL
        semantics per outer row.
        """
        if not self.options.decorrelate_subqueries:
            return
        if quantifier.qtype == QuantifierType.ANTI and quantifier.null_aware:
            return  # NOT IN must observe inner NULLs; magic would drop them
        child = quantifier.input_box
        if child.kind == BoxKind.BASE or child.is_special:
            return
        if not has_operation(child.kind):
            return
        if total_uses(self.graph, child) != 1 or in_own_subtree(child):
            return

        lifted = self._lift_correlations(box, quantifier, set(eligible))

        if quantifier.qtype == QuantifierType.SCALAR:
            if not lifted:
                return
            quantifier.decorrelated = True
            info = QuantifierAdornment()
            seen = set()
            for column, _op, outer in lifted:
                if column not in seen:
                    seen.add(column)
                    info.bound.append((column, outer))
        else:
            info = classify_quantifier(box, quantifier, set(eligible))
            if not is_amq(child):
                info.conditions = []
                info.condition_columns = []
            if info.is_trivial or not info.has_dependent:
                return
        adornment = info.adornment_for(child)
        if is_all_free(adornment):
            return
        contribution, bound_pairs, condition_templates = self._build_magic(
            box, info, eligible
        )
        self._attach_restriction(
            box, quantifier, adornment, info, contribution, bound_pairs,
            condition_templates,
        )

    def _lift_correlations(self, box, quantifier, eligible):
        """Find correlation predicates in the subquery's subtree that
        reference ``box``'s eligible quantifiers, lift their inner side to
        the subquery's output (adding group keys through groupby boxes) and
        re-attach them in ``box``: as ordinary predicates for E/A
        quantifiers, as *selector* predicates for SCALAR ones.

        Returns the list of lifted (output column, op, outer expr) triples.
        """
        child = quantifier.input_box
        scalar = quantifier.qtype == QuantifierType.SCALAR
        lifted = []
        for inner_box, path in self._correlation_paths(child):
            for predicate in list(inner_box.predicates):
                split = self._split_correlation(predicate, inner_box, box, eligible)
                if split is None:
                    continue
                inner_expr, op, outer_expr = split
                if op != "=" and any(
                    step.kind == BoxKind.GROUPBY for step, _ in path
                ):
                    continue  # non-equality cannot cross a groupby
                if scalar and op != "=":
                    continue  # selector semantics requires equality
                column = self._lift_expression(inner_expr, inner_box, path)
                if column is None:
                    continue
                inner_box.predicates.remove(predicate)
                new_predicate = qe.QBinary(
                    op=op, left=quantifier.ref(column), right=outer_expr
                )
                if scalar:
                    quantifier.selector_predicates.append(new_predicate)
                else:
                    box.predicates.append(new_predicate)
                lifted.append((column, op, outer_expr))
        return lifted

    def _correlation_paths(self, child):
        """Yield (descendant box, path) pairs where path is the chain of
        (box, quantifier) hops from ``child`` down to the descendant —
        following only single-use foreach hops through liftable box kinds."""
        yield (child, [])
        stack = [(child, [])]
        seen = {id(child)}
        while stack:
            box, path = stack.pop()
            if box.kind not in (BoxKind.SELECT, BoxKind.GROUPBY):
                continue
            for quantifier in box.foreach_quantifiers():
                inner = quantifier.input_box
                if id(inner) in seen:
                    continue
                if inner.kind not in (BoxKind.SELECT, BoxKind.GROUPBY):
                    continue
                if total_uses(self.graph, inner) != 1:
                    continue
                seen.add(id(inner))
                extended = path + [(box, quantifier)]
                yield (inner, extended)
                stack.append((inner, extended))

    def _split_correlation(self, predicate, inner_box, outer_box, eligible):
        """Decompose a correlation predicate into (inner expr, op, outer
        expr); None when the shape is not liftable."""
        if not (isinstance(predicate, qe.QBinary) and qe.is_comparison(predicate)):
            return None
        outer_quantifiers = set(outer_box.quantifiers)
        inner_quantifiers = set(inner_box.quantifiers)
        for side, other, op in (
            (predicate.left, predicate.right, predicate.op),
            (predicate.right, predicate.left, _flip(predicate.op)),
        ):
            side_refs = qe.column_refs(side)
            other_refs = qe.column_refs(other)
            if not side_refs or not other_refs:
                continue
            if not all(r.quantifier in inner_quantifiers for r in side_refs):
                continue
            if not all(
                r.quantifier in outer_quantifiers and r.quantifier in eligible
                for r in other_refs
            ):
                continue
            return (side, op, other)
        return None

    def _lift_expression(self, inner_expr, inner_box, path):
        """Add ``inner_expr`` as an output column of ``inner_box`` and
        thread it up through ``path`` to the subquery's top box. Returns the
        top-level output column name."""
        from repro.qgm.model import OutputColumn

        name = self._fresh_column(inner_box)
        inner_box.columns.append(OutputColumn(name=name, expr=inner_expr))
        if inner_box.kind == BoxKind.GROUPBY:
            inner_box.group_keys.append(inner_expr)
        current_name = name
        for step_box, step_quantifier in reversed(path):
            lifted = qe.QColRef(quantifier=step_quantifier, column=current_name)
            current_name = self._fresh_column(step_box)
            step_box.columns.append(OutputColumn(name=current_name, expr=lifted))
            if step_box.kind == BoxKind.GROUPBY:
                step_box.group_keys.append(lifted)
        return current_name

    def _fresh_column(self, box):
        index = 0
        while True:
            name = "corr%d" % index
            if not box.has_column(name):
                return name
            index += 1


# -- NMQ pass-down handlers -------------------------------------------------------


def pass_down_through_first_input(processor, box):
    """Use the magic table linked to a groupby or outer-join box to
    restrict its first input through the bound columns that input defines
    directly (Example 4.3/4.6: the implied predicate pushes into the
    child). A column defined by anything else — an aggregate, or an outer
    join's right side — cannot restrict.

    For an outer join the first input is the *preserved* (left) side.
    Restricting it is always sound: a left row outside the magic set
    produces no output row the consumer cares about. Restricting the
    NULL-padded side would turn matched rows into NULL-padded ones —
    exactly the subtlety the paper flags for complex NMQ operations — so
    the right side is left untouched.
    """
    magic, bound_columns = _linked_magic(box)
    if not bound_columns:
        return
    inner = box.quantifiers[0]
    if inner.input_box.kind == BoxKind.BASE or inner.input_box.is_special:
        return  # stored tables take no magic (plan optimization handles them)
    links = []
    for position, box_column in enumerate(bound_columns):
        defining = box.column(box_column).expr
        if isinstance(defining, qe.QColRef) and defining.quantifier is inner:
            links.append(
                (defining.column.lower(), magic.columns[position].name)
            )
    if links:
        _restrict_input(processor, box, inner, magic, links)


def pass_down_setop(processor, box):
    """Push the linked magic table of a set-operation box into each of its
    inputs (for EXCEPT both the outer and the inner table: §4.3)."""
    magic, bound_columns = _linked_magic(box)
    if not bound_columns:
        return
    positions = [box.column_ordinal(name) for name in bound_columns]
    for branch in list(box.quantifiers):
        child = branch.input_box
        if child.kind == BoxKind.BASE or child.is_special:
            continue
        _restrict_input(processor, box, branch, magic, [
            (child.columns[position].name.lower(), magic.columns[index].name)
            for index, position in enumerate(positions)
        ])


def _linked_magic(box):
    """``(magic box, its bound columns)`` linked to an NMQ box, or
    ``(None, [])``."""
    if not box.linked_magic:
        return None, []
    magic = box.linked_magic[0]
    return magic, magic.properties.get("bound_columns", [])


def _restrict_input(processor, box, quantifier, magic, links):
    """Restrict ``quantifier``'s input through ``magic``: ``links`` pairs
    each bound input column with the magic column carrying its values."""
    links = sorted(links, key=lambda link: link[0])
    specs = [("mc_%s" % column, magic_column) for column, magic_column in links]
    bound_pairs = [(column, "mc_%s" % column) for column, _ in links]
    contribution = build_link_contribution(processor.graph, magic, specs)
    info = QuantifierAdornment(bound=[(column, None) for column, _ in links])
    adornment = info.adornment_for(quantifier.input_box)
    processor._attach_restriction(
        box, quantifier, adornment, info, contribution, bound_pairs, []
    )


def _flip(op):
    return {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _install_pass_down_handlers():
    from repro.magic.properties import operation_properties

    operation_properties(BoxKind.GROUPBY).pass_down = (
        pass_down_through_first_input
    )
    operation_properties(BoxKind.UNION).pass_down = pass_down_setop
    operation_properties(BoxKind.INTERSECT).pass_down = pass_down_setop
    operation_properties(BoxKind.EXCEPT).pass_down = pass_down_setop
    operation_properties(BoxKind.OUTERJOIN).pass_down = (
        pass_down_through_first_input
    )


_install_pass_down_handlers()
