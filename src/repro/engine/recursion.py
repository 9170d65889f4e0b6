"""Fixpoint evaluation of recursive strongly connected components.

The magic-sets transformation can turn a nonrecursive query into a
recursive one (one of the paper's motivations for why relational systems
resisted it), and users can write recursive views directly; either way the
query graph contains a cycle and the boxes in that strongly connected
component are evaluated together by fixpoint iteration.

Semantics are those of stratified Datalog: set semantics within a recursive
component (duplicates would make the fixpoint diverge), and negation or
aggregation *through* the cycle is rejected as non-stratified.

Evaluation is **semi-naive** where possible, so a round costs what its
delta costs:

* a select box that references exactly one component member directly (a
  *linear* rule — by far the common case, and the only shape magic itself
  generates) is re-evaluated per round against that member's *delta* (the
  rows discovered in the previous round) instead of its full table. In the
  batch engine the delta drives the rule: the compiled program puts its
  quantifier first, so a round scans the new rows and probes the other
  inputs (a base table through its persistent index) instead of
  rescanning them and indexing the delta. The tuple engine keeps the
  optimizer's order, so the oracle checks the same fixpoint under a
  second physical order;
* a union box is *delta-batched* — after the first round it concatenates
  only its member branches' deltas, since a union is additive and its
  static branches cannot contribute anything new.

Other non-linear boxes fall back to full re-evaluation — still correct,
just more work.

Each member keeps one insertion-ordered *seen* dict. A round's output
goes into it in one bulk update, which hashes every produced row once;
the keys that update appended are the round's new rows, duplicates
collapsed (DISTINCT enforcement included) and first-seen order kept. A
box proven duplicate-free on an additive path skips even that.
"""

from __future__ import annotations

from itertools import islice, repeat

from repro.errors import QgmError
from repro.qgm.facts.keyflow import is_duplicate_free
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType


def _stratification_violation(component):
    """Why ``component`` is not stratified (a message), or None."""
    member_ids = {id(box) for box in component}
    for box in component:
        for quantifier in box.quantifiers:
            through_cycle = id(quantifier.input_box) in member_ids
            if not through_cycle:
                continue
            if quantifier.qtype == QuantifierType.ANTI:
                return (
                    "negation through recursion in box %r is not stratified"
                    % box.name
                )
            if box.kind == BoxKind.GROUPBY:
                return (
                    "aggregation through recursion in box %r is not stratified"
                    % box.name
                )
            if box.kind == BoxKind.EXCEPT and quantifier is box.quantifiers[1]:
                return (
                    "difference through recursion in box %r is not stratified"
                    % box.name
                )
    return None


def _linear_member_quantifier(box, member_ids):
    """If ``box`` is a select box referencing exactly one component member
    through exactly one foreach quantifier (and no member through E/S
    quantifiers), return that quantifier; else None."""
    if box.kind != BoxKind.SELECT:
        return None
    recursive = [
        q for q in box.quantifiers if id(q.input_box) in member_ids
    ]
    if len(recursive) != 1:
        return None
    quantifier = recursive[0]
    if quantifier.qtype != QuantifierType.FOREACH:
        return None
    return quantifier


class FixpointPlan:
    """What :func:`run_fixpoint` needs to know about a recursive component
    that the graph alone decides: stratification, which members run
    semi-naive, and which are proven duplicate-free. None of it depends on
    data, so a compiled program derives it once and every execution
    reuses it; the tuple engine derives it per run."""

    def __init__(self, component):
        self.component = component
        self.names = sorted(box.name for box in component)
        self.member_ids = member_ids = {id(box) for box in component}
        self.violation = _stratification_violation(component)
        if self.violation is not None:
            return
        self.linear = {
            id(box): _linear_member_quantifier(box, member_ids)
            for box in component
        }
        self.union_children = {
            id(box): [q.input_box for q in box.quantifiers]
            for box in component
            if box.kind == BoxKind.UNION
        }
        # The runtime payoff of the duplicate-freeness proof inside the
        # fixpoint: a box the key analysis proves duplicate-free *without*
        # relying on an explicit enforcement emits provably disjoint row
        # sets each round on the additive (delta-driven) paths, so its
        # seen-dict pass can be skipped outright. Boxes still carrying
        # ENFORCE take that pass, which is their enforcement.
        self.proven = {
            id(box): box.distinct != DistinctMode.ENFORCE
            and is_duplicate_free(box, ignore_enforce=True)
            for box in component
        }
        self.additive = {
            id(box): self.linear[id(box)] is not None
            or id(box) in self.union_children
            for box in component
        }


def run_fixpoint(evaluator, component, governor=None):
    """Evaluate all boxes of a recursive component to a fixpoint.

    Fills ``evaluator._materialized`` for every member with deduplicated
    rows. Linear select boxes run semi-naive (delta-driven); everything
    else re-evaluates fully each round. The graph-only analysis comes from
    ``evaluator.fixpoint_plan(component)``.

    Round and deadline budgets come from ``governor`` (or the evaluator's
    governor; a default governor enforces the historical 100000-round cap
    and raises :class:`~repro.errors.ResourceExhaustedError` naming the
    limit and the recursive component).
    """
    plan = evaluator.fixpoint_plan(component)
    if plan.violation is not None:
        raise QgmError(plan.violation)

    if governor is None:
        governor = getattr(evaluator, "governor", None)
    if governor is None:
        from repro.resilience.governor import ResourceGovernor

        governor = ResourceGovernor()
    component_names = plan.names
    member_ids = plan.member_ids
    linear = plan.linear
    union_children = plan.union_children
    proven = plan.proven
    additive = plan.additive
    root_env = evaluator.root_env

    seen = {id(box): {} for box in component}
    delta = {id(box): [] for box in component}
    for box in component:
        evaluator._materialized[id(box)] = []

    def clear_member_indexes():
        cache = evaluator._index_cache
        for key in [key for key in cache if key[0] in member_ids]:
            del cache[key]

    rounds = 0
    changed = True
    while changed:
        rounds += 1
        governor.check_fixpoint_rounds(rounds, component_names)
        changed = False
        new_delta = {id(box): [] for box in component}
        for box in component:
            # Cooperative checkpoint per member: a deadline expiring or a
            # cancel token set mid-round aborts before the next member's
            # (potentially expensive) delta join, so cancellation latency
            # is bounded by one box evaluation, not one full round.
            governor.checkpoint(
                "fixpoint round %d, box %r" % (rounds, box.name)
            )
            quantifier = linear[id(box)]
            children = union_children.get(id(box))
            if children is not None and rounds > 1:
                # Delta-batch union: a union is additive in each branch,
                # so U(A ∪ ΔA, B ∪ ΔB) = U(A, B) ∪ U(ΔA, ΔB). Static
                # (non-member) branches contributed everything they ever
                # will in round 1; member branches add only their
                # previous round's delta — instead of re-emitting every
                # accumulated row each round.
                produced = []
                for child in children:
                    if id(child) in member_ids:
                        produced.extend(delta[id(child)])
            elif quantifier is not None and rounds > 1:
                # Semi-naive: join against the previous round's delta only.
                member = quantifier.input_box
                full_rows = evaluator._materialized[id(member)]
                evaluator._materialized[id(member)] = delta[id(member)]
                clear_member_indexes()
                try:
                    produced = evaluator.evaluate_box(box, root_env)
                finally:
                    evaluator._materialized[id(member)] = full_rows
                    clear_member_indexes()
            else:
                produced = evaluator.evaluate_box(box, root_env)
            if proven[id(box)] and additive[id(box)]:
                # Disjoint by proof: the box's total output carries a key
                # and its delta-driven rounds partition that output, so
                # every produced row is new — no dedup, no bookkeeping.
                fresh = produced
            else:
                # The keys the update appends are the new rows, in
                # first-seen order; read back from the end, they cost
                # what the round produced, not what the member holds.
                known = seen[id(box)]
                before = len(known)
                known.update(zip(produced, repeat(None)))
                fresh = list(islice(reversed(known), len(known) - before))
                fresh.reverse()
            if fresh:
                new_delta[id(box)] = fresh
                changed = True
        # Jacobi-style end-of-round application: deltas land in the
        # materialized tables only after every member has evaluated, so
        # each round reads exactly the previous round's state. That is
        # what keeps the per-round contributions of additive boxes
        # disjoint — the invariant the proof-driven skip above relies on.
        for box in component:
            fresh = new_delta[id(box)]
            if fresh:
                evaluator._materialized[id(box)].extend(fresh)
        delta = new_delta
        if changed:
            clear_member_indexes()
    evaluator.stats.rows_produced += sum(
        len(evaluator._materialized[id(box)]) for box in component
    )
    return rounds
