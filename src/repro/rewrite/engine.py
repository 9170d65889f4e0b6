"""The forward-chaining rewrite engine with a depth-first cursor.

Mirrors the paper's description: "A cursor facility traverses the query
blocks depth first ... and a forward chaining engine applies the rules,
including the EMST rule, at each query block."

Resilience: ``run_phase`` accepts a :class:`~repro.resilience.governor.
ResourceGovernor` (sweep budget + deadline; a default one enforces the
historical 200-sweep cap) and an optional
:class:`~repro.resilience.fallback.ResiliencePolicy`. With a policy, every
rule firing runs against a snapshot of the graph: a rule that raises — or,
in paranoid mode, introduces a new error diagnostic or a firing the chase
refutes (see :class:`~repro.analysis.soundness.SoundnessChecker`) — is
rolled back and quarantined for the rest of the query, and the phase
continues without it.
"""

from __future__ import annotations

import time

from repro.errors import ResourceExhaustedError
from repro.rewrite.rule import RuleContext


class RewriteEngine:
    """Applies a set of rewrite rules to a query graph, phase by phase."""

    def __init__(self, rules=None):
        self.rules = sorted(rules or default_rules(), key=lambda r: r.priority)

    def run_phase(
        self, graph, phase, join_orders=None, context=None, governor=None,
        resilience=None,
    ):
        """Run one rewrite phase to a fixpoint; returns the RuleContext
        (with per-rule firing counts and timings)."""
        from repro.resilience.governor import ResourceGovernor

        if context is None:
            context = RuleContext(graph, phase=phase, join_orders=join_orders)
        else:
            context.phase = phase
            if join_orders is not None:
                context.join_orders.update(join_orders)
        # The graph may have changed since the context last looked at it
        # (e.g. the heuristic's between-phase sweeps).
        context.drop_index()
        if governor is None:
            governor = (
                resilience.governor if resilience is not None
                else ResourceGovernor()
            )
        quarantine = resilience.quarantine if resilience is not None else None
        checker = None
        if resilience is not None and resilience.paranoid:
            # Paranoid mode runs the rewrite-soundness checker: the phase's
            # incoming diagnostics are the baseline, and every new *error*
            # after a firing is attributed to the rule and quarantines it.
            # Each firing is also translation-validated against its
            # pre-firing snapshot; a chase-refuted firing (QGM601) takes
            # the same rollback path.
            from repro.analysis.soundness import SoundnessChecker

            checker = SoundnessChecker(graph)
        active = [rule for rule in self.rules if phase in rule.phases]
        sweeps = 0
        changed = True
        while changed:
            sweeps += 1
            governor.check_rewrite_sweeps(sweeps, phase)
            changed = False
            rolled_back = False
            live = [
                rule for rule in active
                if quarantine is None or rule.name not in quarantine
            ]
            # The cursor: depth-first over the current graph. The box list
            # is the rule index's, rebuilt after every firing because rules
            # mutate the graph.
            for box in context.index.boxes:
                for rule in live:
                    if not rule.applies_to(box, context):
                        continue
                    fired = self._fire(
                        rule, box, graph, context, quarantine, checker
                    )
                    if fired is not False:
                        # A firing or a rollback changed the graph.
                        context.drop_index()
                    if fired is None:
                        # Rolled back: every box/quantifier object was
                        # replaced by the snapshot's, so the cursor state
                        # is stale — restart the sweep from scratch.
                        rolled_back = True
                        break
                    if fired:
                        context.record_firing(rule.name)
                        changed = True
                if rolled_back:
                    break
            if rolled_back:
                changed = True
        return context

    def _fire(self, rule, box, graph, context, quarantine, checker):
        """Apply ``rule`` at ``box``; returns True/False from the rule, or
        None when the firing failed and the graph was rolled back. Only a
        policy (``quarantine`` set) snapshots the graph to roll back to."""
        if quarantine is None:
            started = time.perf_counter()
            try:
                return rule.apply(box, context)
            finally:
                context.record_time(rule.name, time.perf_counter() - started)

        from repro.qgm.clone import clone_graph, restore_graph

        snapshot = clone_graph(graph)
        started = time.perf_counter()
        try:
            fired = rule.apply(box, context)
            if fired and checker is not None:
                # Raises QgmError when the firing introduced new error
                # diagnostics — or was refuted by translation validation —
                # after attributing them to the rule.
                checker.after_firing(graph, rule.name, context, before=snapshot)
            return fired
        except ResourceExhaustedError:
            raise  # a blown budget is the query's fault, not the rule's
        except Exception as exc:
            restore_graph(graph, snapshot)
            reason = "%s: %s" % (type(exc).__name__, exc)
            context.record_rollback(rule.name)
            context.record_quarantine(rule.name, reason)
            quarantine.add(rule.name, reason, phase=context.phase)
            return None
        finally:
            context.record_time(rule.name, time.perf_counter() - started)


def default_rules(include_emst=False, emst_rule=None):
    """The standard rule set. EMST is added separately because it needs the
    join-order oracle (see :mod:`repro.magic.emst`); pass ``emst_rule`` to
    use a configured variant (e.g. plain magic without supplementaries)."""
    from repro.rewrite.merge import MergeRule
    from repro.rewrite.pushdown import PredicatePushdownRule
    from repro.rewrite.projection import ProjectionPruneRule
    from repro.rewrite.redundant_join import RedundantJoinRule
    from repro.rewrite.distinct import DistinctPullupRule
    from repro.rewrite.local_magic import LocalMagicRule

    rules = [
        DistinctPullupRule(),
        PredicatePushdownRule(),
        LocalMagicRule(),
        RedundantJoinRule(),
        MergeRule(),
        ProjectionPruneRule(),
    ]
    if include_emst or emst_rule is not None:
        if emst_rule is None:
            from repro.magic.emst import EmstRule

            emst_rule = EmstRule()
        rules.append(emst_rule)
    return rules
