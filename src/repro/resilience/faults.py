"""Deterministic, seedable fault injection for the rewrite and execution
layers.

A :class:`FaultPlan` is a schedule of faults — exceptions, graph
corruption, artificial slowness — keyed by rule name and *firing index*
(the n-th time the rule's ``apply`` runs, counted across the plan's
lifetime), plus evaluator-level faults keyed by box-evaluation index. The
plan wraps registered rewrite rules via :meth:`wrap_rules`, and its box
faults ride the governor it builds (:meth:`governor`), so the engines
know no hook but the governor. The rollback, quarantine and governor
paths are exercised by real control flow rather than monkey-patching.

Faults are injected through ordinary exceptions (:class:`InjectedFault`)
or real graph mutations, which is exactly what a buggy production rule
would do; nothing downstream knows the failure was synthetic.
"""

from __future__ import annotations

import random
import time

from repro.errors import ReproError
from repro.resilience.governor import ResourceGovernor
from repro.rewrite.rule import RewriteRule

EVERY_FIRING = None


class InjectedFault(ReproError):
    """The synthetic failure raised by a :class:`FaultPlan`."""


class _Fault:
    """One scheduled fault: ``kind`` is 'raise', 'corrupt' or 'slow'."""

    def __init__(self, kind, firings=EVERY_FIRING, seconds=0.0, message=""):
        self.kind = kind
        self.firings = None if firings is None else set(firings)
        self.seconds = seconds
        self.message = message

    def matches(self, firing_index):
        return self.firings is None or firing_index in self.firings


class FaultPlan:
    """A deterministic schedule of injected faults.

    Firing indices are 1-based and counted per rule name across the whole
    plan lifetime; call :meth:`reset_counters` (or use a fresh plan) to
    restart counting, e.g. between queries of a batch.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._rule_faults = {}
        self._eval_faults = []
        self._rule_firings = {}
        self._evaluations = 0
        #: (rule_name, firing_index, kind) triples actually injected.
        self.injected = []

    # -- scheduling --------------------------------------------------------------

    def fail_rule(self, name, on_firing=1, message=None):
        """Raise :class:`InjectedFault` when rule ``name`` fires for the
        ``on_firing``-th time (``EVERY_FIRING``/None = every firing)."""
        self._add_rule_fault(
            name,
            _Fault(
                "raise",
                self._firing_set(on_firing),
                message=message or "injected failure in rule %r" % name,
            ),
        )
        return self

    def corrupt_rule(self, name, on_firing=1):
        """After rule ``name`` fires, break a QGM invariant (detach a
        quantifier's parent link) so paranoid validation must catch it."""
        self._add_rule_fault(name, _Fault("corrupt", self._firing_set(on_firing)))
        return self

    def slow_rule(self, name, on_firing=1, seconds=0.05):
        """Sleep before rule ``name`` applies — trips deadline budgets."""
        self._add_rule_fault(
            name, _Fault("slow", self._firing_set(on_firing), seconds=seconds)
        )
        return self

    def fail_evaluation(self, on_evaluation=1, message=None):
        """Raise :class:`InjectedFault` on the n-th box evaluation (fires
        only through the plan's :meth:`governor`)."""
        self._eval_faults.append(
            _Fault(
                "raise",
                self._firing_set(on_evaluation),
                message=message or "injected failure during box evaluation",
            )
        )
        return self

    def slow_evaluation(self, on_evaluation=1, seconds=0.05):
        """Sleep on the n-th box evaluation — trips deadline budgets."""
        self._eval_faults.append(
            _Fault("slow", self._firing_set(on_evaluation), seconds=seconds)
        )
        return self

    @classmethod
    def randomized(cls, seed, rule_names, faults=2, kinds=("raise", "corrupt")):
        """A randomized-but-reproducible plan: ``faults`` faults spread over
        ``rule_names`` with firing indices in [1, 3], chosen by ``seed``."""
        rng = random.Random(seed)
        plan = cls(seed=seed)
        names = sorted(rule_names)
        for _ in range(faults):
            name = rng.choice(names)
            kind = rng.choice(list(kinds))
            firing = rng.randint(1, 3)
            if kind == "raise":
                plan.fail_rule(name, on_firing=firing)
            elif kind == "corrupt":
                plan.corrupt_rule(name, on_firing=firing)
            else:
                plan.slow_rule(name, on_firing=firing)
        return plan

    @staticmethod
    def _firing_set(on_firing):
        if on_firing is EVERY_FIRING:
            return EVERY_FIRING
        if isinstance(on_firing, int):
            return (on_firing,)
        return tuple(on_firing)

    def _add_rule_fault(self, name, fault):
        self._rule_faults.setdefault(name, []).append(fault)

    # -- wiring ------------------------------------------------------------------

    def wrap_rules(self, rules):
        """Wrap every rule in a fault-injecting proxy (idempotent: rules
        without scheduled faults still pass through the counter so firing
        indices are stable when faults are added later)."""
        return [FaultyRule(rule, self) for rule in rules]

    def governor(self, **budgets):
        """A :class:`~repro.resilience.governor.ResourceGovernor` with
        ``budgets`` that fires this plan's box-evaluation faults."""
        return FaultingGovernor(self, **budgets)

    def fires_through(self, governor):
        """Whether this plan's box faults (if it has any) fire under
        ``governor``: only a governor from :meth:`governor` fires them."""
        return not self._eval_faults or (
            isinstance(governor, FaultingGovernor) and governor.plan is self
        )

    def reset_counters(self):
        self._rule_firings = {}
        self._evaluations = 0

    # -- injection points --------------------------------------------------------

    def before_apply(self, rule_name):
        firing = self._rule_firings.get(rule_name, 0) + 1
        self._rule_firings[rule_name] = firing
        for fault in self._rule_faults.get(rule_name, ()):
            if not fault.matches(firing):
                continue
            if fault.kind == "slow":
                self.injected.append((rule_name, firing, "slow"))
                time.sleep(fault.seconds)
            elif fault.kind == "raise":
                self.injected.append((rule_name, firing, "raise"))
                raise InjectedFault(
                    "%s (firing %d)" % (fault.message, firing),
                    context={"rule": rule_name, "firing": firing},
                )
        return firing

    def after_apply(self, rule_name, firing, graph):
        for fault in self._rule_faults.get(rule_name, ()):
            if fault.kind == "corrupt" and fault.matches(firing):
                self.injected.append((rule_name, firing, "corrupt"))
                _corrupt_graph(graph)

    def on_box_evaluation(self, where):
        """Called by the plan's governor once per box evaluation."""
        if not self._eval_faults:
            return
        self._evaluations += 1
        for fault in self._eval_faults:
            if not fault.matches(self._evaluations):
                continue
            if fault.kind == "slow":
                self.injected.append(("<evaluator>", self._evaluations, "slow"))
                time.sleep(fault.seconds)
            else:
                self.injected.append(("<evaluator>", self._evaluations, "raise"))
                raise InjectedFault(
                    "%s (evaluation %d, %s)"
                    % (fault.message, self._evaluations, where),
                    context={"evaluation": self._evaluations, "where": where},
                )


class FaultingGovernor(ResourceGovernor):
    """A governor that fires its plan's box faults. Every engine charges
    the rows of each box it evaluates outside a recursive fixpoint
    (``charge_rows``) once, so that charge is the box-evaluation
    injection point; the fault fires before the budget is checked."""

    def __init__(self, plan, **budgets):
        super().__init__(**budgets)
        self.plan = plan

    def charge_rows(self, count, where):
        self.plan.on_box_evaluation(where)
        super().charge_rows(count, where)


def _corrupt_graph(graph):
    """Break a structural invariant the way a buggy rule might: detach the
    parent link of the first quantifier found (``validate_graph`` reports
    it as a wrong parent link)."""
    for box in graph.boxes():
        if box.quantifiers:
            box.quantifiers[0].parent_box = None
            return


class FaultyRule(RewriteRule):
    """A transparent proxy that lets a :class:`FaultPlan` intercept one
    rule's firings. Name/phases/priority mirror the wrapped rule so the
    engine, quarantine and statistics treat it as the original."""

    def __init__(self, inner, plan):
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self.phases = inner.phases
        self.priority = inner.priority

    def applies_to(self, box, context):
        return self.inner.applies_to(box, context)

    def apply(self, box, context):
        firing = self.plan.before_apply(self.name)
        fired = self.inner.apply(box, context)
        self.plan.after_apply(self.name, firing, context.graph)
        return fired
