"""Rewrite rollback bookkeeping and the strategy degradation ladder.

Two layers of degradation:

1. **Rule level** — the rewrite engine snapshots the graph before every
   rule firing; a rule that raises (or, in paranoid mode, corrupts the
   graph) is rolled back and *quarantined* in the policy's
   :class:`QuarantineRegistry` for the rest of the query, so one bad rule
   costs its own firings, not the query.
2. **Strategy level** — if a whole strategy still fails,
   :func:`run_with_fallback`, the one ladder both
   :class:`~repro.api.Connection` and the query server use, walks
   ``emst -> phase1 -> original`` and records what happened in a
   :class:`FallbackReport`. It is the only retry: each rung runs its plan
   once, on the requested executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import QueryCancelledError, ResourceExhaustedError
from repro.resilience.governor import ResourceGovernor

#: The degradation ladder: full EMST pipeline, then the rewrite pipeline
#: without EMST, then no rewrite at all.
DEFAULT_FALLBACK_CHAIN = ("emst", "phase1", "original")

#: Never degrade a strategy on these: a blown budget or a cancel under
#: ``emst`` would recur under ``original``.
NEVER_DEGRADE = (ResourceExhaustedError, QueryCancelledError)


def describe_error(exc):
    return "%s: %s" % (type(exc).__name__, exc)


class QuarantineRegistry:
    """Rules banned from firing for the remainder of the current query."""

    def __init__(self):
        self.reasons = {}

    def add(self, rule_name, reason, phase=None):
        if rule_name not in self.reasons:
            self.reasons[rule_name] = {"reason": reason, "phase": phase}

    def __contains__(self, rule_name):
        return rule_name in self.reasons

    def __bool__(self):
        return bool(self.reasons)

    def names(self):
        return sorted(self.reasons)

    def clear(self):
        self.reasons = {}


@dataclass
class FallbackReport:
    """What the resilience layer observed while producing one answered
    request: a walk that no rung answered has no report."""

    requested: str
    #: The strategy that answered.
    executed: str
    #: (strategy, error repr) for every rung that failed before it.
    attempts: List[Tuple[str, str]] = field(default_factory=list)
    #: rule name -> {"reason": ..., "phase": ...} for quarantined rules.
    quarantined: Dict[str, dict] = field(default_factory=dict)

    @property
    def degraded(self):
        return self.executed != self.requested or bool(self.quarantined)

    @property
    def fallback_strategy(self):
        """The strategy whose semantics the query effectively ran under.

        Falling back is either explicit (a later chain entry executed) or
        implicit: quarantining the EMST rule mid-pipeline leaves exactly
        the phase-1 pipeline, so that degradation is reported as
        ``phase1`` even though the ``emst`` code path drove it.
        """
        if self.executed != self.requested:
            return self.executed
        if self.requested == "emst" and "emst" in self.quarantined:
            return "phase1"
        return self.executed

    def describe(self):
        parts = ["requested=%s executed=%s" % (self.requested, self.executed)]
        if self.fallback_strategy != self.requested:
            parts.append("degraded to %s" % self.fallback_strategy)
        for strategy, error in self.attempts:
            parts.append("%s failed: %s" % (strategy, error))
        for name, info in sorted(self.quarantined.items()):
            parts.append("quarantined %s (%s)" % (name, info["reason"]))
        return "; ".join(parts)


class ResiliencePolicy:
    """Bundles everything the pipeline needs to fail soft.

    Pass one to :class:`~repro.api.Connection` (connection-wide) or to a
    single ``execute_query`` call. ``paranoid=True`` checks every rule
    firing with the rewrite-soundness checker
    (:class:`~repro.analysis.soundness.SoundnessChecker`): new *error*
    diagnostics are attributed to the firing rule, and each firing is
    translation-validated by the chase
    (:class:`~repro.analysis.equivalence.EquivalenceChecker`); either
    finding rolls the firing back and quarantines the rule (a chase
    *refutation* under code ``QGM601``). ``protect_rules=False``
    disables the per-firing snapshot (faster, but a raising rule then
    fails the whole strategy and only the chain fallback applies; the
    paranoid checks need the snapshot and are skipped with it).

    ``fault_plan`` (test harness, a
    :class:`~repro.resilience.faults.FaultPlan`) wraps the rewrite rules;
    its box faults fire through ``fault_plan.governor()``, the default
    governor when a plan is given. A plan with box faults refuses any
    other governor.
    """

    def __init__(self, governor=None, paranoid=False, protect_rules=True,
                 fault_plan=None):
        if governor is None:
            governor = (
                fault_plan.governor() if fault_plan is not None
                else ResourceGovernor()
            )
        elif fault_plan is not None and not fault_plan.fires_through(governor):
            raise ValueError(
                "the fault plan's box faults fire only through its own "
                "governor: pass governor=fault_plan.governor(...)"
            )
        self.governor = governor
        self.paranoid = paranoid
        self.protect_rules = protect_rules
        self.fault_plan = fault_plan
        self.quarantine = QuarantineRegistry()

    def begin_query(self):
        """Per-query reset: budgets restart, quarantine empties."""
        self.governor.begin_query()
        self.quarantine.clear()

    def rules_for(self, rules):
        """Apply the fault plan's wrapping (test harness) to a rule list."""
        if self.fault_plan is None:
            return rules
        return self.fault_plan.wrap_rules(rules)


def run_with_fallback(strategy, attempt, quarantine=None, start=None):
    """Run ``attempt(strategy)`` down the degradation ladder; returns
    ``(value, FallbackReport)``.

    A failing rung is recorded and the next one tried. A strategy is
    blamed (its failure lands in ``report.attempts``) only when a later
    rung answered: a walk that no rung answered is the query's own error,
    so the last rung's error propagates unchanged, with no report — as
    does one in :data:`NEVER_DEGRADE`, at once. A strategy off the ladder
    (``correlated``, ``norewrite``) runs alone. ``start`` (default:
    ``strategy``) is the first rung tried — the server's breaker board
    picks it. ``quarantine`` is copied into the report.
    """
    start = start or strategy
    chain = DEFAULT_FALLBACK_CHAIN
    rungs = chain[chain.index(start):] if start in chain else (start,)
    attempts = []
    for candidate in rungs:
        try:
            value = attempt(candidate)
        except NEVER_DEGRADE:
            raise
        except Exception as exc:
            if candidate == rungs[-1]:
                raise
            # Fail soft on *anything* a strategy threw: a corrupted graph
            # can surface as an arbitrary exception far from the rule
            # that broke it.
            attempts.append((candidate, describe_error(exc)))
            continue
        return value, FallbackReport(
            requested=strategy, executed=candidate, attempts=attempts,
            quarantined=(
                dict(quarantine.reasons) if quarantine is not None else {}
            ),
        )
