"""The rewrite-rule protocol, the shared rule context and its index of
the current graph state."""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.facts.keyflow import is_duplicate_free
from repro.qgm.model import BoxKind

_POSITIONAL_KINDS = (BoxKind.UNION, BoxKind.INTERSECT, BoxKind.EXCEPT)


class RuleIndex:
    """Facts about one state of a query graph, each derived at most once.

    The rules' pre-mutation checks (is the box still reachable, how many
    quantifiers and magic links use it, does a set operation consume it
    positionally, which of its output columns are read anywhere, is it
    duplicate-free without its DISTINCT enforcement) all ask about the
    same graph state until something fires. The contract: a rule reads
    the index only *before* it mutates the graph, and the engine drops the
    index after every firing, after every rollback and at the start of
    each phase. Code that inspects the graph mid-mutation walks the graph
    itself (:func:`repro.rewrite.common.total_uses`).
    """

    def __init__(self, graph):
        #: Reachable boxes, in the cursor's depth-first order.
        self.boxes = graph.boxes()
        self._live = {id(box) for box in self.boxes}
        uses = {}
        positional = set()
        for box in self.boxes:
            for quantifier in box.quantifiers:
                child = id(quantifier.input_box)
                uses[child] = uses.get(child, 0) + 1
                if box.kind in _POSITIONAL_KINDS:
                    positional.add(child)
            for magic in box.linked_magic:
                uses[id(magic)] = uses.get(id(magic), 0) + 1
        self._uses = uses
        self._positional = positional
        self._referenced = None
        self._duplicate_free = {}

    def is_live(self, box):
        """True when ``box`` is reachable from the top box."""
        return id(box) in self._live

    def total_uses(self, box):
        """Quantifiers ranging over ``box`` plus magic links to it."""
        return self._uses.get(id(box), 0)

    def positionally_consumed(self, box):
        """True when a UNION, INTERSECT or EXCEPT box ranges over ``box``."""
        return id(box) in self._positional

    def referenced_columns(self, box):
        """Lower-cased names of ``box``'s output columns that any
        expression of the graph reads through a quantifier over it."""
        if self._referenced is None:
            referenced = {}
            for owner in self.boxes:
                for expression in owner.all_expressions():
                    for ref in qe.column_refs(expression):
                        referenced.setdefault(
                            id(ref.quantifier.input_box), set()
                        ).add(ref.column.lower())
            self._referenced = referenced
        return self._referenced.get(id(box), frozenset())

    def duplicate_free(self, box):
        """``is_duplicate_free(box, ignore_enforce=True)``, memoised."""
        verdict = self._duplicate_free.get(id(box))
        if verdict is None:
            verdict = is_duplicate_free(box, ignore_enforce=True)
            self._duplicate_free[id(box)] = verdict
        return verdict


class RuleContext:
    """State shared by rules during one rewrite run.

    ``join_orders`` is the oracle produced by plan-optimization pass 1
    (box id → ordered quantifier names); only the EMST rule consumes it.
    ``phase`` is the current rewrite phase (1, 2 or 3, see Figure 3).
    """

    def __init__(self, graph, phase=1, join_orders=None):
        self.graph = graph
        self.phase = phase
        self.join_orders = dict(join_orders or {})
        self.firing_counts = {}
        # Per-rule observability (resilience groundwork): cumulative
        # wall-clock seconds spent in apply(), and how often a firing was
        # rolled back / the rule quarantined.
        self.rule_seconds = {}
        self.rollback_counts = {}
        self.quarantined = {}
        # rule name -> diagnostic codes the soundness checker attributed to
        # the rule's firings (see repro.analysis.soundness).
        self.soundness_violations = {}
        # rule name -> {VERIFIED/REFUTED/UNKNOWN: {reason_code: count}}
        # from chase-based translation validation, plus cumulative seconds
        # spent verifying. Reason codes are the stable strings from
        # repro.analysis.equivalence.reasons (or "unspecified").
        self.equivalence_verdicts = {}
        self.equivalence_seconds = 0.0
        self._index = None

    @property
    def index(self):
        """The :class:`RuleIndex` of the current graph state (built on
        first use after the engine last dropped it)."""
        if self._index is None:
            self._index = RuleIndex(self.graph)
        return self._index

    def drop_index(self):
        """Forget the index: the graph has changed (or may have)."""
        self._index = None

    def record_firing(self, rule_name):
        self.firing_counts[rule_name] = self.firing_counts.get(rule_name, 0) + 1

    def record_time(self, rule_name, seconds):
        self.rule_seconds[rule_name] = (
            self.rule_seconds.get(rule_name, 0.0) + seconds
        )

    def record_rollback(self, rule_name):
        self.rollback_counts[rule_name] = (
            self.rollback_counts.get(rule_name, 0) + 1
        )

    def record_quarantine(self, rule_name, reason):
        self.quarantined.setdefault(rule_name, reason)

    def record_soundness(self, rule_name, codes):
        self.soundness_violations.setdefault(rule_name, []).extend(codes)

    def record_equivalence(self, rule_name, status, seconds=0.0, reason_code=None):
        per_rule = self.equivalence_verdicts.setdefault(rule_name, {})
        per_status = per_rule.setdefault(status, {})
        code = reason_code or "unspecified"
        per_status[code] = per_status.get(code, 0) + 1
        self.equivalence_seconds += seconds

    def observability(self):
        """The per-rule counters as one plain dict (for outcome stats)."""
        return {
            "rule_firings": dict(self.firing_counts),
            "rule_seconds": dict(self.rule_seconds),
            "rule_rollbacks": dict(self.rollback_counts),
            "rules_quarantined": dict(self.quarantined),
            "soundness_violations": {
                name: list(codes)
                for name, codes in self.soundness_violations.items()
            },
            "equivalence_verdicts": {
                name: {
                    status: dict(codes)
                    for status, codes in statuses.items()
                }
                for name, statuses in self.equivalence_verdicts.items()
            },
            "equivalence_seconds": self.equivalence_seconds,
        }


class RewriteRule:
    """Base class for rewrite rules.

    A rule declares the phases it is active in and implements ``apply``,
    which inspects one box and returns True when it changed the graph.
    Rules fire repeatedly (forward chaining) until no rule fires anywhere.
    """

    #: Unique rule name (used in firing statistics and tests).
    name = "abstract"
    #: Phases in which the engine activates the rule.
    phases = frozenset({1, 2, 3})
    #: Lower runs earlier within a box.
    priority = 100

    def applies_to(self, box, context):
        """Cheap guard; ``apply`` is only called when this returns True."""
        return True

    def apply(self, box, context):
        """Try to rewrite at ``box``; return True when the graph changed."""
        raise NotImplementedError
