"""The rewrite-soundness checker: attribute every new diagnostic to the
rule firing that introduced it.

Paranoid mode diffs the *analysis report* before and after each firing
(its passes include :class:`~repro.analysis.structural.StructuralPass`,
every ``validate_graph`` invariant), so the resilience layer learns
**which rule** introduced **which diagnostic** — and only quarantines on
new *errors* (a rule is free to add or remove warnings mid-pipeline).

The checker is created once per rewrite phase (baseline = the incoming
graph's diagnostics, so pre-existing problems are never attributed to a
rule), consulted after every successful firing, and its attribution log
flows into :meth:`~repro.rewrite.rule.RuleContext.observability`, hence
into ``ExecutionOutcome.stats["soundness_violations"]`` and ``explain``.

Each firing is also *translation-validated* by an
:class:`~repro.analysis.equivalence.EquivalenceChecker` over the graph's
catalog: the pre-firing snapshot and the rewritten graph are
canonicalized into tableaux, chased under the catalog's dependencies,
and compared. A ``REFUTED`` verdict — the rewrite provably changed the
query's meaning on a concrete counterexample database — is reported as
``QGM601`` and raised exactly like a new error diagnostic, so the
engine's existing rollback-and-quarantine path handles it. ``UNKNOWN``
is always accepted (the validator's fragment is conjunctive blocks plus
unions; anything beyond yields UNKNOWN, never a false alarm).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.framework import Analyzer, soundness_passes
from repro.errors import QgmError


class SoundnessChecker:
    """Diffs pre/post-firing analysis results for one rewrite run."""

    def __init__(self, graph):
        from repro.analysis.equivalence import EquivalenceChecker

        self.analyzer = Analyzer(soundness_passes())
        #: Every firing with a ``before`` snapshot is submitted to
        #: chase-based translation validation (REFUTED -> QGM601).
        self.equivalence_checker = EquivalenceChecker(graph.catalog)
        self.baseline: Set[Tuple] = self._keys(self.analyzer.analyze(graph))
        #: rule name -> list of diagnostics that rule introduced (errors
        #: trigger rollback + quarantine; warnings are recorded only).
        self.attributed: Dict[str, List[Diagnostic]] = {}

    @staticmethod
    def _keys(report) -> Set[Tuple]:
        return {diagnostic.key() for diagnostic in report}

    def after_firing(
        self, graph, rule_name: str, context=None, before=None
    ) -> List[Diagnostic]:
        """Re-analyze ``graph`` after ``rule_name`` fired.

        New warnings/infos are absorbed into the baseline and attributed
        silently. New *errors* are attributed, recorded on ``context``,
        and raised as :class:`~repro.errors.QgmError` so the engine rolls
        the firing back and quarantines the rule. When ``before`` (the
        pre-firing snapshot) is given, the firing is also
        translation-validated; a ``REFUTED`` verdict raises as a
        ``QGM601`` error. Returns the list of new diagnostics (when it
        does not raise).
        """
        report = self.analyzer.analyze(graph)
        fresh = [d for d in report if d.key() not in self.baseline]
        if fresh:
            for diagnostic in fresh:
                diagnostic.rule = rule_name
            self.attributed.setdefault(rule_name, []).extend(fresh)
            new_errors = [d for d in fresh if d.severity == Severity.ERROR]
            if context is not None:
                context.record_soundness(
                    rule_name, [d.code for d in (new_errors or fresh)]
                )
            if new_errors:
                summary = "; ".join(
                    "%s at %s: %s" % (d.code, d.location, d.message)
                    for d in new_errors[:3]
                )
                if len(new_errors) > 3:
                    summary += "; ... (%d total)" % len(new_errors)
                raise QgmError(
                    "rule %r introduced %d new error diagnostic(s): %s"
                    % (rule_name, len(new_errors), summary),
                    context={
                        "rule": rule_name,
                        "codes": [d.code for d in new_errors],
                    },
                )
        # Warnings only (or clean): keep them out of the next diff.
        self.baseline = self._keys(report)
        self._translation_validate(graph, rule_name, context, before)
        return fresh

    def _translation_validate(self, graph, rule_name, context, before):
        """Chase-check ``before -> graph``; REFUTED raises as QGM601."""
        if before is None:
            return
        verdict = self.equivalence_checker.check_graphs(before, graph)
        if verdict.status == "UNKNOWN":
            # Whole-graph canonicalization bails on magic regions and other
            # out-of-fragment features; scoped validation compares just the
            # changed region as a standalone query. It can only upgrade
            # UNKNOWN to VERIFIED, never introduce a REFUTED.
            from repro.analysis.equivalence.scope import scoped_verdict

            scoped = scoped_verdict(self.equivalence_checker, before, graph)
            if scoped is not None:
                verdict = scoped
        if context is not None:
            context.record_equivalence(
                rule_name, verdict.status, verdict.seconds, verdict.reason_code
            )
        if verdict.status != "REFUTED":
            return
        diagnostic = Diagnostic(
            code="QGM601",
            severity=Severity.ERROR,
            message="translation validation refuted this firing: %s"
            % verdict.detail,
            box=graph.top_box.name,
            box_id=graph.top_box.box_id,
            pass_name="equivalence",
            rule=rule_name,
        )
        self.attributed.setdefault(rule_name, []).append(diagnostic)
        if context is not None:
            context.record_soundness(rule_name, ["QGM601"])
        raise QgmError(
            "rule %r refuted by translation validation: %s"
            % (rule_name, verdict.detail),
            context={
                "rule": rule_name,
                "codes": ["QGM601"],
                "counterexample": verdict.counterexample,
            },
        )
