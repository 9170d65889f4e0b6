"""Chase-backed semantic diagnostics (codes ``QGM602``/``QGM603``/``QGM605``).

Where the ``QGM5xx`` dataflow pass audits what the *graph* claims, this
pass audits what the *catalog's dependencies* imply, by running the
chase-based equivalence machinery (:mod:`repro.analysis.equivalence`)
over each plain select box:

* ``QGM602`` — a join quantifier is semantically redundant: eliminating
  it yields a box the chase proves equivalent to the original (the same
  trial-elimination the generalized redundant-join rewrite rule
  performs, reported here instead of applied). Warning: the optimizer
  will remove it, but the query text carries a join that buys nothing.
* ``QGM603`` — an equality predicate is already implied by the box's
  other predicates plus the declared keys and foreign keys; the chase of
  the box *without* the predicate equates its two sides anyway. Info:
  harmless, but redundant.
* ``QGM605`` — a non-equality comparison (``<``, ``<=``, ``>``, ``>=``,
  ``<>``, or a desugared ``IN``) is already implied by the box's other
  interval facts under the interpreted comparison domain
  (:mod:`repro.analysis.equivalence.domains`) — e.g. ``x > 10`` next to
  ``x >= 20``. Info: harmless, but redundant. Unlike the two above this
  needs no declared dependencies, so it fires even on a bare catalog.

The trial eliminations clone the graph once per candidate pair, so the
``deep`` flag turns them off for the rewrite-soundness pipeline (which
re-runs its passes after every rule firing); there the pass still emits
``QGM603``, whose cost is one bounded chase per equality predicate.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Severity
from repro.analysis.framework import AnalysisContext, AnalysisPass, AnalysisReport
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind

#: Trial eliminations attempted per box (each clones the graph).
MAX_TRIAL_PAIRS = 6


class EquivalencePass(AnalysisPass):
    """Report dependency-implied redundancies the chase can prove."""

    name = "equivalence"

    def __init__(self, deep: bool = True):
        #: ``deep=False`` skips the per-pair trial eliminations (QGM602).
        self.deep = deep

    def run(self, context: AnalysisContext, report: AnalysisReport) -> None:
        checker = None
        if context.catalog is not None:
            from repro.analysis.equivalence import EquivalenceChecker

            checker = EquivalenceChecker(context.catalog)
            if checker.deps.is_empty():
                checker = None
        for box in context.boxes:
            if box.kind != BoxKind.SELECT or box.is_special:
                continue
            self._check_implied_comparisons(box, report)
            if checker is None:
                continue
            self._check_implied_predicates(box, checker, report)
            if self.deep:
                self._check_redundant_joins(box, context, checker, report)

    def _check_implied_comparisons(self, box, report) -> None:
        from repro.analysis.equivalence import domains

        for conjunct in domains.implied_comparisons(box.predicates):
            self.emit(
                report,
                "QGM605",
                Severity.INFO,
                "comparison %s is implied by the box's other interval "
                "facts" % conjunct,
                box=box,
                hint="the predicate can be dropped without changing results",
            )

    def _check_implied_predicates(self, box, checker, report) -> None:
        for predicate in box.predicates:
            sides = qe.equality_sides(predicate)
            if sides is None:
                continue
            left, right = sides
            if left.quantifier is right.quantifier and left.column == right.column:
                continue  # trivial self-equality, not worth a chase
            if checker.implied_equality(box, predicate):
                self.emit(
                    report,
                    "QGM603",
                    Severity.INFO,
                    "equality %s.%s = %s.%s is implied by the remaining "
                    "predicates and the declared dependencies"
                    % (
                        left.quantifier.name,
                        left.column,
                        right.quantifier.name,
                        right.column,
                    ),
                    box=box,
                    hint="the predicate can be dropped without changing results",
                )

    def _check_redundant_joins(self, box, context, checker, report) -> None:
        from repro.rewrite.redundant_join import RedundantJoinRule

        if len(box.foreach_quantifiers()) < 2:
            return
        rule = RedundantJoinRule()
        reported = set()
        trials = 0
        for keep, drop, mapping in rule._semantic_candidates(box, context):
            if drop.name in reported:
                continue
            if trials >= MAX_TRIAL_PAIRS:
                break
            trials += 1
            if rule._verify_elimination(box, context, checker, keep, drop, mapping):
                reported.add(drop.name)
                self.emit(
                    report,
                    "QGM602",
                    Severity.WARNING,
                    "joining %r is semantically redundant: the chase proves "
                    "the box equivalent without it (its columns are "
                    "available through %r)" % (drop.name, keep.name),
                    box=box,
                    quantifier=drop.name,
                    hint="the redundant-join rule will eliminate it",
                )


__all__ = ["EquivalencePass"]
