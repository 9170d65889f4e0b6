"""Chase-backed semantic diagnostics (codes ``QGM602``/``QGM603``/``QGM605``).

Where the ``QGM5xx`` dataflow pass audits what the *graph* claims, this
pass audits what the *catalog's dependencies* imply, by running the
chase-based equivalence machinery (:mod:`repro.analysis.equivalence`)
over each plain select box:

* ``QGM602`` — a join quantifier is semantically redundant: eliminating
  it on a clone of the graph yields a box the chase proves equivalent to
  the original. Candidates are self-joins through view-expansion boxes
  (which no rewrite removes: only the chase proves them) and FK-covered
  parent joins (which the redundant-join rule removes, deciding from
  declared keys and NOT NULL alone — here the chase re-checks them).
  Warning: the query text carries a join that buys nothing.
* ``QGM603`` — an equality predicate is already implied by the box's
  other predicates plus the declared keys and foreign keys; the chase of
  the box *without* the predicate equates its two sides anyway. Info:
  harmless, but redundant.
* ``QGM605`` — a non-equality comparison (``<``, ``<=``, ``>``, ``>=``,
  ``<>``, or a desugared ``IN``) is already implied by the box's other
  interval facts under the interpreted comparison domain
  (:mod:`repro.qgm.facts.domains`) — e.g. ``x > 10`` next to
  ``x >= 20``. Info: harmless, but redundant. Unlike the two above this
  needs no declared dependencies, so it fires even on a bare catalog.

The trial eliminations clone the graph once per candidate pair, so the
``deep`` flag turns them off for the rewrite-soundness pipeline (which
re-runs its passes after every rule firing); there the pass still emits
``QGM603``, whose cost is one bounded chase per equality predicate.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Severity
from repro.analysis.equivalence import VERIFIED, EquivalenceChecker
from repro.analysis.framework import AnalysisContext, AnalysisPass, AnalysisReport
from repro.qgm import expr as qe
from repro.qgm.clone import clone_graph
from repro.qgm.facts import domains
from repro.qgm.model import BoxKind, QuantifierType
from repro.rewrite.redundant_join import (
    columns_read_through,
    eliminate_quantifier,
    fk_parent_joins,
    linked_by_equality,
)

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
        if len(box.foreach_quantifiers()) < 2:
            return
        reported = set()
        trials = 0
        for keep, drop, mapping in redundant_join_candidates(box, context.graph):
            if drop.name in reported:
                continue
            if trials >= MAX_TRIAL_PAIRS:
                break
            trials += 1
            trial_box = eliminated_on_clone(box, context.graph, keep, drop, mapping)
            if trial_box is None:
                continue
            if checker.check_boxes(box, trial_box).status == VERIFIED:
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
                    hint="the join can be dropped from the query",
                )


def _base_footprint(box, depth=0):
    """Sorted multiset of base tables a box expands over; None = unknown."""
    if depth > 6:
        return None
    if box.kind == BoxKind.BASE:
        return (box.table_name.lower(),) if box.table_name else None
    if box.kind != BoxKind.SELECT or box.is_special:
        return None
    tables = []
    for quantifier in box.quantifiers:
        if quantifier.qtype != QuantifierType.FOREACH:
            return None
        child = _base_footprint(quantifier.input_box, depth + 1)
        if child is None:
            return None
        tables.extend(child)
    return tuple(sorted(tables))


def redundant_join_candidates(box, graph):
    """Yield ``(keep, drop, column_mapping)`` worth a trial elimination.

    First self-joins through view-expansion boxes: both inputs are SELECT
    boxes over the same base tables with the same output columns, linked
    by at least one equality (a shared box object lands here too when no
    declared key equates the two). Then the FK-covered parent joins of
    :func:`~repro.rewrite.redundant_join.fk_parent_joins`, whatever the
    rule decides about them.
    """
    foreach = box.foreach_quantifiers()
    for i, first in enumerate(foreach):
        for second in foreach[i + 1:]:
            if (
                first.input_box.kind != BoxKind.SELECT
                or second.input_box.kind != BoxKind.SELECT
            ):
                continue
            if first.input_box is not second.input_box:
                footprint = _base_footprint(first.input_box)
                if footprint is None or footprint != _base_footprint(
                    second.input_box
                ):
                    continue
            if not linked_by_equality(box, first, second):
                continue
            for keep, drop in ((first, second), (second, first)):
                keep_columns = {
                    name.lower(): name for name in keep.input_box.column_names
                }
                if columns_read_through(graph, drop) <= set(keep_columns):
                    yield keep, drop, keep_columns
    for child, parent, _fk, column_mapping in fk_parent_joins(box, graph):
        yield child, parent, column_mapping


def eliminated_on_clone(box, graph, keep, drop, column_mapping):
    """Eliminate ``drop`` (in favour of ``keep``) from the copy of ``box``
    in a clone of ``graph``; returns the copy, or None when the clone has
    no such box or quantifiers. The original graph is untouched."""
    trial_graph = clone_graph(graph)
    trial_box = next(
        (b for b in trial_graph.boxes() if b.box_id == box.box_id), None
    )
    if trial_box is None:
        return None
    try:
        trial_keep = trial_box.quantifier(keep.name)
        trial_drop = trial_box.quantifier(drop.name)
    except Exception:
        return None
    eliminate_quantifier(trial_box, trial_graph, trial_keep, trial_drop, column_mapping)
    return trial_box


__all__ = ["EquivalencePass", "eliminated_on_clone", "redundant_join_candidates"]
