"""Dead-code detection (codes ``QGM3xx``).

Two findings, both non-fatal:

* ``QGM301`` (warning) — a box that no quantifier ranges over. Such a box
  is only kept alive by magic *links* (``linked_magic``), which is a
  legitimate mid-rewrite state but dead weight in a final graph.
* ``QGM302`` (info) — an output column no consumer ever references. This
  is exactly the feed of the projection-pruning rewrite rule; the linter
  surfaces it so hand-built graphs and builders can trim themselves.
* ``QGM604`` (warning) — a select box whose predicates are contradictory
  under the interpreted comparison domain
  (:mod:`repro.qgm.facts.domains`): ``x < 3 AND x > 7`` and
  friends. The box provably returns no rows, which is almost always a
  query-authoring bug; everything downstream of it is dead too.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Severity
from repro.analysis.framework import AnalysisContext, AnalysisPass, AnalysisReport
from repro.qgm import expr as qe
from repro.qgm.facts import domains
from repro.qgm.model import BoxKind

_POSITIONAL_KINDS = (BoxKind.UNION, BoxKind.INTERSECT, BoxKind.EXCEPT)


class DeadCodePass(AnalysisPass):
    """Find boxes and output columns nothing consumes."""

    name = "deadcode"

    def run(self, context: AnalysisContext, report: AnalysisReport) -> None:
        graph = context.graph
        top = graph.top_box
        if top is None:
            return

        # Reachability over quantifier edges only (boxes() also follows
        # magic links, which is how a dead box stays enumerable at all).
        live = set()
        stack = [top]
        while stack:
            box = stack.pop()
            if id(box) in live:
                continue
            live.add(id(box))
            for quantifier in box.quantifiers:
                stack.append(quantifier.input_box)

        for box in context.boxes:
            if id(box) not in live:
                self.emit(
                    report,
                    "QGM301",
                    Severity.WARNING,
                    "box %r is not referenced by any quantifier "
                    "(reachable only through magic links)" % box.name,
                    box=box,
                    hint="clear linked_magic or remove the box",
                )

        self._check_unused_columns(context, report, live)
        self._check_contradictory_predicates(context, report, live)

    def _check_contradictory_predicates(self, context, report, live) -> None:
        for box in context.boxes:
            if box.kind != BoxKind.SELECT or id(box) not in live:
                continue
            if not box.predicates:
                continue
            if domains.predicates_unsatisfiable(box.predicates):
                self.emit(
                    report,
                    "QGM604",
                    Severity.WARNING,
                    "box %r has contradictory predicates: the box is "
                    "provably empty and returns no rows" % box.name,
                    box=box,
                    hint="the predicates admit no value; check the "
                    "ranges for a typo",
                )

    def _check_unused_columns(self, context, report, live) -> None:
        graph = context.graph
        top = graph.top_box
        # (id(box), lowered column name) pairs referenced anywhere.
        used = set()
        # Boxes whose columns are consumed positionally (set-op inputs):
        # every column counts as used.
        positional = set()
        for box in context.boxes:
            if box.kind in _POSITIONAL_KINDS:
                for quantifier in box.quantifiers:
                    positional.add(id(quantifier.input_box))
            for expression in box.all_expressions():
                for ref in qe.column_refs(expression):
                    used.add((id(ref.quantifier.input_box), ref.column.lower()))

        for box in context.boxes:
            if box is top or box.kind == BoxKind.BASE:
                continue
            if id(box) in positional or id(box) not in live:
                continue
            for column in box.columns:
                if (id(box), column.name.lower()) not in used:
                    self.emit(
                        report,
                        "QGM302",
                        Severity.INFO,
                        "box %r output column %r is never referenced by any "
                        "consumer" % (box.name, column.name),
                        box=box,
                        column=column.name,
                        hint="the projection-pruning rule can remove it",
                    )
