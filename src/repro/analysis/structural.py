"""Structural invariants as an analysis pass (codes ``QGM1xx``).

The invariants themselves live next to the compiler, in
:mod:`repro.qgm.validate`, whose ``validate_graph`` raises on the first
one; this pass *collects* every violation in the graph into the report.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Severity
from repro.analysis.framework import AnalysisContext, AnalysisPass, AnalysisReport
from repro.qgm.validate import box_errors, structural_errors


class StructuralPass(AnalysisPass):
    """Check the structural invariants of every reachable box."""

    name = "structural"

    def run(self, context: AnalysisContext, report: AnalysisReport) -> None:
        self._emit_all(structural_errors(context.boxes), report)

    # Public so the table-driven tests can drive one box with a controlled
    # environment.
    def check_box(self, box, box_ids, all_quantifiers, report) -> None:
        self._emit_all(box_errors(box, box_ids, all_quantifiers), report)

    def _emit_all(self, errors, report) -> None:
        for error in errors:
            self.emit(
                report,
                error.code,
                Severity.ERROR,
                error.message,
                box=error.box,
                quantifier=error.quantifier,
                column=error.column,
                hint=error.hint,
            )
