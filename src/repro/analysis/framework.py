"""The pluggable static-analysis pass framework.

An :class:`AnalysisPass` inspects one QGM graph and *emits* diagnostics —
it never raises on a finding, so one run of the :class:`Analyzer` pipeline
surfaces every problem at once (the contrast with the historical
:func:`~repro.qgm.validate.validate_graph`, which stops at the first).

Passes share an :class:`AnalysisContext` so expensive facts (the reachable
box list, the consumer map, strongly connected components, inferred column
types) are computed once per run regardless of how many passes need them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
)


class AnalysisContext:
    """Shared, lazily computed facts about the graph under analysis."""

    def __init__(self, graph, catalog=None):
        self.graph = graph
        self.catalog = catalog if catalog is not None else graph.catalog
        self._boxes = None
        self._consumers = None
        self._components = None
        #: scratch for cross-pass products (the type pass publishes its
        #: inferred column types here for other passes / the API to read).
        self.facts: Dict[str, object] = {}

    @property
    def boxes(self):
        if self._boxes is None:
            self._boxes = self.graph.boxes()
        return self._boxes

    @property
    def consumers(self):
        """Map ``id(box)`` -> list of quantifiers ranging over it."""
        if self._consumers is None:
            self._consumers = self.graph.consumers()
        return self._consumers

    @property
    def components(self):
        """``(components, component_of)`` from the reduced dependency
        graph (SCCs collapsed; see :mod:`repro.qgm.stratum`)."""
        if self._components is None:
            from repro.qgm.stratum import reduced_dependency_graph

            self._components = reduced_dependency_graph(self.graph)
        return self._components

    def recursive_component_of(self, box):
        """The list of boxes in ``box``'s SCC when that SCC is recursive
        (more than one member, or a self-loop); None otherwise."""
        components, component_of = self.components
        index = component_of.get(id(box))
        if index is None:
            return None
        component = components[index]
        if len(component) > 1:
            return component
        only = component[0]
        if any(child is only for child in only.referenced_boxes()):
            return component
        return None


class AnalysisPass:
    """Base class for analysis passes.

    Subclasses set ``name`` and implement :meth:`run`, emitting findings
    through :meth:`emit` (which stamps the pass name and validates the
    code against the :data:`~repro.analysis.diagnostics.CODES` registry).
    """

    #: Unique pass name (used in reports, timings and the CLI).
    name = "abstract"

    def run(self, context: AnalysisContext, report: AnalysisReport) -> None:
        raise NotImplementedError

    def emit(
        self,
        report: AnalysisReport,
        code: str,
        severity: str,
        message: str,
        box=None,
        quantifier: Optional[str] = None,
        column: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> Diagnostic:
        if code not in CODES:
            raise ValueError(
                "diagnostic code %r is not registered in repro.analysis."
                "diagnostics.CODES" % code
            )
        return report.add(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                box=getattr(box, "name", box),
                box_id=getattr(box, "box_id", None),
                quantifier=quantifier,
                column=column,
                hint=hint,
                pass_name=self.name,
            )
        )


def default_passes() -> List[AnalysisPass]:
    """The full pipeline: structural, types, dead code, magic, dataflow,
    chase-based equivalence."""
    from repro.analysis.structural import StructuralPass
    from repro.analysis.typecheck import TypeCheckPass
    from repro.analysis.deadcode import DeadCodePass
    from repro.analysis.magic_checks import MagicWellFormednessPass
    from repro.analysis.dataflow_checks import DataflowPass
    from repro.analysis.equivalence_checks import EquivalencePass

    return [
        StructuralPass(),
        TypeCheckPass(),
        DeadCodePass(),
        MagicWellFormednessPass(),
        DataflowPass(),
        EquivalencePass(),
    ]


def soundness_passes() -> List[AnalysisPass]:
    """The subset the rewrite-soundness checker runs after every rule
    firing: structural invariants, magic well-formedness, and the dataflow
    audit (without its per-box redundant-DISTINCT fixpoints, which would
    be quadratic when re-run per firing).

    Dead-code and type diagnostics are deliberately excluded — a rewrite
    legitimately passes through states with temporarily unreferenced boxes,
    and type facts cannot change under equivalence-preserving rules. The
    equivalence pass runs shallow (``deep=False``): no per-pair trial
    eliminations, only the bounded implied-predicate chases.
    """
    from repro.analysis.structural import StructuralPass
    from repro.analysis.magic_checks import MagicWellFormednessPass
    from repro.analysis.dataflow_checks import DataflowPass
    from repro.analysis.equivalence_checks import EquivalencePass

    return [
        StructuralPass(),
        MagicWellFormednessPass(),
        DataflowPass(check_redundant_distinct=False),
        EquivalencePass(deep=False),
    ]


class Analyzer:
    """Runs a pipeline of passes over one graph, collecting a report."""

    def __init__(self, passes: Optional[List[AnalysisPass]] = None):
        self.passes = list(passes) if passes is not None else default_passes()

    def analyze(self, graph, catalog=None) -> AnalysisReport:
        context = AnalysisContext(graph, catalog=catalog)
        report = AnalysisReport()
        for analysis_pass in self.passes:
            started = time.perf_counter()
            analysis_pass.run(context, report)
            report.pass_seconds[analysis_pass.name] = (
                report.pass_seconds.get(analysis_pass.name, 0.0)
                + time.perf_counter()
                - started
            )
        return report


def analyze_graph(graph, catalog=None, passes=None) -> AnalysisReport:
    """Convenience: one full analysis run over ``graph``."""
    return Analyzer(passes=passes).analyze(graph, catalog=catalog)


# Re-exported for callers that import everything from the framework.
__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "Analyzer",
    "Diagnostic",
    "Severity",
    "analyze_graph",
    "default_passes",
    "soundness_passes",
]
