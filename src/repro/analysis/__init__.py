"""Static analysis over QGM graphs.

A pluggable pass framework (:mod:`repro.analysis.framework`) runs a
pipeline of passes over a query graph and collects structured
:class:`~repro.analysis.diagnostics.Diagnostic` records — stable codes,
severities, box-level locations, fix hints — instead of raising on the
first problem. Shipped passes:

* :class:`~repro.analysis.structural.StructuralPass` — every structural
  invariant of :mod:`repro.qgm.validate` (``QGM1xx``),
* :class:`~repro.analysis.typecheck.TypeCheckPass` — type inference from
  catalog schemas and expression checking (``QGM2xx``),
* :class:`~repro.analysis.deadcode.DeadCodePass` — unreferenced boxes and
  output columns (``QGM3xx``),
* :class:`~repro.analysis.magic_checks.MagicWellFormednessPass` —
  adornment/magic/stratification soundness (``QGM4xx``).

:class:`~repro.analysis.soundness.SoundnessChecker` diffs analysis
reports across rewrite-rule firings and attributes every new diagnostic
to the rule that introduced it (wired into paranoid resilience mode).
``python -m repro.analysis.lint`` is the command-line linter.

The package only *checks* the compiler: the facts the compiler decides
from live in :mod:`repro.qgm.facts` and :mod:`repro.qgm.validate`, and the
compiler imports nothing from here except the paranoid-mode
``SoundnessChecker``.
"""

from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.framework import (
    AnalysisContext,
    AnalysisPass,
    Analyzer,
    analyze_graph,
    default_passes,
    soundness_passes,
)
from repro.analysis.soundness import SoundnessChecker

__all__ = [
    "CODES",
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "Analyzer",
    "Diagnostic",
    "Severity",
    "SoundnessChecker",
    "analyze_graph",
    "default_passes",
    "soundness_passes",
]
