"""Magic/adornment well-formedness and stratification safety (``QGM4xx``).

These are the machine-checkable soundness conditions the magic-sets
rewrite must preserve (§4 of the paper, and the conditions Alviano et al.
make explicit for ontological magic sets):

* adornment strings are valid ``b``/``c``/``f`` words exactly as wide as
  the adorned box's output,
* magic boxes enforce DISTINCT unless duplicate-freeness is provable from
  derived keys (the relaxation the distinct-pullup rule is allowed to
  make),
* boxes whose operation is NMQ (groupby, set-ops, outer join — see
  :mod:`repro.magic.properties`) never receive an *inserted* magic
  quantifier; magic may only be linked and passed down,
* recursion is stratified: no aggregate and no anti-join edge inside a
  recursive strongly connected component.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Severity
from repro.analysis.framework import AnalysisContext, AnalysisPass, AnalysisReport
from repro.magic.adornment import _VALID as _VALID_ADORNMENT_LETTERS
from repro.magic.properties import has_operation, operation_properties
from repro.qgm.facts.keyflow import is_duplicate_free
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType


class MagicWellFormednessPass(AnalysisPass):
    """Check the EMST-specific invariants of a (possibly rewritten) graph."""

    name = "magic"

    def run(self, context: AnalysisContext, report: AnalysisReport) -> None:
        for box in context.boxes:
            self._check_adornment(box, report)
            self._check_magic_distinct(box, report)
            self._check_nmq_insertion(box, report)
            self._check_stratification(context, box, report)

    def _check_adornment(self, box, report) -> None:
        if box.adornment is None:
            return
        bad = sorted({c for c in box.adornment if c not in _VALID_ADORNMENT_LETTERS})
        if bad:
            self.emit(
                report,
                "QGM402",
                Severity.ERROR,
                "box %r has invalid adornment letter(s) %s in %r"
                % (box.name, ", ".join(map(repr, bad)), str(box.adornment)),
                box=box,
                hint="adornments are words over b (bound), c (conditioned), f (free)",
            )
        if len(box.adornment) != len(box.columns):
            self.emit(
                report,
                "QGM401",
                Severity.ERROR,
                "box %r adornment %r has %d letters but the box has %d columns"
                % (box.name, str(box.adornment), len(box.adornment), len(box.columns)),
                box=box,
            )

    def _check_magic_distinct(self, box, report) -> None:
        if not box.is_magic_box:
            return
        if box.distinct == DistinctMode.ENFORCE:
            return
        if is_duplicate_free(box):
            return
        self.emit(
            report,
            "QGM403",
            Severity.WARNING,
            "magic box %r has distinct=%s but duplicate-freeness is not "
            "provable from its keys" % (box.name, box.distinct),
            box=box,
            hint="magic boxes are built with SELECT DISTINCT; only relax it "
            "when a key proves uniqueness",
        )

    def _check_nmq_insertion(self, box, report) -> None:
        if box.kind == BoxKind.BASE:
            return
        if not has_operation(box.kind):
            self.emit(
                report,
                "QGM405",
                Severity.WARNING,
                "box %r has kind %r with no registered EMST operation "
                "properties" % (box.name, box.kind),
                box=box,
                hint="customizers must call repro.magic.properties."
                "register_operation",
            )
            return
        if operation_properties(box.kind).amq:
            return
        for quantifier in box.quantifiers:
            if quantifier.is_magic:
                self.emit(
                    report,
                    "QGM404",
                    Severity.ERROR,
                    "NMQ box %r (kind %s) received an inserted magic "
                    "quantifier %r" % (box.name, box.kind, quantifier.name),
                    box=box,
                    quantifier=quantifier.name,
                    hint="NMQ operations may only *link* magic tables and "
                    "pass them down",
                )

    def _check_stratification(self, context, box, report) -> None:
        component = context.recursive_component_of(box)
        if component is None:
            return
        members = {id(member) for member in component}
        if box.kind == BoxKind.GROUPBY:
            self.emit(
                report,
                "QGM406",
                Severity.ERROR,
                "groupby box %r sits inside a recursive component "
                "(unstratified aggregation)" % box.name,
                box=box,
                hint="aggregates must be evaluated in a stratum above the "
                "recursion",
            )
        for quantifier in box.quantifiers:
            if (
                quantifier.qtype == QuantifierType.ANTI
                and id(quantifier.input_box) in members
            ):
                self.emit(
                    report,
                    "QGM407",
                    Severity.ERROR,
                    "anti quantifier %r of box %r ranges over box %r inside "
                    "the same recursive component (unstratified negation)"
                    % (quantifier.name, box.name, quantifier.input_box.name),
                    box=box,
                    quantifier=quantifier.name,
                )
