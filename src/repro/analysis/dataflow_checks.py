"""Dataflow-backed diagnostics (codes ``QGM5xx``).

Runs the three interbox dataflow analyses (:mod:`repro.qgm.facts` and
:mod:`repro.analysis.bindflow`)
over the graph and audits what the rest of the system *claims* against
what the fixpoint can *prove*:

* ``QGM501`` — an adornment letter (``b``/``c`` from :mod:`repro.magic.
  adorn`) with no justifying binding: the column is neither proven bound
  by the binding-propagation analysis, nor covered by a linked magic
  table, nor restricted by any consumer-side predicate. Warning: the
  transformed query is still correct (magic only ever filters), but the
  adornment describes a restriction that does not exist.
* ``QGM502`` — a box enforces DISTINCT although the key analysis proves
  its output duplicate-free without the enforcement. Info: the
  enforcement is wasted work the distinct-pullup rule can remove.
* ``QGM503`` — an output column is provably NULL in every row. Warning:
  predicates over it can never be satisfied under 3VL.

The inferred facts are published for other passes and API consumers:
``context.facts["dataflow_keys"]``, ``["dataflow_nullability"]`` and
``["dataflow_bindings"]`` (each ``id(box) -> fact``).
"""

from __future__ import annotations

from typing import Set

from repro.analysis.bindflow import solve_bindings
from repro.analysis.diagnostics import Severity
from repro.analysis.framework import AnalysisContext, AnalysisPass, AnalysisReport
from repro.magic.adornment import BOUND, CONDITIONED
from repro.qgm import expr as qe
from repro.qgm.facts.keyflow import solve_box_keys, solve_keys
from repro.qgm.facts.nullflow import solve_nullability
from repro.qgm.model import DistinctMode, QuantifierType


class DataflowPass(AnalysisPass):
    """Audit adornments, DISTINCT enforcements and nullability claims."""

    name = "dataflow"

    def __init__(self, check_redundant_distinct: bool = True):
        #: The redundant-DISTINCT check runs one extra fixpoint per
        #: enforcing box; the soundness checker (which re-runs passes after
        #: every rule firing) disables it.
        self.check_redundant_distinct = check_redundant_distinct

    def run(self, context: AnalysisContext, report: AnalysisReport) -> None:
        bindings = solve_bindings(context.graph.top_box)
        nullability = solve_nullability(context.graph.top_box)
        keys = solve_keys(context.graph.top_box)
        context.facts["dataflow_bindings"] = bindings
        context.facts["dataflow_nullability"] = nullability
        context.facts["dataflow_keys"] = keys

        for box in context.boxes:
            if box.adornment:
                self._check_adornment(context, box, bindings, report)
            fact = nullability.get(id(box))
            if fact is not None:
                for name in sorted(fact.allnull):
                    self.emit(
                        report,
                        "QGM503",
                        Severity.WARNING,
                        "column %r is NULL in every row; comparisons over it "
                        "can never hold" % name,
                        box=box,
                        column=name,
                        hint="drop the column or the predicates using it",
                    )
            if (
                self.check_redundant_distinct
                and box.distinct == DistinctMode.ENFORCE
            ):
                self._check_redundant_distinct(box, report)

    # -- QGM501: adornment audit ----------------------------------------------

    def _check_adornment(self, context, box, bindings, report) -> None:
        adornment = box.adornment
        if len(adornment) != len(box.columns):
            return  # QGM401 (magic well-formedness) already reports this
        bound_fact = bindings.get(id(box), frozenset())
        linked = self._linked_columns(box)
        consumers = context.consumers.get(id(box), [])
        for position, letter in enumerate(adornment):
            if letter not in (BOUND, CONDITIONED):
                continue
            name = box.columns[position].name.lower()
            if name in bound_fact or name in linked:
                continue
            if self._consumer_restricts(
                consumers, name, equality_only=(letter == BOUND)
            ):
                continue
            if letter == CONDITIONED and self._has_condition_magic(box):
                continue
            self.emit(
                report,
                "QGM501",
                Severity.WARNING,
                "adornment %r claims column %r is %s, but no binding path "
                "reaches it (not bound by dataflow, no linked magic, no "
                "consumer predicate)"
                % (
                    str(adornment),
                    name,
                    "bound" if letter == BOUND else "conditioned",
                ),
                box=box,
                column=name,
                hint="the restriction was dropped; re-derive the adornment",
            )

    @staticmethod
    def _linked_columns(box) -> Set[str]:
        out: Set[str] = set()
        for magic in box.linked_magic:
            for name in magic.properties.get("bound_columns", []):
                out.add(name.lower())
        return out

    @staticmethod
    def _has_condition_magic(box) -> bool:
        return any(
            quantifier.is_magic
            and quantifier.qtype == QuantifierType.EXISTENTIAL
            for quantifier in box.quantifiers
        )

    @staticmethod
    def _consumer_restricts(consumers, column, equality_only) -> bool:
        """True when some consumer of the box restricts ``column`` of its
        quantifier: an equality (for ``b``) or any predicate (for ``c``)
        over ``q.column`` whose other references leave ``q`` out."""
        for quantifier in consumers:
            parent = quantifier.parent_box
            if parent is None:
                continue
            candidates = list(parent.predicates) + list(
                quantifier.selector_predicates
            )
            for predicate in candidates:
                for conjunct in qe.conjuncts(predicate):
                    if equality_only:
                        if not (
                            isinstance(conjunct, qe.QBinary)
                            and conjunct.op == "="
                        ):
                            continue
                        sides = (
                            (conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left),
                        )
                        for side, other in sides:
                            if (
                                isinstance(side, qe.QColRef)
                                and side.quantifier is quantifier
                                and side.column.lower() == column
                                and not any(
                                    ref.quantifier is quantifier
                                    for ref in qe.column_refs(other)
                                )
                            ):
                                return True
                    else:
                        if any(
                            ref.quantifier is quantifier
                            and ref.column.lower() == column
                            for ref in qe.column_refs(conjunct)
                        ):
                            return True
        return False

    # -- QGM502: redundant DISTINCT -------------------------------------------

    def _check_redundant_distinct(self, box, report) -> None:
        keys = solve_box_keys(box, ignore_enforce=True)
        if not keys:
            return
        witness = sorted(min(keys, key=len))
        self.emit(
            report,
            "QGM502",
            Severity.INFO,
            "DISTINCT enforcement is redundant: the output is duplicate-free "
            "on key {%s}" % ", ".join(witness),
            box=box,
            hint="the distinct-pullup rule can relax this to PERMIT",
        )
