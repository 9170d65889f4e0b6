"""Binding-propagation dataflow: which output columns are *bound*.

A fact is a frozenset of lower-cased output column names whose values are
restricted to a binding set — values flowing out of a magic table, a
constant, or a column already proven bound in a child box. This is the
semantic property a ``b`` letter in an adornment (:mod:`repro.magic.
adornment`) claims, so the analysis is what lets :mod:`repro.analysis.
dataflow_checks` audit every adornment ``adorn.py`` produced.

Transfer functions:

* magic / condition-magic boxes — every column is bound by construction
  (the box *is* the binding set).
* SELECT (and supplementary boxes, which are selects) — *grounded-reference
  closure*: references to magic quantifiers and to bound child columns are
  grounded; an equality conjunct whose one side is fully grounded grounds
  a plain column reference on the other side; an output column is bound
  when its defining expression only uses grounded references (constants
  have none and are trivially bound).
* GROUPBY — a group-key output column is bound when its key expression is
  grounded in the input's fact.
* UNION — bound in every branch (positionally); INTERSECT — bound in any
  branch; EXCEPT — the left branch decides.
* OUTERJOIN — left-side columns inherit the left input's fact (the
  null-extended right side is never bound).

Boxes with a linked magic table additionally get the link's declared
``bound_columns`` — the restriction exists even before pass-down rewires
it into the branches.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.qgm.facts.engine import BoxAnalysis, solve
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, MagicRole

BindFact = FrozenSet[str]

_EMPTY: BindFact = frozenset()


def _linked_magic_columns(box) -> Set[str]:
    out: Set[str] = set()
    for magic in box.linked_magic:
        for name in magic.properties.get("bound_columns", []):
            out.add(name.lower())
    return out


class BindingAnalysis(BoxAnalysis):
    """Infers magic/constant-bound output columns per box."""

    name = "bindflow"

    def top(self, box) -> BindFact:
        return frozenset(name.lower() for name in box.column_names)

    def bottom(self, box) -> BindFact:
        return _EMPTY

    def transfer(self, box, facts: Dict[int, BindFact]) -> BindFact:
        if box.magic_role in (MagicRole.MAGIC, MagicRole.CONDITION_MAGIC):
            return frozenset(name.lower() for name in box.column_names)
        bound = _linked_magic_columns(box)
        if box.kind == BoxKind.SELECT:
            bound |= self._select_bound(box, facts)
        elif box.kind == BoxKind.GROUPBY:
            bound |= self._groupby_bound(box, facts)
        elif box.kind == BoxKind.UNION:
            bound |= self._setop_bound(box, facts, require_all=True)
        elif box.kind == BoxKind.INTERSECT:
            bound |= self._setop_bound(box, facts, require_all=False)
        elif box.kind == BoxKind.EXCEPT:
            if box.quantifiers:
                bound |= self._positional_bound(box, box.quantifiers[0], facts)
        elif box.kind == BoxKind.OUTERJOIN:
            bound |= self._outerjoin_bound(box, facts)
        return frozenset(bound)

    # -- per-kind transfers ---------------------------------------------------

    def _select_bound(self, box, facts) -> Set[str]:
        local = set(box.quantifiers)
        grounded_refs: Set[tuple] = set()
        #: Whole expressions equated to a grounded side ("computed join
        #: columns": ``m.mc = f(e.x)`` grounds ``f(e.x)`` even though
        #: ``e.x`` itself stays free).
        grounded_exprs: list = []

        def ref_grounded(ref) -> bool:
            if (id(ref.quantifier), ref.column.lower()) in grounded_refs:
                return True
            quantifier = ref.quantifier
            if quantifier not in local:
                return False  # correlation into an outer box: unknown
            if quantifier.is_magic:
                return True
            # Magic, condition-magic and supplementary boxes *are* binding
            # sets (the supplementary relation holds the restricted outer
            # prefix), so any column drawn from one is a binding value —
            # this is what keeps adornments justified after phase-3 merging
            # replaces the magic quantifier with a join against the shared
            # supplementary box.
            if quantifier.input_box.magic_role != MagicRole.REGULAR:
                return True
            fact = facts.get(id(quantifier.input_box))
            return fact is not None and ref.column.lower() in fact

        def expr_grounded(expr) -> bool:
            if any(qe.expr_equal(expr, known) for known in grounded_exprs):
                return True
            refs = qe.column_refs(expr)
            return all(ref_grounded(ref) for ref in refs)

        equalities = []
        for predicate in box.predicates:
            for conjunct in qe.conjuncts(predicate):
                if isinstance(conjunct, qe.QBinary) and conjunct.op == "=":
                    equalities.append(conjunct)
        for quantifier in box.quantifiers:
            for predicate in quantifier.selector_predicates:
                for conjunct in qe.conjuncts(predicate):
                    if isinstance(conjunct, qe.QBinary) and conjunct.op == "=":
                        equalities.append(conjunct)

        changed = True
        while changed:
            changed = False
            for equality in equalities:
                sides = (
                    (equality.left, equality.right),
                    (equality.right, equality.left),
                )
                for side, other in sides:
                    if expr_grounded(side):
                        continue
                    if not expr_grounded(other):
                        continue
                    if isinstance(side, qe.QColRef):
                        grounded_refs.add(
                            (id(side.quantifier), side.column.lower())
                        )
                    else:
                        grounded_exprs.append(side)
                    changed = True

        return {
            column.name.lower()
            for column in box.columns
            if column.expr is not None and expr_grounded(column.expr)
        }

    @staticmethod
    def _groupby_bound(box, facts) -> Set[str]:
        if not box.quantifiers:
            return set()
        input_box = box.quantifiers[0].input_box
        fact = facts.get(id(input_box), _EMPTY)
        out: Set[str] = set()
        for column in box.columns:
            expr = column.expr
            if expr is None or isinstance(expr, qe.QAggregate):
                continue
            refs = qe.column_refs(expr)
            if refs and all(ref.column.lower() in fact for ref in refs):
                out.add(column.name.lower())
        return out

    def _setop_bound(self, box, facts, require_all: bool) -> Set[str]:
        branch_facts = [
            self._positional_bound(box, quantifier, facts)
            for quantifier in box.quantifiers
        ]
        if not branch_facts:
            return set()
        out = set(branch_facts[0])
        for fact in branch_facts[1:]:
            if require_all:
                out &= fact
            else:
                out |= fact
        return out

    @staticmethod
    def _positional_bound(box, quantifier, facts) -> Set[str]:
        child = quantifier.input_box
        fact = facts.get(id(child), _EMPTY)
        child_names = [c.name.lower() for c in child.columns]
        out: Set[str] = set()
        for index, column in enumerate(box.columns):
            if index < len(child_names) and child_names[index] in fact:
                out.add(column.name.lower())
        return out

    @staticmethod
    def _outerjoin_bound(box, facts) -> Set[str]:
        if len(box.quantifiers) != 2:
            return set()
        left = box.quantifiers[0]
        fact = facts.get(id(left.input_box), _EMPTY)
        out: Set[str] = set()
        for column in box.columns:
            if column.expr is None:
                continue
            refs = qe.column_refs(column.expr)
            if refs and all(
                ref.quantifier is left and ref.column.lower() in fact
                for ref in refs
            ):
                out.add(column.name.lower())
        return out


def solve_bindings(root_box) -> Dict[int, BindFact]:
    """Solve binding propagation over everything reachable from ``root_box``."""
    return solve(BindingAnalysis(), [root_box])
