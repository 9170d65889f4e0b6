"""Nullability dataflow under SQL's three-valued logic.

A fact is a :class:`NullFact`: two frozensets of lower-cased output column
names — columns proven NOT NULL in every row, and columns proven *always*
NULL. Sources of not-nullness:

* base-table ``NOT NULL`` constraints (primary-key columns are implicitly
  not-null),
* *null-rejecting* predicates: under 3VL a comparison (or LIKE) with a
  NULL operand yields UNKNOWN and the row is filtered, so a column
  referenced by a conjunct comparison is not-null in the rows that
  survive — unless the reference sits under an expression that can mask
  the NULL (``CASE``, scalar functions, ``IS NULL`` itself),
* strict expression propagation (arithmetic over not-null operands is
  not-null; ``x IS NULL`` is always not-null, ``COUNT`` is always
  not-null, ...).

Nullability *producers*: scalar subquery quantifiers (an empty match binds
NULL), the non-preserved side of an outer join, aggregates over possibly
empty groups (global aggregation), and NULL literals (the source of
always-null columns).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Set, Tuple

from repro.qgm.facts.engine import BoxAnalysis, solve
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, QuantifierType

_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
#: Expression nodes that can turn a NULL operand into a non-NULL result
#: (so references under them are not grounded by null-rejecting filters).
_MASKING = (qe.QCase, qe.QFunc, qe.QIsNull, qe.QAggregate)


class NullFact(NamedTuple):
    """Per-box nullability claims (lower-cased output column names)."""

    notnull: FrozenSet[str]
    allnull: FrozenSet[str]


_EMPTY = NullFact(frozenset(), frozenset())


def _all_columns(box) -> FrozenSet[str]:
    return frozenset(name.lower() for name in box.column_names)


class NullabilityAnalysis(BoxAnalysis):
    """Infers NOT-NULL and always-NULL output columns per box."""

    name = "nullflow"

    def top(self, box) -> NullFact:
        columns = _all_columns(box)
        return NullFact(columns, columns)

    def bottom(self, box) -> NullFact:
        return _EMPTY

    def transfer(self, box, facts: Dict[int, NullFact]) -> NullFact:
        if box.kind == BoxKind.BASE:
            return self._base_fact(box)
        if box.kind == BoxKind.SELECT:
            return self._select_fact(box, facts)
        if box.kind == BoxKind.GROUPBY:
            return self._groupby_fact(box, facts)
        if box.kind == BoxKind.UNION:
            return self._setop_fact(box, facts, require_all=True)
        if box.kind == BoxKind.INTERSECT:
            return self._setop_fact(box, facts, require_all=False)
        if box.kind == BoxKind.EXCEPT:
            if not box.quantifiers:
                return _EMPTY
            return self._positional_fact(box, box.quantifiers[0], facts)
        if box.kind == BoxKind.OUTERJOIN:
            return self._outerjoin_fact(box, facts)
        return _EMPTY

    # -- per-kind transfers ---------------------------------------------------

    @staticmethod
    def _base_fact(box) -> NullFact:
        if box.schema is None:
            return _EMPTY
        available = {name.lower() for name in box.column_names}
        notnull: Set[str] = set()
        for column in box.schema.columns:
            if getattr(column, "not_null", False):
                notnull.add(column.name.lower())
        if box.schema.primary_key:
            notnull.update(part.lower() for part in box.schema.primary_key)
        return NullFact(frozenset(notnull & available), frozenset())

    def _select_fact(self, box, facts) -> NullFact:
        grounded = self._null_rejected_refs(box)
        notnull: Set[str] = set()
        allnull: Set[str] = set()
        for column in box.columns:
            if column.expr is None:
                continue
            name = column.name.lower()
            if self._expr_not_null(column.expr, facts, grounded):
                notnull.add(name)
            if self._expr_all_null(column.expr, facts):
                allnull.add(name)
        return NullFact(frozenset(notnull), frozenset(allnull))

    def _groupby_fact(self, box, facts) -> NullFact:
        notnull: Set[str] = set()
        allnull: Set[str] = set()
        grounded: Set[Tuple[int, str]] = set()
        # With group keys every emitted group holds at least one row, so
        # SUM/MIN/MAX/AVG over a not-null argument cannot be NULL. Global
        # aggregation (no group keys) emits one row even for empty input,
        # where every aggregate but COUNT is NULL.
        grouped = bool(box.group_keys)
        for column in box.columns:
            name = column.name.lower()
            expr = column.expr
            if expr is None:
                continue
            if isinstance(expr, qe.QAggregate):
                if expr.func == "COUNT":
                    notnull.add(name)
                elif grouped and expr.arg is not None and self._expr_not_null(
                    expr.arg, facts, grounded
                ):
                    notnull.add(name)
                if (
                    expr.func != "COUNT"
                    and expr.arg is not None
                    and self._expr_all_null(expr.arg, facts)
                ):
                    allnull.add(name)
            else:
                if self._expr_not_null(expr, facts, grounded):
                    notnull.add(name)
                if self._expr_all_null(expr, facts):
                    allnull.add(name)
        return NullFact(frozenset(notnull), frozenset(allnull))

    def _setop_fact(self, box, facts, require_all: bool) -> NullFact:
        """UNION needs a claim in every branch; INTERSECT/EXCEPT inherit a
        claim from any branch (the output is a sub-multiset of each)."""
        branch_facts = [
            self._positional_fact(box, quantifier, facts)
            for quantifier in box.quantifiers
        ]
        if not branch_facts:
            return _EMPTY
        notnull = set(branch_facts[0].notnull)
        allnull = set(branch_facts[0].allnull)
        for fact in branch_facts[1:]:
            if require_all:
                notnull &= fact.notnull
                allnull &= fact.allnull
            else:
                notnull |= fact.notnull
                allnull |= fact.allnull
        return NullFact(frozenset(notnull), frozenset(allnull))

    @staticmethod
    def _positional_fact(box, quantifier, facts) -> NullFact:
        child = quantifier.input_box
        fact = facts.get(id(child))
        if fact is None:
            return _EMPTY
        child_names = [c.name.lower() for c in child.columns]
        own_names = [c.name.lower() for c in box.columns]
        notnull: Set[str] = set()
        allnull: Set[str] = set()
        for index, own in enumerate(own_names):
            if index >= len(child_names):
                continue
            if child_names[index] in fact.notnull:
                notnull.add(own)
            if child_names[index] in fact.allnull:
                allnull.add(own)
        return NullFact(frozenset(notnull), frozenset(allnull))

    def _outerjoin_fact(self, box, facts) -> NullFact:
        if len(box.quantifiers) != 2:
            return _EMPTY
        right = box.quantifiers[1]
        # Null-extension makes every right-side column nullable; the ON
        # condition does not filter preserved rows, so no null-rejection.
        masked = dict(facts)
        right_fact = facts.get(id(right.input_box), _EMPTY)
        masked[id(right.input_box)] = NullFact(frozenset(), right_fact.allnull)
        grounded: Set[Tuple[int, str]] = set()
        notnull: Set[str] = set()
        allnull: Set[str] = set()
        for column in box.columns:
            if column.expr is None:
                continue
            name = column.name.lower()
            if self._expr_not_null(column.expr, masked, grounded):
                notnull.add(name)
            if self._expr_all_null(column.expr, facts):
                allnull.add(name)
        return NullFact(frozenset(notnull), frozenset(allnull))

    # -- null-rejecting predicates --------------------------------------------

    def _null_rejected_refs(self, box) -> Set[Tuple[int, str]]:
        """``(id(quantifier), column)`` pairs a surviving row cannot hold
        NULL in, because a conjunct comparison references them strictly."""
        rejected: Set[Tuple[int, str]] = set()
        for predicate in box.predicates:
            for conjunct in qe.conjuncts(predicate):
                self._collect_null_rejected(conjunct, rejected)
        return rejected

    def _collect_null_rejected(self, conjunct, rejected) -> None:
        if isinstance(conjunct, qe.QBinary):
            if conjunct.op == "AND":
                self._collect_null_rejected(conjunct.left, rejected)
                self._collect_null_rejected(conjunct.right, rejected)
                return
            if conjunct.op in _COMPARISONS:
                self._collect_strict_refs(conjunct.left, rejected)
                self._collect_strict_refs(conjunct.right, rejected)
            return
        if isinstance(conjunct, qe.QLike) and not conjunct.negated:
            self._collect_strict_refs(conjunct.operand, rejected)
            self._collect_strict_refs(conjunct.pattern, rejected)

    def _collect_strict_refs(self, expr, rejected) -> None:
        """Column references reached only through null-strict operators."""
        if isinstance(expr, qe.QColRef):
            rejected.add((id(expr.quantifier), expr.column.lower()))
            return
        if isinstance(expr, _MASKING):
            return
        if isinstance(expr, qe.QBinary) and expr.op in ("AND", "OR"):
            return
        for child in expr.children():
            self._collect_strict_refs(child, rejected)

    # -- expression nullability -----------------------------------------------

    def _ref_not_null(self, ref, facts, grounded) -> bool:
        quantifier = ref.quantifier
        if (id(quantifier), ref.column.lower()) in grounded:
            return True
        if quantifier.qtype == QuantifierType.SCALAR or quantifier.decorrelated:
            # An empty scalar-subquery match binds NULL.
            return False
        fact = facts.get(id(quantifier.input_box))
        return fact is not None and ref.column.lower() in fact.notnull

    def _expr_not_null(self, expr, facts, grounded) -> bool:
        if isinstance(expr, qe.QLiteral):
            return expr.value is not None
        if isinstance(expr, qe.QColRef):
            return self._ref_not_null(expr, facts, grounded)
        if isinstance(expr, qe.QIsNull):
            return True  # IS [NOT] NULL never yields NULL
        if isinstance(expr, qe.QUnary):
            return self._expr_not_null(expr.operand, facts, grounded)
        if isinstance(expr, qe.QBinary):
            # Strict for arithmetic/comparison/concat; conservative (still
            # requiring both operands) for AND/OR three-valued logic.
            return self._expr_not_null(
                expr.left, facts, grounded
            ) and self._expr_not_null(expr.right, facts, grounded)
        if isinstance(expr, qe.QLike):
            return self._expr_not_null(
                expr.operand, facts, grounded
            ) and self._expr_not_null(expr.pattern, facts, grounded)
        if isinstance(expr, qe.QCase):
            if expr.default is None:
                return False  # a missing ELSE yields NULL
            values = [value for _, value in expr.branches] + [expr.default]
            return all(
                self._expr_not_null(value, facts, grounded) for value in values
            )
        return False  # QFunc, QAggregate outside groupby: unknown

    def _expr_all_null(self, expr, facts) -> bool:
        if isinstance(expr, qe.QLiteral):
            return expr.value is None
        if isinstance(expr, qe.QColRef):
            fact = facts.get(id(expr.quantifier.input_box))
            return fact is not None and expr.column.lower() in fact.allnull
        if isinstance(expr, qe.QUnary) and expr.op != "NOT":
            return self._expr_all_null(expr.operand, facts)
        if isinstance(expr, qe.QBinary) and expr.op in ("+", "-", "*", "/", "%", "||"):
            return self._expr_all_null(expr.left, facts) or self._expr_all_null(
                expr.right, facts
            )
        return False


def solve_nullability(root_box) -> Dict[int, NullFact]:
    """Solve nullability over everything reachable from ``root_box``."""
    return solve(NullabilityAnalysis(), [root_box])


def null_rejecting_refs(predicates) -> Set[Tuple[int, str]]:
    """References a row surviving all of ``predicates`` cannot hold NULL in."""
    analysis = NullabilityAnalysis()
    rejected: Set[Tuple[int, str]] = set()
    for predicate in predicates:
        for conjunct in qe.conjuncts(predicate):
            analysis._collect_null_rejected(conjunct, rejected)
    return rejected


def strict_refs(expr) -> Set[Tuple[int, str]]:
    """References reached only through null-strict operators in ``expr``
    (a NULL in any of them forces the whole expression to NULL)."""
    refs: Set[Tuple[int, str]] = set()
    NullabilityAnalysis()._collect_strict_refs(expr, refs)
    return refs
