"""Cardinality and column-statistics estimation over QGM boxes.

The estimator walks the graph bottom-up with memoisation, propagating
row-count and per-column distinct-count estimates through selects,
group-bys and set operations, in the System-R tradition: equality to a
constant selects ``1/V`` of the rows, an equijoin selects
``1/max(V_left, V_right)``, a range predicate selects 1/3.

The estimator also consults the interbox dataflow fixpoints
(:mod:`repro.qgm.facts`), memoised per instance — an estimator
given a ``root`` solves the key analysis once over the root's whole
subgraph instead of once per box it is asked about:

* a column proven to be a *key* of its box has exactly one distinct value
  per row, so its distinct count is pinned to the box's row estimate;
* ``IS [NOT] NULL`` over a column proven NOT NULL is decided, not guessed;
* the duplicate-shrink factor of ``DISTINCT`` enforcement is skipped when
  the key analysis proves the output duplicate-free without it.

Predicate lists the interpreted comparison domain
(:mod:`repro.qgm.facts.domains`) proves contradictory — the
``QGM604`` condition — estimate to exactly 0.0 rows instead of a
product of selectivities.

Everything the join-order enumeration asks repeatedly is worked out once
per estimator: each box's predicate footprints (which foreach quantifiers
a predicate needs, see :meth:`CardinalityEstimator.applicable_predicates`)
and each predicate's top-level selectivity.

The estimator reads the catalog's statistics in exactly two places — a
base table's row count and a base column's distinct count and range —
both through :func:`read_statistic`, and records every value it read in
:attr:`CardinalityEstimator.statistics_read`. An estimate, and so a plan,
is a function of the graph and those values alone: a plan whose recorded
values all still read the same (:func:`moved_tables`) is the plan a fresh
optimization would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.qgm import expr as qe
from repro.qgm.facts import domains
from repro.qgm.facts.keyflow import is_duplicate_free, solve_keys
from repro.qgm.facts.nullflow import solve_nullability
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType

EQ_DEFAULT = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
LIKE_SELECTIVITY = 0.1
NOT_NULL_SELECTIVITY = 0.9
SEMI_JOIN_SELECTIVITY = 0.5
OR_CAP = 0.9
#: A recursive component is estimated as its non-recursive seed times this
#: fan-out factor (re-entrant references contribute one seed row). Crude,
#: but it ranks a magic-restricted closure correctly against computing the
#: closure of everything.
RECURSION_FAN = 10.0


def read_statistic(catalog, table, column=None):
    """The statistic the estimator reads: ``table``'s row count when
    ``column`` is None, else the column's ``(distinct count, min, max,
    type of min, type of max)`` — ``1`` and ``1.0`` are equal values but
    not the same reading."""
    stats = catalog.statistics(table)
    if column is None:
        return stats.row_count
    stats = stats.column(column)
    low, high = stats.min_value, stats.max_value
    return (stats.distinct_count, low, high, type(low), type(high))


def moved_tables(statistics_read, catalog):
    """The tables (sorted) some of whose ``statistics_read`` (``{(table,
    column or None) -> reading}``, as recorded by an estimator) no longer
    read the same from ``catalog``."""
    moved = set()
    for (table, column), reading in statistics_read.items():
        if table not in moved and read_statistic(catalog, table, column) != reading:
            moved.add(table)
    return sorted(moved)


@dataclass
class ColumnEstimate:
    """Estimated statistics of one (box, column)."""

    distinct: float = 1.0
    min_value: Optional[object] = None
    max_value: Optional[object] = None


class CardinalityEstimator:
    """Estimates row counts of boxes and selectivities of predicates."""

    def __init__(self, catalog, root=None):
        self.catalog = catalog
        #: Box whose reachable subgraph the key analysis is solved over on
        #: the first key question (boxes outside it are solved from
        #: themselves).
        self.root = root
        self._rows = {}
        self._columns = {}
        self._cyclic = {}
        self._key_facts = {}
        self._null_facts = {}
        self._dupfree = {}
        self._contradictory = {}
        self._footprints = {}
        self._selectivities = {}
        #: ``{(table, column or None) -> reading}`` of every statistic
        #: read so far (see :func:`read_statistic`), names lower-cased.
        self.statistics_read = {}

    def _read(self, table, column=None):
        key = (table.lower(), None if column is None else column.lower())
        reading = read_statistic(self.catalog, *key)
        self.statistics_read[key] = reading
        return reading

    # -- dataflow facts -------------------------------------------------------

    def box_keys(self, box):
        """Fixpoint-derived unique keys of ``box`` (tuple of frozensets of
        lower-cased column names), memoised for the whole solved subgraph."""
        cached = self._key_facts.get(id(box))
        if cached is None:
            roots = [box]
            if self.root is not None and not self._key_facts:
                roots.insert(0, self.root)
            for root in roots:
                try:
                    solved = solve_keys(root)
                except Exception:
                    solved = {}
                for box_id, fact in solved.items():
                    self._key_facts.setdefault(box_id, fact)
                if id(box) in self._key_facts:
                    break
            cached = self._key_facts.setdefault(id(box), ())
        return cached

    def notnull_columns(self, box):
        """Columns of ``box`` proven NOT NULL by the nullability fixpoint."""
        cached = self._null_facts.get(id(box))
        if cached is None:
            try:
                solved = solve_nullability(box)
            except Exception:
                solved = {}
            for box_id, fact in solved.items():
                self._null_facts.setdefault(box_id, fact.notnull)
            cached = self._null_facts.setdefault(id(box), frozenset())
        return cached

    def _enforcement_redundant(self, box):
        """True when ``box``'s DISTINCT enforcement removes nothing (its
        output is duplicate-free even ignoring the enforcement)."""
        cached = self._dupfree.get(id(box))
        if cached is None:
            try:
                cached = is_duplicate_free(box, ignore_enforce=True)
            except Exception:
                cached = False
            self._dupfree[id(box)] = cached
        return cached

    def _predicates_contradictory(self, predicates):
        """True when the interval domain proves ``predicates`` admit no
        row (memoised per predicate list: DP enumeration re-asks often)."""
        key = tuple(id(p) for p in predicates)
        cached = self._contradictory.get(key)
        if cached is None:
            try:
                cached = domains.predicates_unsatisfiable(predicates)
            except Exception:
                cached = False
            self._contradictory[key] = cached
        return cached

    # -- row counts ---------------------------------------------------------

    def rows(self, box, _visiting=None):
        """Estimated output cardinality of ``box`` (≥ 1.0 for planning)."""
        cached = self._rows.get(id(box))
        if cached is not None:
            return cached
        if _visiting is None:
            _visiting = set()
        if id(box) in _visiting:
            return 1.0  # re-entrant reference contributes one seed row
        _visiting = _visiting | {id(box)}
        estimate = max(self._rows_uncached(box, _visiting), 1.0)
        # The fan factor models fixpoint growth. It is applied once per
        # recursive component — at its union box — not at every member
        # (that would compound). Magic unions converge to roughly the
        # binding set, so they get a much smaller factor; this is what lets
        # the heuristic rank a magic-restricted closure below computing the
        # closure of everything.
        if box.kind == BoxKind.UNION and self._in_cycle(box):
            estimate *= 2.0 if box.is_magic_box else RECURSION_FAN
        self._rows[id(box)] = estimate
        return estimate

    def _in_cycle(self, box):
        cached = self._cyclic.get(id(box))
        if cached is not None:
            return cached
        seen = set()
        stack = [q.input_box for q in box.quantifiers]
        cyclic = False
        while stack:
            current = stack.pop()
            if current is box:
                cyclic = True
                break
            if id(current) in seen:
                continue
            seen.add(id(current))
            for quantifier in current.quantifiers:
                stack.append(quantifier.input_box)
        self._cyclic[id(box)] = cyclic
        return cyclic

    def _rows_uncached(self, box, visiting):
        if box.kind == BoxKind.BASE:
            return float(self._read(box.table_name))
        if box.kind == BoxKind.SELECT:
            return self.select_cardinality(box, visiting)
        if box.kind == BoxKind.GROUPBY:
            quantifier = box.quantifiers[0]
            input_rows = self.rows(quantifier.input_box, visiting)
            if not box.group_keys:
                return 1.0
            product = 1.0
            for key in box.group_keys:
                product *= self.expr_distinct(key, visiting)
            return min(product, input_rows)
        if box.kind == BoxKind.UNION:
            total = sum(self.rows(q.input_box, visiting) for q in box.quantifiers)
            if (
                box.distinct == DistinctMode.ENFORCE
                and not self._enforcement_redundant(box)
            ):
                total *= 0.8
            return total
        if box.kind == BoxKind.INTERSECT:
            return min(
                self.rows(q.input_box, visiting) for q in box.quantifiers
            ) * 0.5
        if box.kind == BoxKind.EXCEPT:
            return self.rows(box.quantifiers[0].input_box, visiting) * 0.5
        if box.kind == BoxKind.OUTERJOIN:
            left = self.rows(box.quantifiers[0].input_box, visiting)
            joined = left * self.rows(box.quantifiers[1].input_box, visiting)
            for predicate in box.predicates:
                joined *= self.selectivity(predicate, visiting)
            # Preserved-side rows always survive.
            return max(left, joined)
        return 1000.0

    def select_cardinality(self, box, visiting=None):
        """Output cardinality of the select box ``box``."""
        if visiting is None:
            visiting = set()
        if box.predicates and self._predicates_contradictory(box.predicates):
            return 0.0
        cardinality = 1.0
        quantifiers = box.foreach_quantifiers()
        for quantifier in quantifiers:
            cardinality *= self.rows(quantifier.input_box, visiting)
        for predicate in self.applicable_predicates(box, set(quantifiers)):
            cardinality *= self.selectivity(predicate, visiting)
        for quantifier in box.quantifiers:
            if quantifier.qtype in (QuantifierType.EXISTENTIAL, QuantifierType.ANTI):
                cardinality *= SEMI_JOIN_SELECTIVITY
        if box.distinct == DistinctMode.ENFORCE and not self._enforcement_redundant(
            box
        ):
            cardinality *= 0.9
        return cardinality

    def applicable_predicates(self, box, available):
        """Predicates of ``box`` fully evaluable over the foreach
        quantifiers in ``available``, in predicate order. A predicate over
        none of the box's quantifiers, or over one of its E/A/S quantifiers
        (those are applied separately), never applies."""
        footprints = self._footprints.get(id(box))
        if footprints is None:
            footprints = []
            local = set(box.quantifiers)
            for predicate in box.predicates:
                needed = {
                    ref.quantifier
                    for ref in qe.column_refs(predicate)
                    if ref.quantifier in local
                }
                if all(q.qtype == QuantifierType.FOREACH for q in needed):
                    footprints.append((predicate, frozenset(needed)))
            self._footprints[id(box)] = footprints
        return [
            predicate
            for predicate, needed in footprints
            if needed and needed <= available
        ]

    # -- column statistics ------------------------------------------------------

    def column(self, box, name, _visiting=None):
        key = (id(box), name.lower())
        cached = self._columns.get(key)
        if cached is not None:
            return cached
        if _visiting is None:
            _visiting = set()
        if (id(box), name.lower()) in _visiting or id(box) in _visiting:
            return ColumnEstimate(distinct=100.0)
        _visiting = _visiting | {key}
        estimate = self._column_uncached(box, name, _visiting)
        if box.kind != BoxKind.BASE and any(
            fact <= {name.lower()} for fact in self.box_keys(box)
        ):
            # The column (alone) is a key: one distinct value per row.
            estimate = ColumnEstimate(
                distinct=self.rows(box, _visiting=_visiting),
                min_value=estimate.min_value,
                max_value=estimate.max_value,
            )
        self._columns[key] = estimate
        return estimate

    def _column_uncached(self, box, name, visiting):
        if box.kind == BoxKind.BASE:
            distinct, low, high, _, _ = self._read(box.table_name, name)
            return ColumnEstimate(
                distinct=float(max(distinct, 1)), min_value=low, max_value=high
            )
        rows = self.rows(box, _visiting=visiting)
        if box.kind in (BoxKind.UNION, BoxKind.INTERSECT, BoxKind.EXCEPT):
            child = box.quantifiers[0].input_box
            position = box.column_ordinal(name)
            child_name = child.columns[position].name
            inner = self.column(child, child_name, visiting)
            return ColumnEstimate(
                distinct=min(inner.distinct * len(box.quantifiers), rows),
                min_value=inner.min_value,
                max_value=inner.max_value,
            )
        column = box.column(name)
        if column.expr is None:
            return ColumnEstimate(distinct=rows)
        inner = self._expr_estimate(column.expr, visiting)
        # Copy before capping: the inner estimate may be a cached object
        # belonging to another (box, column).
        return ColumnEstimate(
            distinct=min(inner.distinct, rows),
            min_value=inner.min_value,
            max_value=inner.max_value,
        )

    def expr_distinct(self, expression, visiting=None):
        return self._expr_estimate(expression, visiting or set()).distinct

    def _expr_estimate(self, expression, visiting):
        if isinstance(expression, qe.QColRef):
            return self.column(
                expression.quantifier.input_box, expression.column, visiting
            )
        if isinstance(expression, qe.QLiteral):
            return ColumnEstimate(
                distinct=1.0,
                min_value=expression.value,
                max_value=expression.value,
            )
        if isinstance(expression, qe.QAggregate):
            return ColumnEstimate(distinct=100.0)
        refs = qe.column_refs(expression)
        if not refs:
            return ColumnEstimate(distinct=1.0)
        product = 1.0
        for ref in refs:
            product *= self.column(
                ref.quantifier.input_box, ref.column, visiting
            ).distinct
        return ColumnEstimate(distinct=product)

    # -- selectivities --------------------------------------------------------------

    def selectivity(self, predicate, visiting=None):
        """Estimated fraction of candidate rows satisfying ``predicate``.

        Top-level calls (no row estimate in progress) are memoised: their
        inputs are estimates that, once cached, never change."""
        if visiting:
            return self._selectivity(predicate, visiting)
        cached = self._selectivities.get(id(predicate))
        if cached is None:
            cached = self._selectivity(predicate, set())
            self._selectivities[id(predicate)] = cached
        return cached

    def _selectivity(self, predicate, visiting):
        if isinstance(predicate, qe.QBinary):
            if predicate.op == "AND":
                return self.selectivity(predicate.left, visiting) * self.selectivity(
                    predicate.right, visiting
                )
            if predicate.op == "OR":
                left = self.selectivity(predicate.left, visiting)
                right = self.selectivity(predicate.right, visiting)
                return min(left + right - left * right, OR_CAP)
            if predicate.op == "=":
                return self._equality_selectivity(predicate, visiting)
            if predicate.op == "<>":
                return 1.0 - self._equality_selectivity(predicate, visiting)
            if predicate.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(predicate, visiting)
        if isinstance(predicate, qe.QUnary) and predicate.op == "NOT":
            return max(1.0 - self.selectivity(predicate.operand, visiting), 0.05)
        if isinstance(predicate, qe.QLike):
            return LIKE_SELECTIVITY if not predicate.negated else 1 - LIKE_SELECTIVITY
        if isinstance(predicate, qe.QIsNull):
            operand = predicate.operand
            if isinstance(operand, qe.QColRef) and operand.column.lower() in (
                self.notnull_columns(operand.quantifier.input_box)
            ):
                # Proven NOT NULL: the test is decided, not estimated.
                return 0.0 if not predicate.negated else 1.0
            return 0.1 if not predicate.negated else NOT_NULL_SELECTIVITY
        return 0.5

    def _range_selectivity(self, predicate, visiting):
        """Range selectivity: min/max interpolation when one side is a
        column with a numeric range and the other a constant; 1/3 default
        (the System-R magic constant) otherwise."""
        for side, other, high_side in (
            (predicate.left, predicate.right, predicate.op in (">", ">=")),
            (predicate.right, predicate.left, predicate.op in ("<", "<=")),
        ):
            if not isinstance(side, qe.QColRef):
                continue
            if not isinstance(other, qe.QLiteral):
                continue
            value = other.value
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            estimate = self._expr_estimate(side, visiting)
            low, high = estimate.min_value, estimate.max_value
            if (
                isinstance(low, (int, float))
                and isinstance(high, (int, float))
                and not isinstance(low, bool)
                and high > low
            ):
                fraction = (value - low) / (high - low)
                fraction = min(max(fraction, 0.0), 1.0)
                # high_side True: the column must be ABOVE the constant.
                selectivity = (1.0 - fraction) if high_side else fraction
                return min(max(selectivity, 0.01), 0.99)
        return RANGE_SELECTIVITY

    def _equality_selectivity(self, predicate, visiting):
        left = self._side_distinct(predicate.left, visiting)
        right = self._side_distinct(predicate.right, visiting)
        if left is None and right is None:
            return EQ_DEFAULT
        if left is None:
            return 1.0 / max(right, 1.0)
        if right is None:
            return 1.0 / max(left, 1.0)
        return 1.0 / max(left, right, 1.0)

    def _side_distinct(self, side, visiting):
        """Distinct count of a comparison side; None for constants."""
        if isinstance(side, qe.QLiteral):
            return None
        return self._expr_estimate(side, visiting).distinct
