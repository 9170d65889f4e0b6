"""Optimizer statistics, in the System-R style the paper's plan optimizer
[SAC+79] relies on: per-table cardinality and per-column distinct counts and
value ranges. Statistics are computed from the stored data by ``ANALYZE``
(:func:`compute_statistics`) or supplied synthetically by workload code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ColumnStatistics:
    """Statistics for one column."""

    distinct_count: int = 1
    null_count: int = 0
    min_value: Optional[object] = None
    max_value: Optional[object] = None


@dataclass
class TableStatistics:
    """Statistics for one table."""

    row_count: int = 0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name):
        """Statistics for ``name`` (case-insensitive), defaulting sensibly."""
        stats = self.columns.get(name.lower())
        if stats is not None:
            return stats
        # Unknown column: assume everything is distinct, the conservative
        # System-R default for key-like columns.
        return ColumnStatistics(distinct_count=max(self.row_count, 1))


def _comparable(values):
    """Filter to values that can be min/max'd together (single type class)."""
    non_null = [v for v in values if v is not None]
    if not non_null:
        return []
    numeric = [v for v in non_null if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(numeric) == len(non_null):
        return numeric
    strings = [v for v in non_null if isinstance(v, str)]
    if len(strings) == len(non_null):
        return strings
    return []


_NONE = type(None)
#: Value-type sets whose values all min/max together; any other set
#: (bools, subclasses, a mix of classes) goes through :func:`_comparable`.
_ORDERED = (frozenset({int}), frozenset({float}), frozenset({int, float}),
            frozenset({str}))


def column_statistics(values):
    """:class:`ColumnStatistics` of one column's stored value list."""
    types = set(map(type, values))
    if _NONE in types:
        types.discard(_NONE)
        non_null = [v for v in values if v is not None]
    else:
        non_null = values
    if types in _ORDERED:
        comparable = non_null
    else:
        comparable = _comparable(non_null)
    return ColumnStatistics(
        distinct_count=max(len(set(non_null)), 1),
        null_count=len(values) - len(non_null),
        min_value=min(comparable) if comparable else None,
        max_value=max(comparable) if comparable else None,
    )


def compute_statistics(schema, columns):
    """Compute :class:`TableStatistics` from ``columns``, one stored value
    list per column of ``schema`` (what ``Table.column_blocks`` returns)."""
    stats = TableStatistics(row_count=len(columns[0]) if columns else 0)
    for column, values in zip(schema.columns, columns):
        stats.columns[column.name.lower()] = column_statistics(values)
    return stats
