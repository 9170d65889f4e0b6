"""Catalog: table schemas, keys and optimizer statistics."""

from repro.catalog.schema import ColumnDef, ForeignKey, TableSchema
from repro.catalog.catalog import Catalog
from repro.catalog.statistics import (
    ColumnStatistics,
    TableStatistics,
    column_statistics,
    compute_statistics,
)

__all__ = [
    "ColumnDef",
    "ForeignKey",
    "TableSchema",
    "Catalog",
    "ColumnStatistics",
    "TableStatistics",
    "column_statistics",
    "compute_statistics",
]
