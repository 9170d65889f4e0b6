"""The catalog maps table names to schemas, statistics and view definitions.

Views registered in the catalog are stored as SQL text plus parsed AST and
expanded by the QGM builder; base tables own a :class:`TableSchema` and a
:class:`TableStatistics`.
"""

from __future__ import annotations

import contextlib

from repro.catalog.schema import ColumnDef, TableSchema
from repro.catalog.statistics import TableStatistics
from repro.errors import CatalogError


class Catalog:
    """Name → schema/statistics/view registry (names are case-insensitive)."""

    def __init__(self):
        self._tables = {}
        self._statistics = {}
        self._views = {}
        #: Monotonic DDL version: bumped by every schema change (table or
        #: view added, view dropped). Plan caches key on it so DDL
        #: *invalidates* cached plans instead of corrupting them.
        self.version = 0

    def __deepcopy__(self, memo):
        # Query graphs and databases hold a catalog reference; deep-copying
        # one of them must share the catalog, not duplicate it (graph
        # snapshots use qgm.clone.clone_graph, which shares it too).
        return self

    # -- base tables ---------------------------------------------------------

    def add_table(self, schema):
        """Register a base table schema (with empty statistics).

        Foreign keys whose target table is already in the catalog are
        validated eagerly (the referenced columns must exist and cover a
        declared key — SQL requires FK targets to be PRIMARY KEY or
        UNIQUE). Targets registered later are validated lazily by the
        dependency collector.
        """
        key = schema.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError("table or view %r already defined" % schema.name)
        for fk in getattr(schema, "foreign_keys", []):
            parent = self._tables.get(fk.ref_table.lower())
            if parent is None:
                continue
            for column in fk.ref_columns:
                if not parent.has_column(column):
                    raise CatalogError(
                        "%s on table %r: no column %r in table %r"
                        % (fk.describe(), schema.name, column, parent.name)
                    )
            if not parent.is_unique_on(fk.ref_columns):
                raise CatalogError(
                    "%s on table %r: referenced columns do not cover a "
                    "declared key of %r"
                    % (fk.describe(), schema.name, parent.name)
                )
        self._tables[key] = schema
        self._statistics[key] = TableStatistics()
        self.version += 1
        return schema

    def define_table(self, name, column_names, primary_key=None, unique_keys=None):
        """Convenience: register a table from bare column names."""
        schema = TableSchema(
            name=name,
            columns=[ColumnDef(name=c) for c in column_names],
            primary_key=tuple(primary_key) if primary_key else None,
            unique_keys=[tuple(k) for k in (unique_keys or [])],
        )
        return self.add_table(schema)

    def has_table(self, name):
        return name.lower() in self._tables

    def table(self, name):
        schema = self._tables.get(name.lower())
        if schema is None:
            raise CatalogError("unknown table %r" % name)
        return schema

    def tables(self):
        """All registered base-table schemas."""
        return list(self._tables.values())

    # -- statistics ----------------------------------------------------------

    def set_statistics(self, name, statistics):
        if name.lower() not in self._tables:
            raise CatalogError("unknown table %r" % name)
        self._statistics[name.lower()] = statistics

    def statistics(self, name):
        stats = self._statistics.get(name.lower())
        if stats is None:
            raise CatalogError("no statistics for table %r" % name)
        return stats

    # -- views ---------------------------------------------------------------

    def add_view(self, view):
        """Register a parsed ``CREATE VIEW`` statement."""
        key = view.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError("table or view %r already defined" % view.name)
        self._views[key] = view
        self.version += 1
        return view

    def drop_view(self, name):
        if self._views.pop(name.lower(), None) is not None:
            self.version += 1

    @contextlib.contextmanager
    def scoped_views(self, views):
        """Register ``views`` for the duration of the ``with`` block only.

        Statement-scoped inline views (a query script that carries its own
        CREATE VIEWs) are not durable DDL, so — unlike :meth:`add_view` /
        :meth:`drop_view` — this does **not** bump :attr:`version`: a plan
        cache keyed on the catalog version must not be invalidated by
        every statement that happens to ship helper views.
        """
        added = []
        try:
            for view in views:
                key = view.name.lower()
                if key in self._tables or key in self._views:
                    raise CatalogError(
                        "table or view %r already defined" % view.name
                    )
                self._views[key] = view
                added.append(key)
            yield
        finally:
            for key in added:
                self._views.pop(key, None)

    def has_view(self, name):
        return name.lower() in self._views

    def view(self, name):
        view = self._views.get(name.lower())
        if view is None:
            raise CatalogError("unknown view %r" % name)
        return view

    def views(self):
        return list(self._views.values())

    def resolve(self, name):
        """Return ("table", schema) or ("view", view) for ``name``."""
        key = name.lower()
        if key in self._tables:
            return ("table", self._tables[key])
        if key in self._views:
            return ("view", self._views[key])
        raise CatalogError("unknown table or view %r" % name)
