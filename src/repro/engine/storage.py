"""In-memory storage: columnar tables plus the database facade.

Tables are stored **column-major**: one Python list per column, with NULL
as ``None``. A row-major view (list of plain tuples laid out per the
table's schema) is materialised lazily and cached, so tuple-at-a-time
consumers — the classic evaluators, the chase — keep working unchanged
while the batch executor and ANALYZE read whole columns without per-row
reconstruction. The :class:`Database` owns a
:class:`~repro.catalog.Catalog` and the column storage, and is the object
users hand to the session API.

This module also defines the access paths the engines read. The one
hash-index format (:func:`build_index`, :func:`index_matches`,
:func:`probe_index`) is shared by the persistent indexes of
:meth:`Table.index_on` and the batch executor's transient ones. The
sorted path of :meth:`Table.sorted_on` (:func:`sorted_path`: a column's
values in ascending order beside their row positions) is what the batch
executor's range joins bisect. Both kinds live in one per-table cache that
every mutation drops.
"""

from __future__ import annotations

from repro.catalog import (
    Catalog,
    TableStatistics,
    column_statistics,
    compute_statistics,
)
from repro.catalog.schema import ColumnDef, ForeignKey, TableSchema
from repro.errors import CatalogError, ExecutionError


#: Keys read from the head of a build before it tries the unique shape:
#: a repeat among them settles "bucketed" at once, so a build over a
#: grouped column pays no pass for the attempt.
UNIQUE_SAMPLE = 64


class UniqueIndex(dict):
    """The unique hash-index shape, ``key -> row``: every key holds
    exactly one row. The bucketed shape is a plain ``dict`` of ``key ->
    [row, ...]``. Consumers read either through :func:`index_matches` or
    :func:`probe_index`, never by shape."""

    __slots__ = ()


def build_index(keys, rows):
    """A hash index holding every row of ``rows`` under its key,
    ``keys[i]`` being the key of ``rows[i]`` (a bare value or a value
    tuple).

    The index is a :class:`UniqueIndex` when the keys are all distinct
    and none is a bare NULL, bucketed otherwise. Uniqueness is read from
    the keys themselves: storage enforces no declared key, so a declared
    key proves nothing about the data. A repeat among the first
    :data:`UNIQUE_SAMPLE` keys goes straight to the bucketed build; only
    keys whose head is distinct pay the C-level ``dict(zip(...))``
    attempt.
    """
    head = keys[:UNIQUE_SAMPLE]
    if None not in head and len(set(head)) == len(head):
        index = UniqueIndex(zip(keys, rows))
        if len(index) == len(keys) and None not in index:
            return index
    index = {}
    for key, row in zip(keys, rows):
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
    return index


def index_matches(index, key):
    """The rows ``index`` holds under ``key``, in build order: a sequence,
    empty on a miss. A lookup by value; joins probe through
    :func:`probe_index`, where NULL matches nothing."""
    found = index.get(key)
    if found is None:
        return ()
    return (found,) if type(index) is UniqueIndex else found


def probe_index(index, keys, start=0):
    """Join a whole probe-key column against ``index``: ``(positions,
    rows)``, one entry per match in key order, ``positions[j]`` being
    ``start`` plus the offset in ``keys`` of the key ``rows[j]`` matched.
    A None key (a NULL in the probe) matches nothing. A unique index is
    probed with one C-level ``map``; when every key matched, ``positions``
    is None and ``rows`` aligns with ``keys`` one to one."""
    get = index.get
    if type(index) is UniqueIndex:
        # A unique index holds no None key, so a None probe misses.
        rows = list(map(get, keys))
        if None not in rows:
            return None, rows
        return (
            [i for i, row in enumerate(rows, start) if row is not None],
            [row for row in rows if row is not None],
        )
    positions = []
    rows = []
    for i, key in enumerate(keys, start):
        if key is not None:
            found = get(key)
            if found:
                positions.extend([i] * len(found))
                rows.extend(found)
    return positions, rows


#: The Python types of one orderable family: values of one family compare
#: with each other, and with no value of the other.
NUMBER_TYPES = frozenset((int, float, bool))
STRING_TYPES = frozenset((str,))


def sorted_path(column):
    """The sorted access path of one column's values: ``(values,
    positions)``, the values ascending with NULL and NaN left out (no
    comparison with them is TRUE), and beside each the offset in
    ``column`` it came from, equal values in column order. None when the
    non-NULL values are not all numbers or all strings: such a column has
    no order to bisect."""
    types = set(map(type, column))
    types.discard(type(None))
    if not (types <= NUMBER_TYPES or types <= STRING_TYPES):
        return None
    # ``v == v`` is False only for NaN.
    positions = [i for i, v in enumerate(column) if v is not None and v == v]
    positions.sort(key=column.__getitem__)
    return [column[i] for i in positions], positions


class Table:
    """A stored base table: schema + columnar data + lazy access paths
    (hash indexes and sorted columns).

    Data lives in ``_columns`` (one list per schema column); ``rows`` is a
    cached row-tuple view rebuilt on demand after mutations. Every
    mutation is copy-on-write: it replaces the column lists it changes
    (and the row view) instead of writing into them, so an evaluator
    holding a column list or the ``rows`` list of a table sees a stable
    snapshot even if a mutation lands mid-query. The row view never holds
    one tuple object at two positions: a stored row is told apart from
    its duplicates by identity.

    ``version`` is a monotonic data-version counter, bumped once by every
    mutating statement; ``column_versions`` holds, per column, the
    ``version`` of the last mutation that changed it (an INSERT or DELETE
    changes every column, an UPDATE its SET columns). ANALYZE recomputes
    and the worker pool re-ships only the columns whose version moved.
    """

    def __init__(self, schema, rows=None):
        self.schema = schema
        self._ncols = len(schema.columns)
        self._columns = [[] for _ in range(self._ncols)]
        self._nrows = 0
        self._rows = []
        self.version = 0
        self.column_versions = [0] * self._ncols
        self._indexes = {}
        if rows:
            self._append_rows(self._converted_rows(rows))

    # -- row/column representations ------------------------------------------

    def _converted_rows(self, rows):
        """Convert ``rows`` to tuples, checking arity in the same pass.

        The whole input is validated before anything is stored, so a
        bad-arity row anywhere in the input leaves the table unmodified.
        """
        ncols = self._ncols
        converted = []
        for row in rows:
            row = tuple(row)
            if len(row) != ncols:
                raise ExecutionError(
                    "row arity %d does not match table %r (%d columns)"
                    % (len(row), self.schema.name, ncols)
                )
            converted.append(row)
        return converted

    def _append_rows(self, converted):
        """Append pre-validated row tuples: new column lists, the old ones
        left as they were."""
        if not converted:
            return
        self._columns = [
            column + [row[ordinal] for row in converted]
            for ordinal, column in enumerate(self._columns)
        ]
        self._nrows += len(converted)
        self._rows = None  # row view rebuilt on next access

    @property
    def rows(self):
        """Row-major view: a list of plain tuples (cached)."""
        rows = self._rows
        if rows is None:
            rows = list(zip(*self._columns)) if self._nrows else []
            self._rows = rows
        return rows

    @rows.setter
    def rows(self, new_rows):
        """Replace the table's contents (DELETE rebuilds via this): one
        mutation, every column changed."""
        converted = self._converted_rows(new_rows)
        if converted:
            self._columns = [list(column) for column in zip(*converted)]
        else:
            self._columns = [[] for _ in range(self._ncols)]
        self._nrows = len(converted)
        # Rebuilt from the columns on next access: ``new_rows`` may hold
        # one tuple object twice.
        self._rows = None
        self._changed(range(self._ncols))

    def column_data(self, column):
        """The stored value list of one column (by name or ordinal).

        This is the batch executor's scan path: the returned list is the
        live column array — callers must treat it as read-only.
        """
        if isinstance(column, int):
            ordinal = column
        else:
            ordinal = self.schema.column_ordinal(column)
        return self._columns[ordinal]

    def column_blocks(self):
        """The live column arrays (one list per schema column), for bulk
        reads — ANALYZE and the worker-pool publisher. Read-only by
        contract, like :meth:`column_data`."""
        return self._columns

    def load_columns(self, blocks, version):
        """Replace some columns with pre-built value lists — the
        worker-side half of the shared-memory sync protocol. ``blocks``
        maps a column ordinal to ``(column version, values)``; the
        versions are adopted as-is, so the worker's copy reports the same
        :attr:`version` and :attr:`column_versions` the publisher
        recorded. The resulting columns must all have equal length."""
        columns = list(self._columns)
        column_versions = list(self.column_versions)
        for ordinal, (column_version, values) in blocks.items():
            columns[ordinal] = values
            column_versions[ordinal] = column_version
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ExecutionError(
                "ragged column blocks for table %r: lengths %s"
                % (self.schema.name, sorted(lengths))
            )
        self._columns = columns
        self._nrows = lengths.pop() if lengths else 0
        self._rows = None
        self._indexes.clear()
        self.column_versions = column_versions
        self.version = version

    # -- mutation ---------------------------------------------------------------

    def insert_many(self, rows):
        converted = self._converted_rows(rows)
        if not converted:
            return
        self._append_rows(converted)
        # One statement, one version bump — per-row bumps would make the
        # version useless as a "how much changed" signal.
        self.invalidate_indexes()

    def update(self, positions, ordinals, values):
        """UPDATE: row ``positions[i]`` (an index into :attr:`rows`) takes
        ``values[i][k]`` in column ``ordinals[k]`` (a later ordinal wins
        over an earlier equal one). Copies and patches only the changed
        columns and, when cached, the row view — where only the changed
        rows get new tuples. One mutation; it changes the ``ordinals``
        columns, matched rows or not."""
        columns = list(self._columns)
        for k, ordinal in enumerate(ordinals):
            column = list(columns[ordinal])
            for position, new in zip(positions, values):
                column[position] = new[k]
            columns[ordinal] = column
        rows = self._rows
        if rows is not None and positions:
            rows = list(rows)
            for position in positions:
                rows[position] = tuple([column[position] for column in columns])
        self._columns = columns
        self._rows = rows
        self._changed(ordinals)

    def invalidate_indexes(self):
        """Drop the lazily built access paths and record a mutation of
        every column; the next ``index_on`` or ``sorted_on`` call rebuilds
        them."""
        self._changed(range(self._ncols))

    def _changed(self, ordinals):
        """Record one mutation of the ``ordinals`` columns: bump the data
        version, stamp it on those columns, drop the access paths (they
        hold row tuples and row positions)."""
        self.version += 1
        for ordinal in ordinals:
            self.column_versions[ordinal] = self.version
        self._indexes.clear()

    def index_on(self, columns):
        """The persistent hash index of one column (keys are bare values)
        or a tuple of columns (keys are value tuples), built lazily and
        kept until the next mutation of the table. This models the index
        access paths both the correlated strategy and set-oriented magic
        plans rely on.

        Built by :func:`build_index`, so it takes one of two shapes:
        unique (``key -> row``) when the keys are all distinct and none is
        NULL, bucketed (``key -> [row, ...]``) otherwise. The shape is
        read from the data at build time, never from a declared key:
        storage enforces no key, and an INSERT or UPDATE that repeats a
        key drops the index, so its rebuild comes out bucketed. Read
        matches with :func:`index_matches` or :func:`probe_index`.
        """
        if isinstance(columns, str):
            cache_key = self.schema.column_ordinal(columns)
        else:
            cache_key = tuple(self.schema.column_ordinal(c) for c in columns)
        index = self._indexes.get(cache_key)
        if index is None:
            if isinstance(cache_key, int):
                keys = self._columns[cache_key]
            else:
                keys = list(zip(*[self._columns[o] for o in cache_key]))
            index = self._indexes[cache_key] = build_index(keys, self.rows)
        return index

    def sorted_on(self, column):
        """The sorted access path of one column (by name or ordinal): a
        :func:`sorted_path` ``(values, positions)`` whose positions index
        :attr:`rows`, or None when the column holds values of more than
        one family (numbers, strings). Built lazily and kept, like the
        hash indexes of :meth:`index_on` and in the same cache, until the
        next mutation of the table."""
        if not isinstance(column, int):
            column = self.schema.column_ordinal(column)
        cache_key = ("sorted", column)
        try:
            return self._indexes[cache_key]
        except KeyError:
            path = self._indexes[cache_key] = sorted_path(self._columns[column])
            return path

    def __len__(self):
        return self._nrows


class Database:
    """Catalog + storage + statistics. The engine's root object."""

    def __init__(self, catalog=None):
        self.catalog = catalog or Catalog()
        self._tables = {}
        #: ``{table name (lower) -> (column versions, TableStatistics)}``
        #: as of the table's last ANALYZE.
        self._analyzed = {}

    def schema_version(self):
        """The catalog's monotonic DDL version (see
        :attr:`~repro.catalog.Catalog.version`). Cached plans are keyed on
        it: any CREATE TABLE/VIEW or DROP VIEW makes every previously
        cached plan unreachable rather than silently wrong."""
        return self.catalog.version

    def table_versions(self, names=None):
        """``{table name (lower) -> data version}`` for ``names`` (all
        stored tables when omitted); the server's result cache keys on
        these, so no result computed before a write matches after it.

        An unknown name raises :class:`~repro.errors.CatalogError`, the
        same contract as :meth:`table` — silently skipping it would make a
        probe over a mistyped name report "nothing changed".
        """
        if names is None:
            return {
                name: table.version for name, table in self._tables.items()
            }
        out = {}
        for name in names:
            table = self._tables.get(name.lower())
            if table is None:
                raise CatalogError("no stored table %r" % name)
            out[name.lower()] = table.version
        return out

    def create_table(self, name, columns, primary_key=None, unique_keys=None,
                     rows=None, foreign_keys=None):
        """Create a base table.

        ``columns`` is a list of column names or :class:`ColumnDef`.
        ``foreign_keys`` is a list of :class:`~repro.catalog.ForeignKey`
        (or ``(columns, ref_table, ref_columns)`` tuples); a ``ref_columns``
        of None resolves to the referenced table's primary key.
        """
        defs = [
            column if isinstance(column, ColumnDef) else ColumnDef(name=column)
            for column in columns
        ]
        resolved = []
        for fk in foreign_keys or []:
            if not isinstance(fk, ForeignKey):
                fk_columns, ref_table, ref_columns = fk
                if ref_columns is None:
                    parent = self.catalog.table(ref_table)
                    if parent.primary_key is None:
                        raise CatalogError(
                            "foreign key on %r references %r without a "
                            "column list, but %r has no primary key"
                            % (name, ref_table, ref_table)
                        )
                    ref_columns = parent.primary_key
                fk = ForeignKey(
                    columns=tuple(fk_columns),
                    ref_table=ref_table,
                    ref_columns=tuple(ref_columns),
                )
            resolved.append(fk)
        schema = TableSchema(
            name=name,
            columns=defs,
            primary_key=tuple(primary_key) if primary_key else None,
            unique_keys=[tuple(key) for key in (unique_keys or [])],
            foreign_keys=resolved,
        )
        self.catalog.add_table(schema)
        table = Table(schema, rows=rows)
        self._tables[name.lower()] = table
        if rows:
            self.analyze(name)
        return table

    def table(self, name):
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError("no stored table %r" % name)
        return table

    def stored_tables(self):
        """``{name (lower) -> Table}`` for every stored table. The worker
        pool's publisher iterates this to find tables whose data version
        moved; callers must not mutate the mapping."""
        return self._tables

    def register_table(self, schema):
        """Attach an empty :class:`Table` for a schema that is *already*
        in the catalog — the worker-side path for tables created by the
        parent after fork (the schema arrives via the catalog sync, the
        rows via a column-block segment). Replaces any existing storage
        for the name."""
        table = Table(schema)
        self._tables[schema.name.lower()] = table
        return table

    def insert(self, name, rows):
        self.table(name).insert_many(rows)

    def analyze(self, name=None):
        """Recompute optimizer statistics (ANALYZE). All tables if no name.

        Only the columns whose data version moved since the table's last
        ANALYZE are recomputed (after an UPDATE, its SET columns); the
        others keep their :class:`~repro.catalog.ColumnStatistics`. The
        result equals a recomputation of every column. Statistics set
        from elsewhere since (synthetic ones, say) are recomputed whole.
        """
        names = [name] if name else [schema.name for schema in self.catalog.tables()]
        for table_name in names:
            table = self.table(table_name)
            key = table_name.lower()
            versions = list(table.column_versions)
            current = self.catalog.statistics(table_name)
            last = self._analyzed.get(key)
            if last is None or last[1] is not current:
                stats = compute_statistics(table.schema, table.column_blocks())
            else:
                changed = [
                    ordinal
                    for ordinal, (then, now) in enumerate(zip(last[0], versions))
                    if then != now
                ]
                if not changed:
                    continue
                stats = TableStatistics(
                    row_count=len(table), columns=dict(current.columns)
                )
                for ordinal in changed:
                    stats.columns[table.schema.columns[ordinal].name.lower()] = (
                        column_statistics(table.column_data(ordinal))
                    )
            self.catalog.set_statistics(table_name, stats)
            self._analyzed[key] = (versions, stats)

    def create_view(self, sql_text):
        """Parse and register a ``CREATE VIEW`` statement."""
        from repro.sql import parse_statement
        from repro.sql.ast import CreateView

        statement = parse_statement(sql_text)
        if not isinstance(statement, CreateView):
            raise CatalogError("create_view expects a CREATE VIEW statement")
        return self.catalog.add_view(statement)
