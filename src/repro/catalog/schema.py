"""Table schema objects stored in the catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import CatalogError


@dataclass(frozen=True)
class ForeignKey:
    """A declared FOREIGN KEY: ``columns`` of the owning (child) table
    reference ``ref_columns`` of ``ref_table``.

    The engine does not *enforce* referential integrity on writes; the
    declaration is trusted. :mod:`repro.rewrite.redundant_join` drops a
    join to the parent read only through ``ref_columns`` when those cover
    a parent key and ``columns`` are NOT NULL; the chase in
    :mod:`repro.analysis.equivalence` reads the same declaration as an
    inclusion dependency to check such rewrites.
    """

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "ref_columns", tuple(self.ref_columns))
        if len(self.columns) != len(self.ref_columns):
            raise CatalogError(
                "foreign key (%s) references %s (%s): column counts differ"
                % (
                    ", ".join(self.columns),
                    self.ref_table,
                    ", ".join(self.ref_columns),
                )
            )

    def describe(self):
        return "FOREIGN KEY (%s) REFERENCES %s (%s)" % (
            ", ".join(self.columns),
            self.ref_table,
            ", ".join(self.ref_columns),
        )


@dataclass
class ColumnDef:
    """One column of a stored table.

    ``type_name`` is advisory ("INT", "FLOAT", "STR"); the engine is
    dynamically typed and uses it only for documentation and random data
    generation. ``not_null`` records a declared NOT NULL constraint; the
    nullability dataflow analysis treats it as ground truth.
    """

    name: str
    type_name: str = "ANY"
    not_null: bool = False


@dataclass
class TableSchema:
    """Schema of a stored (base) table."""

    name: str
    columns: List[ColumnDef]
    primary_key: Optional[Tuple[str, ...]] = None
    unique_keys: List[Tuple[str, ...]] = field(default_factory=list)
    foreign_keys: List[ForeignKey] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(
                    "duplicate column %r in table %r" % (column.name, self.name)
                )
            seen.add(lowered)
        if self.primary_key is not None:
            self.primary_key = tuple(self.primary_key)
            self._check_key(self.primary_key)
        self.unique_keys = [tuple(key) for key in self.unique_keys]
        for key in self.unique_keys:
            self._check_key(key)
        self.foreign_keys = [
            fk if isinstance(fk, ForeignKey) else ForeignKey(*fk)
            for fk in self.foreign_keys
        ]
        for fk in self.foreign_keys:
            self._check_key(fk.columns)

    def __deepcopy__(self, memo):
        # Schemas are immutable after creation; share them with any deep
        # copy of a box or database (as clone_graph does).
        return self

    def _check_key(self, key):
        names = {c.name.lower() for c in self.columns}
        for column in key:
            if column.lower() not in names:
                raise CatalogError(
                    "key column %r not in table %r" % (column, self.name)
                )

    @property
    def column_names(self):
        return [column.name for column in self.columns]

    def column_ordinal(self, name):
        """Return the 0-based position of ``name`` (case-insensitive)."""
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise CatalogError("no column %r in table %r" % (name, self.name))

    def has_column(self, name):
        lowered = name.lower()
        return any(column.name.lower() == lowered for column in self.columns)

    def not_null_columns(self):
        """Lower-cased names of columns that can never hold NULL: declared
        NOT NULL columns plus the primary-key columns."""
        out = {
            column.name.lower() for column in self.columns if column.not_null
        }
        if self.primary_key is not None:
            out.update(part.lower() for part in self.primary_key)
        return out

    def all_keys(self):
        """Yield every declared key (primary first)."""
        if self.primary_key is not None:
            yield self.primary_key
        for key in self.unique_keys:
            yield key

    def is_unique_on(self, columns):
        """True when ``columns`` (an iterable of names) covers a declared key.

        A superset of a unique key is itself duplicate-free, which is the
        inference the distinct-pullup rewrite rule relies on.
        """
        available = {name.lower() for name in columns}
        for key in self.all_keys():
            if all(part.lower() in available for part in key):
                return True
        return False
