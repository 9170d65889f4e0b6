"""Catalog, schema and statistics tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, ColumnDef, TableSchema, compute_statistics
from repro.catalog import statistics as statistics_module
from repro.errors import CatalogError


def make_schema():
    return TableSchema(
        name="t",
        columns=[ColumnDef("a"), ColumnDef("b"), ColumnDef("c")],
        primary_key=("a",),
        unique_keys=[("b", "c")],
    )


def test_duplicate_column_rejected():
    with pytest.raises(CatalogError):
        TableSchema(name="t", columns=[ColumnDef("a"), ColumnDef("A")])


def test_key_column_must_exist():
    with pytest.raises(CatalogError):
        TableSchema(name="t", columns=[ColumnDef("a")], primary_key=("zzz",))


def test_column_ordinal_case_insensitive():
    schema = make_schema()
    assert schema.column_ordinal("A") == 0
    assert schema.column_ordinal("c") == 2
    with pytest.raises(CatalogError):
        schema.column_ordinal("missing")


def test_is_unique_on_superset_of_key():
    schema = make_schema()
    assert schema.is_unique_on(["a"])
    assert schema.is_unique_on(["a", "b"])
    assert schema.is_unique_on(["b", "c"])
    assert not schema.is_unique_on(["b"])


def test_catalog_add_and_resolve():
    catalog = Catalog()
    catalog.add_table(make_schema())
    kind, schema = catalog.resolve("T")
    assert kind == "table"
    assert schema.name == "t"


def test_catalog_duplicate_table_rejected():
    catalog = Catalog()
    catalog.add_table(make_schema())
    with pytest.raises(CatalogError):
        catalog.define_table("T", ["x"])


def test_catalog_unknown_name_raises():
    catalog = Catalog()
    with pytest.raises(CatalogError):
        catalog.table("nope")
    with pytest.raises(CatalogError):
        catalog.resolve("nope")


def test_view_registration_and_shadowing():
    from repro.sql import parse_statement

    catalog = Catalog()
    catalog.add_table(make_schema())
    view = parse_statement("CREATE VIEW v AS SELECT a FROM t")
    catalog.add_view(view)
    assert catalog.has_view("V")
    kind, _ = catalog.resolve("v")
    assert kind == "view"
    with pytest.raises(CatalogError):
        catalog.add_view(parse_statement("CREATE VIEW t AS SELECT a FROM t"))
    catalog.drop_view("v")
    assert not catalog.has_view("v")


def test_compute_statistics_counts_and_ranges():
    schema = TableSchema(name="t", columns=[ColumnDef("a"), ColumnDef("b")])
    columns = [[1, 2, 2, 5], ["x", "y", None, "y"]]
    stats = compute_statistics(schema, columns)
    assert stats.row_count == 4
    a = stats.column("a")
    assert a.distinct_count == 3
    assert (a.min_value, a.max_value) == (1, 5)
    b = stats.column("b")
    assert b.null_count == 1
    assert b.distinct_count == 2


def test_statistics_mixed_types_have_no_range():
    schema = TableSchema(name="t", columns=[ColumnDef("a")])
    stats = compute_statistics(schema, [[1, "x"]])
    assert stats.column("a").min_value is None


def test_statistics_unknown_column_defaults_to_distinct():
    schema = TableSchema(name="t", columns=[ColumnDef("a")])
    stats = compute_statistics(schema, [[1, 2]])
    fallback = stats.column("other")
    assert fallback.distinct_count == 2


# -- column-wise statistics against a plain-Python reference ---------------------


class Small(int):
    """An int subclass: numeric to ``isinstance``, not to ``type``."""


def _reference_column(values):
    """``(distinct, nulls, min, max)`` by the textbook filters: the range
    is taken over the non-NULL values only when all of them are numbers
    (bools excluded) or all are strings."""
    non_null = [v for v in values if v is not None]
    numeric = [
        v for v in non_null
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    strings = [v for v in non_null if isinstance(v, str)]
    if non_null and len(numeric) == len(non_null):
        comparable = numeric
    elif non_null and len(strings) == len(non_null):
        comparable = strings
    else:
        comparable = []
    return (
        max(len(set(non_null)), 1),
        len(values) - len(non_null),
        min(comparable) if comparable else None,
        max(comparable) if comparable else None,
    )


_INTS = st.integers(-5, 5)
_NUMBERS = st.one_of(_INTS, st.floats(-5, 5, allow_nan=False))
#: A column draws its values from one class (plus NULLs) or from all.
_VALUE_CLASSES = st.sampled_from([
    _INTS,
    _NUMBERS,
    st.sampled_from(["", "a", "b", "ab"]),
    st.one_of(
        _NUMBERS, st.booleans(), st.sampled_from(["a", "b"]), _INTS.map(Small)
    ),
])


@st.composite
def _column_blocks(draw):
    """One to three columns of equal length."""
    length = draw(st.integers(0, 12))
    return [
        draw(st.lists(
            st.one_of(st.none(), draw(_VALUE_CLASSES)),
            min_size=length, max_size=length,
        ))
        for _ in range(draw(st.integers(1, 3)))
    ]


@given(_column_blocks())
@settings(max_examples=300, deadline=None)
def test_column_statistics_match_reference(columns):
    schema = TableSchema(
        name="t", columns=[ColumnDef("c%d" % i) for i in range(len(columns))]
    )
    stats = compute_statistics(schema, columns)
    assert stats.row_count == len(columns[0])
    for i, values in enumerate(columns):
        got = stats.column("c%d" % i)
        # repr: 1, 1.0, True and Small(1) are equal values, not equal reads.
        assert repr((
            got.distinct_count, got.null_count, got.min_value, got.max_value
        )) == repr(_reference_column(values)), values


@pytest.mark.parametrize("values, fallback", [
    ([1, 2, None], False),
    ([1.5, 2, None], False),
    (["x", None, "y"], False),
    ([None, None], True),
    ([1, True], True),
    ([True, False], True),
    ([Small(3), 1], True),
    ([1, "x"], True),
])
def test_only_mixed_or_subclassed_columns_take_the_filters(
    monkeypatch, values, fallback
):
    calls = []
    filters = statistics_module._comparable

    def spy(column):
        calls.append(column)
        return filters(column)

    monkeypatch.setattr(statistics_module, "_comparable", spy)
    stats = statistics_module.column_statistics(values)
    assert bool(calls) == fallback
    assert (
        stats.distinct_count, stats.null_count, stats.min_value, stats.max_value
    ) == _reference_column(values)
