"""Storage-layer tests: tables, inserts, persistent indexes."""

import pytest

from repro.engine import Database, Table
from repro.engine.storage import (
    UniqueIndex,
    index_matches,
    probe_index,
)
from repro.catalog import ColumnDef, TableSchema
from repro.errors import CatalogError, ExecutionError


def make_table():
    schema = TableSchema(
        name="t", columns=[ColumnDef("a"), ColumnDef("b")], primary_key=("a",)
    )
    return Table(schema, rows=[(1, "x"), (2, "y"), (3, "x")])


def test_insert_checks_arity():
    table = make_table()
    with pytest.raises(ExecutionError):
        table.insert_many([(1, 2, 3)])


def test_single_column_index():
    table = make_table()
    index = table.index_on("b")
    assert sorted(index["x"]) == [(1, "x"), (3, "x")]
    assert index["y"] == [(2, "y")]


def test_composite_index_uses_tuple_keys():
    table = make_table()
    index = table.index_on(("a", "b"))
    assert list(index_matches(index, (1, "x"))) == [(1, "x")]
    assert (9, "z") not in index


def test_index_invalidated_on_insert():
    table = make_table()
    table.index_on("b")
    table.insert_many([(4, "x")])
    assert len(table.index_on("b")["x"]) == 3


def test_index_includes_null_keys():
    table = make_table()
    table.insert_many([(5, None)])
    assert table.index_on("b")[None] == [(5, None)]


def test_distinct_column_gives_a_unique_index():
    table = make_table()
    index = table.index_on("a")
    assert type(index) is UniqueIndex
    assert index_matches(index, 2) == ((2, "y"),)
    assert index_matches(index, 9) == ()
    assert type(table.index_on("b")) is dict
    assert list(index_matches(table.index_on("b"), "x")) == [(1, "x"), (3, "x")]
    # Storage enforces no declared key: a repeated primary-key value
    # gives a bucketed index.
    table.insert_many([(2, "z")])
    assert type(table.index_on("a")) is dict
    assert list(index_matches(table.index_on("a"), 2)) == [(2, "y"), (2, "z")]


@pytest.mark.parametrize(
    "statement",
    ["INSERT INTO t VALUES (1, 'w')", "UPDATE t SET a = 1 WHERE a = 2"],
)
def test_a_write_that_repeats_a_key_rebuilds_the_index_bucketed(statement):
    from repro import Connection

    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, "x"), (2, "y"), (3, "z")])
    table = db.table("t")
    assert type(table.index_on("a")) is UniqueIndex
    Connection(db).run_script(statement)
    index = table.index_on("a")
    assert type(index) is dict
    assert len(index_matches(index, 1)) == 2
    assert set(index_matches(index, 1)) == {
        row for row in table.rows if row[0] == 1
    }


@pytest.mark.parametrize("rows", [
    [(1, "x"), (None, "y"), (2, "z")],  # one NULL key: bucketed
    [(1, "x"), (None, "y"), (None, "z"), (1, "w")],
])
def test_null_keys_never_join(rows):
    from repro import Connection

    db = Database()
    db.create_table("t", ["a", "b"], rows=rows)
    db.create_table("u", ["k"], rows=[(None,), (1,)])
    index = db.table("t").index_on("a")
    assert type(index) is dict
    # Every row is indexed under its key, NULL included, but a probe
    # with a NULL key matches nothing.
    assert len(index_matches(index, None)) == sum(r[0] is None for r in rows)
    positions, matched = probe_index(index, [None, 1, None])
    assert positions == [1] * len(matched)
    assert matched == [row for row in rows if row[0] == 1]
    for executor in ("batch", "tuple"):
        result = Connection(db, executor=executor).execute(
            "SELECT t.b FROM u, t WHERE u.k = t.a"
        )
        assert sorted(result.rows) == sorted(
            (row[1],) for row in rows if row[0] == 1
        )


def test_composite_keys_take_both_shapes():
    table = make_table()
    unique = table.index_on(("a", "b"))
    assert type(unique) is UniqueIndex
    positions, matched = probe_index(unique, [(3, "x"), (1, "x")])
    assert positions is None  # every key matched one row
    assert matched == [(3, "x"), (1, "x")]
    table.insert_many([(1, "x"), (4, None)])
    bucketed = table.index_on(("a", "b"))
    assert type(bucketed) is dict
    assert list(index_matches(bucketed, (1, "x"))) == [(1, "x"), (1, "x")]
    # A key with a NULL component is indexed as a tuple; a probe with a
    # NULL component arrives as None and matches nothing.
    assert list(index_matches(bucketed, (4, None))) == [(4, None)]
    positions, matched = probe_index(bucketed, [None, (2, "y")], start=5)
    assert (positions, matched) == ([6], [(2, "y")])


def test_database_create_table_with_rows_analyzes():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,), (2,)])
    assert db.catalog.statistics("t").row_count == 2


def test_database_unknown_table():
    db = Database()
    with pytest.raises(CatalogError):
        db.table("missing")


def test_database_insert_and_len():
    db = Database()
    table = db.create_table("t", ["a"])
    db.insert("t", [(1,), (2,)])
    assert len(table) == 2


def test_analyze_all_tables():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,)])
    db.create_table("s", ["b"], rows=[(1,), (2,)])
    db.insert("s", [(3,)])
    db.analyze()
    assert db.catalog.statistics("s").row_count == 3


def test_insert_many_bad_arity_mid_input_leaves_table_unmodified():
    table = make_table()
    before_rows = list(table.rows)
    before_version = table.version
    with pytest.raises(ExecutionError):
        table.insert_many([(4, "w"), (5, "v", "extra"), (6, "u")])
    assert table.rows == before_rows
    assert len(table) == len(before_rows)
    assert table.version == before_version
    # Column storage stayed consistent too.
    assert table.column_data("a") == [1, 2, 3]


def test_insert_many_single_bump_and_empty_noop():
    table = make_table()
    version = table.version
    table.insert_many([(4, "w"), (5, "v")])
    assert table.version == version + 1  # one statement, one bump
    table.insert_many([])
    assert table.version == version + 1  # empty insert is a no-op


def test_columnar_layout_round_trip():
    table = make_table()
    assert table.column_data("a") == [1, 2, 3]
    assert table.column_data(1) == ["x", "y", "x"]
    table.insert_many([(4, None)])
    assert table.column_data("b") == ["x", "y", "x", None]
    assert table.rows == [(1, "x"), (2, "y"), (3, "x"), (4, None)]
    # Replacing rows wholesale (the DELETE/UPDATE path) rebuilds columns.
    table.rows = [(7, "z")]
    assert table.column_data("a") == [7]
    table.rows = []
    assert table.column_data("a") == []
    assert table.rows == []


def test_rows_view_is_stable_snapshot_across_mutation():
    table = make_table()
    snapshot = table.rows
    table.insert_many([(4, "w")])
    assert snapshot == [(1, "x"), (2, "y"), (3, "x")]
    assert table.rows == snapshot + [(4, "w")]


def test_table_versions_unknown_name_raises():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,)])
    assert db.table_versions(["t"]) == {"t": 0}
    with pytest.raises(CatalogError):
        db.table_versions(["t", "missing"])


def test_initial_rows_leave_version_zero():
    table = make_table()
    assert table.version == 0


# -- sorted access paths ------------------------------------------------------


def test_sorted_path_leaves_out_null_and_nan():
    nan = float("nan")
    db = Database()
    db.create_table(
        "t", ["a", "b"],
        rows=[(3, "x"), (None, "y"), (1.5, None), (nan, "x"), (3, "a"), (-1, "z")],
    )
    table = db.table("t")
    values, positions = table.sorted_on("a")
    # Equal values keep their row order.
    assert values == [-1, 1.5, 3, 3]
    assert positions == [5, 2, 0, 4]
    assert [table.rows[p][0] for p in positions] == values
    assert table.sorted_on(1) == (["a", "x", "x", "y", "z"], [4, 0, 3, 1, 5])
    assert table.sorted_on("a") is table.sorted_on(0)  # kept until a write


def test_a_column_mixing_families_has_no_sorted_path():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, None), ("x", None), (True, None)])
    assert db.table("t").sorted_on("a") is None
    # No non-NULL value: an empty path, not an unsortable one.
    assert db.table("t").sorted_on("b") == ([], [])


@pytest.mark.parametrize("statement", [
    "INSERT INTO t VALUES (0, 'w')",
    "UPDATE t SET a = 9 WHERE a = 1",
    "DELETE FROM t WHERE a = 2",
])
def test_every_write_drops_the_sorted_path(statement):
    from repro import Connection

    db = Database()
    db.create_table("t", ["a", "b"], rows=[(2, "x"), (1, "y"), (3, "z")])
    table = db.table("t")
    before = table.sorted_on("a")
    Connection(db).run_script(statement)
    after = table.sorted_on("a")
    assert after is not before
    column = table.column_data("a")
    assert after == (sorted(column), sorted(range(len(column)), key=column.__getitem__))


def test_load_columns_drops_the_sorted_path():
    table = make_table()
    assert table.sorted_on("a") == ([1, 2, 3], [0, 1, 2])
    table.load_columns({0: (5, [3, 1, 2]), 1: (5, ["x", "y", "z"])}, 5)
    assert table.sorted_on("a") == ([1, 2, 3], [1, 2, 0])
