"""Model-based testing: random DML sequences against a plain-Python
reference model, and random join queries against itertools references."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Connection, Database
from repro.catalog import compute_statistics
from repro.errors import ExecutionError, NotSupportedError
from repro.server.core import QueryServer, ServerConfig
from repro.server.workers import fork_available

from tests.helpers import canonical

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


# ---------------------------------------------------------------------------
# DML model: the table is a list of rows; INSERT appends, DELETE filters,
# UPDATE maps. The engine must agree after every step — on the stored rows
# exactly (order, duplicates, and 1 / 1.0 / True told apart) and on what a
# query reads back.
#
# ``t (a, b)`` is the table under change: ``a`` holds ints, floats, a bool
# and (after ``SET a = b``) NULLs, ``b`` ints and NULLs. ``u (x, y)`` is
# the NULL-bearing side table the subqueries read.
# ---------------------------------------------------------------------------

_VALUES = st.integers(0, 9)

_SEED_ROWS = [(1, 1), (1.0, 2), (True, 3), (1, 1), (2, None), (2, 4)]

_side_rows = st.lists(
    st.tuples(st.one_of(_VALUES, st.none()), st.one_of(_VALUES, st.none())),
    max_size=6,
)

_operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert", "insert_float", "delete_eq", "delete_lt",
                "update_add", "delete_in", "delete_not_in", "delete_exists",
                "update_where_scalar", "update_set_count", "update_set_max",
                "update_set_self", "update_two_columns",
            ]
        ),
        _VALUES,
        _VALUES,
    ),
    max_size=14,
)


def _eq(left, right):
    """SQL ``=``: None (UNKNOWN) when an operand is NULL."""
    return None if left is None or right is None else left == right


def _lt(left, right):
    return None if left is None or right is None else left < right


def _add(left, right):
    return None if left is None or right is None else left + right


def _max(values):
    values = [v for v in values if v is not None]
    return max(values) if values else None


def _dml_step(model, side, op, x, y):
    """One drawn operation: ``(sql, the model after it)``. Every
    expression reads ``model`` as it was before the statement."""
    if op == "insert":
        return "INSERT INTO t VALUES (%d, %d)" % (x, y), model + [(x, y)]
    if op == "insert_float":
        return (
            "INSERT INTO t VALUES (%d.0, %d)" % (x, y),
            model + [(float(x), y)],
        )
    if op == "delete_eq":
        return (
            "DELETE FROM t WHERE a = %d" % x,
            [row for row in model if _eq(row[0], x) is not True],
        )
    if op == "delete_lt":
        return (
            "DELETE FROM t WHERE b < %d" % x,
            [row for row in model if _lt(row[1], x) is not True],
        )
    if op == "update_add":
        return (
            "UPDATE t SET b = b + %d WHERE a = %d" % (y, x),
            [
                (a, _add(b, y)) if _eq(a, x) is True else (a, b)
                for (a, b) in model
            ],
        )
    if op in ("delete_in", "delete_not_in"):
        # The subquery's xs include NULLs: IN is TRUE on a match, NOT IN
        # only when every comparison is FALSE (vacuously so when empty).
        xs = [sx for (sx, sy) in side if _lt(sy, y) is False]
        if op == "delete_in":
            sql = "DELETE FROM t WHERE a IN (SELECT x FROM u WHERE y >= %d)"
            hit = lambda a: any(_eq(a, sx) is True for sx in xs)  # noqa: E731
        else:
            sql = "DELETE FROM t WHERE a NOT IN (SELECT x FROM u WHERE y >= %d)"
            hit = lambda a: all(_eq(a, sx) is False for sx in xs)  # noqa: E731
        return sql % y, [row for row in model if not hit(row[0])]
    if op == "delete_exists":
        return (
            "DELETE FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.x = t.a AND u.y > t.b)",
            [
                (a, b)
                for (a, b) in model
                if not any(
                    _eq(sx, a) is True and _lt(b, sy) is True
                    for (sx, sy) in side
                )
            ],
        )
    if op == "update_where_scalar":
        return (
            "UPDATE t SET b = b + %d WHERE b < "
            "(SELECT MAX(y) FROM u WHERE u.x = t.a)" % y,
            [
                (a, _add(b, y))
                if _lt(b, _max(sy for (sx, sy) in side if _eq(sx, a) is True))
                is True
                else (a, b)
                for (a, b) in model
            ],
        )
    if op == "update_set_count":
        return (
            "UPDATE t SET b = (SELECT COUNT(*) FROM u WHERE u.x = t.a) "
            "WHERE a = %d" % x,
            [
                (a, sum(1 for (sx, _) in side if _eq(sx, a) is True))
                if _eq(a, x) is True
                else (a, b)
                for (a, b) in model
            ],
        )
    if op == "update_set_max":
        top = _max(sy for (_, sy) in side)
        return (
            "UPDATE t SET b = (SELECT MAX(y) FROM u)",
            [(a, top) for (a, _) in model],
        )
    if op == "update_set_self":
        # Correlated to the updated row and over the updated table: each
        # row's new value comes from the rows as they were.
        return (
            "UPDATE t SET b = (SELECT MAX(t2.b) FROM t t2 WHERE t2.a = t.a)",
            [
                (a, _max(b2 for (a2, b2) in model if _eq(a2, a) is True))
                for (a, _) in model
            ],
        )
    assert op == "update_two_columns"
    return (
        "UPDATE t SET a = b, b = a + %d WHERE b = %d" % (y, x),
        [
            (b, _add(a, y)) if _eq(b, x) is True else (a, b)
            for (a, b) in model
        ],
    )


def _dml_database(side):
    database = Database()
    database.create_table("t", ["a", "b"], rows=_SEED_ROWS)
    database.create_table("u", ["x", "y"], rows=side)
    return database


def _exact(rows):
    """Rows as comparable text: ``1``, ``1.0`` and ``True`` differ."""
    return [repr(tuple(row)) for row in rows]


@given(_side_rows, _operations)
@settings(max_examples=60, deadline=None)
def test_dml_sequence_matches_reference_model(side, operations):
    database = _dml_database(side)
    conn = Connection(database)
    model = list(_SEED_ROWS)
    for op, x, y in operations:
        sql, model = _dml_step(model, side, op, x, y)
        version = database.table("t").version
        conn.run_script(sql)
        assert database.table("t").version == version + 1, sql
        assert _exact(database.table("t").rows) == _exact(model), sql
        # ANALYZE after DML recomputes only what changed; the result is
        # the model's statistics computed from scratch (repr: the range
        # ends keep their types).
        fresh = compute_statistics(
            database.catalog.table("t"),
            [list(column) for column in zip(*model)] or [[], []],
        )
        assert database.catalog.statistics("t") == fresh, sql
        assert repr(database.catalog.statistics("t")) == repr(fresh), sql
        rows = conn.execute("SELECT a, b FROM t").rows
        assert sorted(_exact(rows)) == sorted(_exact(model)), sql


@needs_fork
@given(_side_rows, _operations)
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dml_sequence_through_server_workers(side, operations):
    """The same statements through ``QueryServer.handle_script`` with a
    worker pool: every statement's effect, read back from a forked worker
    (never the parent's copy), matches the model."""
    server = QueryServer(_dml_database(side), ServerConfig(workers=2))
    try:
        assert server.pool is not None
        model = list(_SEED_ROWS)
        for op, x, y in operations:
            sql, model = _dml_step(model, side, op, x, y)
            server.handle_script(sql)
            response = server.handle_query("SELECT a, b FROM t", fresh=True)
            assert response["worker_pid"] not in (None, os.getpid())
            assert sorted(_exact(response["rows"])) == sorted(_exact(model)), sql
    finally:
        server.shutdown()


def test_set_subquery_errors_like_a_select():
    conn = Connection(_dml_database([(1, 1), (2, 2)]))
    with pytest.raises(ExecutionError) as in_select:
        conn.execute("SELECT (SELECT y FROM u) FROM t")
    with pytest.raises(ExecutionError) as in_set:
        conn.run_script("UPDATE t SET b = (SELECT y FROM u)")
    assert str(in_set.value) == str(in_select.value)
    assert "returned 2 rows" in str(in_set.value)
    assert _exact(conn.database.table("t").rows) == _exact(_SEED_ROWS)
    # No matching row, no subquery evaluation: as in a SELECT.
    conn.run_script("UPDATE t SET b = (SELECT y FROM u) WHERE a = 99")
    with pytest.raises(NotSupportedError):
        conn.run_script("UPDATE t SET b = MAX(b)")


# ---------------------------------------------------------------------------
# Join semantics against itertools references
# ---------------------------------------------------------------------------

_rows_ab = st.lists(
    st.tuples(st.one_of(_VALUES, st.none()), _VALUES), max_size=10
)


@given(_rows_ab, _rows_ab)
@settings(max_examples=40, deadline=None)
def test_inner_join_matches_reference(left_rows, right_rows):
    db = Database()
    db.create_table("l", ["a", "b"], rows=left_rows)
    db.create_table("r", ["a", "b"], rows=right_rows)
    rows = Connection(db).execute(
        "SELECT l.b, r.b FROM l JOIN r ON r.a = l.a"
    ).rows
    expected = [
        (lb, rb)
        for (la, lb) in left_rows
        for (ra, rb) in right_rows
        if la is not None and la == ra
    ]
    assert canonical(rows) == canonical(expected)


@given(_rows_ab, _rows_ab)
@settings(max_examples=40, deadline=None)
def test_left_join_matches_reference(left_rows, right_rows):
    db = Database()
    db.create_table("l", ["a", "b"], rows=left_rows)
    db.create_table("r", ["a", "b"], rows=right_rows)
    rows = Connection(db).execute(
        "SELECT l.b, r.b FROM l LEFT JOIN r ON r.a = l.a"
    ).rows
    expected = []
    for la, lb in left_rows:
        matches = [
            (lb, rb)
            for (ra, rb) in right_rows
            if la is not None and la == ra
        ]
        expected.extend(matches or [(lb, None)])
    assert canonical(rows) == canonical(expected)


@given(_rows_ab)
@settings(max_examples=30, deadline=None)
def test_group_by_matches_reference(rows_in):
    db = Database()
    db.create_table("t", ["a", "b"], rows=rows_in)
    rows = Connection(db).execute(
        "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a"
    ).rows
    expected = {}
    for a, b in rows_in:
        count, total = expected.get(a, (0, 0))
        expected[a] = (count + 1, total + b)
    reference = [(a, c, s) for a, (c, s) in expected.items()]
    assert canonical(rows) == canonical(reference)


@given(_rows_ab, st.integers(0, 9))
@settings(max_examples=30, deadline=None)
def test_emst_join_agrees_with_reference(rows_in, key):
    db = Database()
    db.create_table("t", ["a", "b"], rows=rows_in)
    from repro.sql import parse_statement

    db.catalog.add_view(
        parse_statement("CREATE VIEW v (a, n) AS SELECT a, COUNT(*) FROM t GROUP BY a")
    )
    sql = "SELECT v.n FROM v WHERE v.a = %d" % key
    conn = Connection(db)
    for strategy in ("original", "emst"):
        rows = conn.explain_execute(sql, strategy=strategy).rows
        expected_count = sum(1 for (a, _) in rows_in if a == key)
        if expected_count:
            assert rows == [(expected_count,)]
        else:
            assert rows == []
