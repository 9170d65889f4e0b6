"""Bottom-up evaluator tests: SQL semantics end to end (bag semantics,
NULLs, subqueries, set operations, grouping, ordering), checked by hand on
the tuple engine, the oracle every other path is compared with."""

import pytest

from repro import Connection, Database
from repro.errors import ExecutionError

from tests.helpers import run_all_strategies


def execute(db, sql, strategy="norewrite"):
    return Connection(db, executor="tuple").explain_execute(
        sql, strategy=strategy
    ).rows


def test_projection_and_filter(numbers_db):
    rows = execute(numbers_db, "SELECT a, c FROM t WHERE a = 2")
    assert rows == [(2, "y"), (2, "y")]  # duplicates preserved


def test_distinct_eliminates_duplicates(numbers_db):
    rows = execute(numbers_db, "SELECT DISTINCT a, c FROM t WHERE a = 2")
    assert rows == [(2, "y")]


def test_where_null_filtered(numbers_db):
    rows = execute(numbers_db, "SELECT a FROM t WHERE b > 15")
    # b NULL rows are filtered (UNKNOWN), b=10 filtered (FALSE)
    assert sorted(rows) == [(2,), (2,), (4,)]


def test_join_basic(numbers_db):
    rows = execute(
        numbers_db, "SELECT t.a, s.d FROM t, s WHERE t.a = s.a ORDER BY d"
    )
    assert rows == [(1, 100), (2, 200), (2, 200)]


def test_join_null_keys_never_match(numbers_db):
    rows = execute(numbers_db, "SELECT t.a FROM t, s WHERE t.b = s.a")
    assert rows == []


def test_cross_join_cardinality(numbers_db):
    rows = execute(numbers_db, "SELECT t.a, s.a FROM t, s")
    assert len(rows) == 5 * 4


def test_group_by_with_null_group(numbers_db):
    rows = execute(
        numbers_db, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY 2 DESC"
    )
    assert (20, 2) in rows
    assert (None, 1) in rows  # NULL forms its own group


def test_group_by_aggregates(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT a, SUM(b), MIN(c), COUNT(*) FROM t GROUP BY a ORDER BY a",
    )
    assert rows[0] == (1, 10, "x", 1)
    assert rows[1] == (2, 40, "y", 2)
    assert rows[2] == (3, None, "z", 1)


def test_having_filters_groups(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1",
    )
    assert rows == [(2,)]


def test_scalar_aggregate_on_empty_table():
    db = Database()
    db.create_table("empty", ["x"], rows=[])
    rows = execute(db, "SELECT COUNT(*), SUM(x), AVG(x) FROM empty")
    assert rows == [(0, None, None)]


def test_group_by_on_empty_table_returns_no_rows():
    db = Database()
    db.create_table("empty", ["x"], rows=[])
    rows = execute(db, "SELECT x, COUNT(*) FROM empty GROUP BY x")
    assert rows == []


def test_in_subquery(numbers_db):
    rows = execute(
        numbers_db, "SELECT a FROM t WHERE a IN (SELECT a FROM s) ORDER BY a"
    )
    assert rows == [(1,), (2,), (2,)]


def test_not_in_with_null_in_subquery_is_empty(numbers_db):
    # s.a contains NULL, so NOT IN is never TRUE for any t row.
    rows = execute(numbers_db, "SELECT a FROM t WHERE a NOT IN (SELECT a FROM s)")
    assert rows == []


def test_not_in_without_nulls():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,), (2,), (3,)])
    db.create_table("s", ["a"], rows=[(2,)])
    rows = execute(db, "SELECT a FROM t WHERE a NOT IN (SELECT a FROM s)")
    assert sorted(rows) == [(1,), (3,)]


def test_not_in_empty_subquery_keeps_all():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,), (None,)])
    db.create_table("s", ["a"], rows=[])
    rows = execute(db, "SELECT a FROM t WHERE a NOT IN (SELECT a FROM s)")
    assert len(rows) == 2  # even the NULL row qualifies over an empty set


def test_exists_correlated(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT a FROM t WHERE EXISTS (SELECT d FROM s WHERE s.a = t.a) ORDER BY a",
    )
    assert rows == [(1,), (2,), (2,)]


def test_not_exists_correlated(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT DISTINCT a FROM t WHERE NOT EXISTS "
        "(SELECT d FROM s WHERE s.a = t.a) ORDER BY a",
    )
    assert rows == [(3,), (4,)]


def test_quantified_any(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT DISTINCT a FROM t WHERE a >= ANY (SELECT a FROM s WHERE a = 5)",
    )
    assert rows == []  # only 5 in inner; no t.a >= 5


def test_quantified_all():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,), (5,), (9,)])
    db.create_table("s", ["a"], rows=[(4,), (6,)])
    rows = execute(db, "SELECT a FROM t WHERE a > ALL (SELECT a FROM s)")
    assert rows == [(9,)]


def test_quantified_all_empty_inner_is_true():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,)])
    db.create_table("s", ["a"], rows=[])
    rows = execute(db, "SELECT a FROM t WHERE a > ALL (SELECT a FROM s)")
    assert rows == [(1,)]


def test_scalar_subquery_empty_yields_null():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,)])
    db.create_table("s", ["a"], rows=[])
    rows = execute(db, "SELECT a FROM t WHERE a > (SELECT MAX(a) FROM s WHERE a > 100)")
    assert rows == []  # NULL comparison is UNKNOWN


def test_scalar_subquery_multiple_rows_raises():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,)])
    db.create_table("s", ["a"], rows=[(1,), (2,)])
    with pytest.raises(ExecutionError):
        execute(db, "SELECT a FROM t WHERE a = (SELECT a FROM s)")


def test_union_distinct_and_all(numbers_db):
    rows = execute(numbers_db, "SELECT a FROM t UNION SELECT a FROM s")
    assert sorted(rows, key=lambda r: (r[0] is None, r[0])) == [
        (1,),
        (2,),
        (3,),
        (4,),
        (5,),
        (None,),
    ]
    rows = execute(numbers_db, "SELECT a FROM t UNION ALL SELECT a FROM s")
    assert len(rows) == 9


def test_except_all_bag_semantics():
    db = Database()
    db.create_table("l", ["a"], rows=[(1,), (1,), (1,), (2,)])
    db.create_table("r", ["a"], rows=[(1,)])
    rows = execute(db, "SELECT a FROM l EXCEPT ALL SELECT a FROM r")
    assert sorted(rows) == [(1,), (1,), (2,)]
    rows = execute(db, "SELECT a FROM l EXCEPT SELECT a FROM r")
    assert sorted(rows) == [(2,)]


def test_intersect_all_bag_semantics():
    db = Database()
    db.create_table("l", ["a"], rows=[(1,), (1,), (2,)])
    db.create_table("r", ["a"], rows=[(1,), (1,), (1,), (3,)])
    rows = execute(db, "SELECT a FROM l INTERSECT ALL SELECT a FROM r")
    assert sorted(rows) == [(1,), (1,)]
    rows = execute(db, "SELECT a FROM l INTERSECT SELECT a FROM r")
    assert sorted(rows) == [(1,)]


def test_order_by_nulls_last(numbers_db):
    rows = execute(numbers_db, "SELECT b FROM t ORDER BY b")
    assert rows[-1] == (None,)
    rows = execute(numbers_db, "SELECT b FROM t ORDER BY b DESC")
    assert rows[-1] == (None,)
    assert rows[0] == (40,)


def test_limit(numbers_db):
    rows = execute(numbers_db, "SELECT a FROM t ORDER BY a LIMIT 2")
    assert rows == [(1,), (2,)]


def test_count_distinct_in_query(numbers_db):
    rows = execute(numbers_db, "SELECT COUNT(DISTINCT a) FROM t")
    assert rows == [(4,)]


def test_expressions_in_select_list(numbers_db):
    rows = execute(
        numbers_db, "SELECT a * 2 + 1 FROM t WHERE a = 1"
    )
    assert rows == [(3,)]


def test_case_in_query(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT DISTINCT CASE WHEN a < 3 THEN 'small' ELSE 'big' END AS size "
        "FROM t ORDER BY size",
    )
    assert rows == [("big",), ("small",)]


def test_derived_table_execution(numbers_db):
    rows = execute(
        numbers_db,
        "SELECT x.total FROM (SELECT SUM(b) AS total FROM t) AS x",
    )
    assert rows == [(90,)]


def test_all_strategies_agree_on_mixed_query(numbers_db):
    conn = Connection(numbers_db)
    run_all_strategies(
        conn,
        "SELECT t.a, s.d FROM t, s WHERE t.a = s.a AND t.b IS NOT NULL",
    )


def test_evaluator_stats_populated(numbers_db):
    outcome = Connection(numbers_db, executor="tuple").explain_execute(
        "SELECT a FROM t"
    )
    assert outcome.stats["box_evaluations"] >= 1
    assert outcome.stats["rows_produced"] >= 5
