"""Recursive query evaluation: fixpoint semantics and stratification,
checked on the tuple engine, the oracle the batch fixpoint is compared
with."""

import pytest

from repro import Connection, Database
from repro.errors import QgmError


@pytest.fixture
def graph_db():
    db = Database()
    db.create_table(
        "edge",
        ["src", "dst"],
        rows=[(1, 2), (2, 3), (3, 4), (5, 6)],
    )
    return db


@pytest.fixture
def cyclic_db():
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=[(1, 2), (2, 3), (3, 1)])
    return db


def execute(db, sql, strategy="norewrite"):
    return Connection(db, executor="tuple").explain_execute(
        sql, strategy=strategy
    ).rows


TRANSITIVE_CLOSURE = (
    "WITH RECURSIVE reach (n) AS ("
    "  SELECT dst FROM edge WHERE src = 1 "
    "  UNION "
    "  SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
    "SELECT n FROM reach ORDER BY n"
)


def test_transitive_closure(graph_db):
    assert execute(graph_db, TRANSITIVE_CLOSURE) == [(2,), (3,), (4,)]


def test_transitive_closure_terminates_on_cycle(cyclic_db):
    rows = execute(cyclic_db, TRANSITIVE_CLOSURE)
    assert rows == [(1,), (2,), (3,)]


def test_recursion_with_union_all_still_set_semantics_in_fixpoint(cyclic_db):
    # UNION ALL recursion on a cyclic graph only terminates with set
    # semantics inside the fixpoint; the engine enforces that.
    sql = TRANSITIVE_CLOSURE.replace("UNION ", "UNION ALL ")
    rows = execute(cyclic_db, sql)
    assert sorted(set(rows)) == [(1,), (2,), (3,)]


def test_two_hop_pairs(graph_db):
    sql = (
        "WITH RECURSIVE path (src, dst) AS ("
        "  SELECT src, dst FROM edge "
        "  UNION "
        "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst) "
        "SELECT src, dst FROM path ORDER BY src, dst"
    )
    rows = execute(graph_db, sql)
    assert (1, 4) in rows
    assert (5, 6) in rows
    assert len(rows) == 7  # 6 closure pairs of the 1-2-3-4 chain + (5,6)


def test_recursion_joining_base_table_after(graph_db):
    sql = (
        "WITH RECURSIVE reach (n) AS ("
        "  SELECT dst FROM edge WHERE src = 1 "
        "  UNION SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
        "SELECT r.n, e.dst FROM reach r, edge e WHERE e.src = r.n"
    )
    rows = execute(graph_db, sql)
    assert sorted(rows) == [(2, 3), (3, 4)]


def test_negation_through_recursion_rejected():
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=[(1, 2)])
    sql = (
        "WITH RECURSIVE bad (n) AS ("
        "  SELECT dst FROM edge "
        "  UNION "
        "  SELECT e.dst FROM edge e WHERE e.src NOT IN (SELECT n FROM bad)) "
        "SELECT n FROM bad"
    )
    with pytest.raises(QgmError):
        execute(db, sql)


def test_aggregation_through_recursion_rejected():
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=[(1, 2)])
    sql = (
        "WITH RECURSIVE bad (n) AS ("
        "  SELECT dst FROM edge "
        "  UNION "
        "  SELECT COUNT(*) FROM bad GROUP BY n) "
        "SELECT n FROM bad"
    )
    with pytest.raises(QgmError):
        execute(db, sql)


def test_same_generation():
    db = Database()
    db.create_table(
        "par",
        ["child", "parent"],
        rows=[(3, 1), (4, 1), (5, 2), (6, 2), (1, 0), (2, 0)],
    )
    sql = (
        "WITH RECURSIVE sg (x, y) AS ("
        "  SELECT p1.child, p2.child FROM par p1, par p2 "
        "  WHERE p1.parent = p2.parent AND p1.child <> p2.child "
        "  UNION "
        "  SELECT p1.child, p2.child FROM par p1, sg s, par p2 "
        "  WHERE p1.parent = s.x AND s.y = p2.parent) "
        "SELECT x, y FROM sg WHERE x = 3 ORDER BY y"
    )
    rows = execute(db, sql)
    assert rows == [(3, 4), (3, 5), (3, 6)]


def test_stratified_aggregation_above_recursion_allowed(graph_db):
    sql = (
        "WITH RECURSIVE reach (n) AS ("
        "  SELECT dst FROM edge WHERE src = 1 "
        "  UNION SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
        "SELECT COUNT(*) FROM reach"
    )
    assert execute(graph_db, sql) == [(3,)]


def test_correlated_strategy_rejects_recursion(graph_db):
    from repro.errors import NotSupportedError

    with pytest.raises(NotSupportedError):
        execute(graph_db, TRANSITIVE_CLOSURE, strategy="correlated")


def test_emst_on_recursive_query_matches_original(graph_db):
    original = execute(graph_db, TRANSITIVE_CLOSURE, strategy="original")
    emst = execute(graph_db, TRANSITIVE_CLOSURE, strategy="emst")
    assert sorted(original) == sorted(emst)
