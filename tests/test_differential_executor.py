"""Differential suite: the tuple-at-a-time :class:`Evaluator` is the
oracle for the columnar :class:`BatchEvaluator`. Every workload query
(decision support, empdept, recursive closure) runs through both
executors and must produce identical row sets, and a hypothesis property
test drives random data through join / group-by / fixpoint shapes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Connection, Database
from repro.api import PreparedQuery
from repro.sql import parse_statement
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from tests.helpers import canonical
from tests.test_integration_suite import DS_QUERIES, EMP_QUERIES


def run_both_executors(conn, sql, strategies=("original", "emst")):
    """Execute under both executors (per strategy); assert they agree.

    The batch side prepares once and runs its compiled program twice: the
    second run reuses everything the first compiled and must still match
    the tuple oracle."""
    query = parse_statement(sql)
    for strategy in strategies:
        tuple_outcome = conn.execute_query(
            query, strategy=strategy, executor="tuple"
        )
        graph, plan, heuristic, _ = conn.prepare(query, strategy)
        prepared = PreparedQuery(
            database=conn.database, graph=graph, plan=plan,
            heuristic=heuristic, strategy=strategy, executor="batch",
        )
        first, _ = prepared.execute()
        program = prepared.program
        second, _ = prepared.execute()
        assert program is not None and prepared.program is program
        for run, result in (("first", first), ("second", second)):
            assert canonical(result.rows) == canonical(tuple_outcome.rows), (
                "%s run of the compiled program disagrees under %s on %r"
                % (run, strategy, sql)
            )


@pytest.fixture(scope="module")
def ds_conn():
    db = build_decision_support_database(scale=0.5, seed=77)
    conn = Connection(db)
    conn.run_script(
        """
        CREATE VIEW custRev (custkey, rev, norders) AS
          SELECT o.custkey, SUM(o.totalprice), COUNT(*)
          FROM orders o GROUP BY o.custkey;
        CREATE VIEW bigParts (partkey, pname, brand) AS
          SELECT partkey, pname, brand FROM part WHERE size > 25;
        CREATE VIEW orderValue (orderkey, value) AS
          SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount))
          FROM lineitem l GROUP BY l.orderkey;
        """
    )
    return conn


@pytest.fixture(scope="module")
def emp_conn():
    db = build_empdept_database(
        n_departments=40, employees_per_department=6, seed=78
    )
    conn = Connection(db)
    conn.run_script(PAPER_VIEWS_SQL)
    return conn


@pytest.mark.parametrize("index", range(len(DS_QUERIES)))
def test_decision_support_differential(ds_conn, index):
    run_both_executors(ds_conn, DS_QUERIES[index])


@pytest.mark.parametrize("index", range(len(EMP_QUERIES)))
def test_empdept_differential(emp_conn, index):
    run_both_executors(emp_conn, EMP_QUERIES[index])


# -- recursive closure ---------------------------------------------------------


@pytest.fixture(scope="module")
def closure_conn():
    # A few disjoint components plus back edges so the fixpoint takes
    # several delta rounds and revisits known facts.
    edges = []
    for base in (0, 100, 200):
        edges.extend((base + i, base + i + 1) for i in range(25))
        edges.append((base + 25, base))  # cycle back
        edges.append((base + 5, base + 17))  # shortcut
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=edges)
    return Connection(db)


CLOSURE_QUERIES = [
    "WITH RECURSIVE reach (n) AS ("
    "  SELECT e.dst FROM edge e WHERE e.src = 0"
    "  UNION"
    "  SELECT e.dst FROM edge e, reach r WHERE e.src = r.n"
    ") SELECT r.n FROM reach r",
    "WITH RECURSIVE path (src, dst) AS ("
    "  SELECT e.src, e.dst FROM edge e"
    "  UNION"
    "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst"
    ") SELECT COUNT(*) FROM path p",
    "WITH RECURSIVE path (src, dst) AS ("
    "  SELECT e.src, e.dst FROM edge e"
    "  UNION"
    "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst"
    ") SELECT p.src, COUNT(*) FROM path p WHERE p.src < 10 GROUP BY p.src",
]


@pytest.mark.parametrize("index", range(len(CLOSURE_QUERIES)))
def test_recursive_closure_differential(closure_conn, index):
    run_both_executors(closure_conn, CLOSURE_QUERIES[index])


# -- property-based differential testing ---------------------------------------


value = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
r_rows = st.lists(st.tuples(value, value), max_size=12)
s_rows = st.lists(st.tuples(value, value), max_size=12)


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(r=r_rows, s=s_rows)
def test_random_join_and_groupby_agree(r, s):
    db = Database()
    db.create_table("r", ["a", "b"], rows=r)
    db.create_table("s", ["b", "c"], rows=s)
    conn = Connection(db)
    run_both_executors(
        conn,
        "SELECT r.a, s.c FROM r, s WHERE r.b = s.b",
        strategies=("original",),
    )
    run_both_executors(
        conn,
        "SELECT r.a, COUNT(*), COUNT(s.c), SUM(s.c), MIN(s.c), MAX(s.c) "
        "FROM r, s WHERE r.b = s.b GROUP BY r.a",
        strategies=("original",),
    )
    run_both_executors(
        conn,
        "SELECT DISTINCT r.a FROM r WHERE r.b IN (SELECT s.b FROM s)",
        strategies=("original", "emst"),
    )


edge_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=14,
)


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edges=edge_rows)
def test_random_fixpoint_agrees(edges):
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=edges)
    conn = Connection(db)
    run_both_executors(
        conn,
        "WITH RECURSIVE reach (n) AS ("
        "  SELECT e.dst FROM edge e WHERE e.src = 0"
        "  UNION"
        "  SELECT e.dst FROM edge e, reach r WHERE e.src = r.n"
        ") SELECT r.n FROM reach r",
        strategies=("original",),
    )
