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
from repro.engine.columnar.operators import FailedOp
from repro.engine.storage import UniqueIndex
from repro.errors import ExecutionError
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


# -- error parity -------------------------------------------------------------
#
# A query that fails on its own data must fail the same way on both
# engines: same exception type, same message. This is why a failed batch
# run is never retried on the tuple engine — there is nothing to recover.


@pytest.fixture(scope="module")
def error_conn():
    db = Database()
    db.create_table(
        "t", ["a", "b", "s"],
        rows=[(1, 1, "x"), (2, 1, "y"), (3, 0, "z"), (4, 2, "w")],
    )
    conn = Connection(db)
    conn.run_script("CREATE VIEW ones (a) AS SELECT a FROM t WHERE b = 1")
    return conn


ERROR_QUERIES = [
    # A scalar subquery returning two rows: directly, through a view, and
    # in the SELECT list.
    ("SELECT a FROM t WHERE a = (SELECT a FROM t WHERE b = 1)",
     "scalar subquery"),
    ("SELECT a FROM t WHERE a = (SELECT a FROM ones)", "scalar subquery"),
    ("SELECT a, (SELECT a FROM t WHERE b = 1) FROM t", "scalar subquery"),
    # The division is not a conjunct of its own, so no rewrite can move
    # it away from the row with b = 0.
    ("SELECT a FROM t WHERE b = 0 OR a / b > 1", "division by zero"),
    ("SELECT a FROM t WHERE MOD(a, b) = 1", "MOD by zero"),
    ("SELECT a + s FROM t", "invalid operands"),
    ("SELECT a FROM t WHERE s > 1", "cannot compare"),
]


@pytest.mark.parametrize("strategy", ["original", "emst"])
@pytest.mark.parametrize("sql, message", ERROR_QUERIES)
def test_failing_query_fails_alike_on_both_engines(error_conn, sql, message,
                                                   strategy):
    raised = {}
    for executor in ("tuple", "batch"):
        with pytest.raises(Exception, match=message) as caught:
            error_conn.execute(sql, strategy=strategy, executor=executor)
        raised[executor] = (type(caught.value), str(caught.value))
    assert raised["batch"] == raised["tuple"]


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


# -- unique and bucketed hash indexes ------------------------------------------
#
# A hash index whose keys are all distinct is probed in one pass and, when
# every probe matches, joined in by identity; both engines must still see
# the same rows and charge the same work.


STAT_FIELDS = (
    "box_evaluations", "rows_produced", "join_probes",
    "correlated_evaluations",
)


def executions_agree(runs):
    """``runs``: ``{executor: (Result, EvaluatorStats)}`` of one query."""
    (tuple_result, tuple_stats) = runs["tuple"]
    (batch_result, batch_stats) = runs["batch"]
    assert canonical(batch_result.rows) == canonical(tuple_result.rows)
    for field in STAT_FIELDS:
        assert getattr(batch_stats, field) == getattr(tuple_stats, field), field


def run_prepared_both(conn, sql, strategy):
    """One prepared statement per executor; returns them after checking a
    first execution of each agrees."""
    prepared = {
        executor: conn.prepare_statement(
            sql, strategy=strategy, executor=executor
        )
        for executor in ("tuple", "batch")
    }
    executions_agree({e: p.execute() for e, p in prepared.items()})
    return prepared


def keyed_connection():
    """``dept.dno`` and ``emp.eno`` hold distinct keys; ``dept.mgr``
    names employees, a few that do not exist and one NULL; ``emp.dno``
    misses ``dept`` for 20..24 and is NULL for every 11th employee."""
    db = Database()
    db.create_table(
        "dept", ["dno", "dname", "mgr"],
        rows=[
            (d, "D%d" % d, None if d == 7 else 100 + 5 * d)
            for d in range(20)
        ],
    )
    db.create_table(
        "emp", ["eno", "ename", "dno", "sal"],
        rows=[
            (100 + i, "E%d" % i, None if i % 11 == 0 else i % 25, 1000 + 7 * i)
            for i in range(90)
        ],
    )
    conn = Connection(db)
    conn.run_script(
        "CREATE VIEW deptPay (dno, total, n) AS "
        "SELECT e.dno, SUM(e.sal), COUNT(*) FROM emp e "
        "WHERE e.dno IS NOT NULL GROUP BY e.dno;"
    )
    return conn


KEYED_QUERIES = [
    # Unique build side (emp.eno), every probe matching.
    "SELECT d.dname, m.ename FROM dept d, emp m "
    "WHERE m.eno = d.mgr AND d.mgr < 150",
    # ... with misses and a NULL probe key.
    "SELECT d.dname, m.ename, m.sal FROM dept d, emp m WHERE m.eno = d.mgr",
    # Composite keys with NULL components on the probe side.
    "SELECT d.dname, m.ename FROM dept d, emp m "
    "WHERE m.eno = d.mgr AND m.dno = d.dno",
    # A derived (GROUPBY) build side, unique on its grouping column.
    "SELECT d.dname, p.total, p.n FROM dept d, deptPay p WHERE p.dno = d.dno",
    # A decorrelated scalar subquery probes a unique grouped table;
    # NULL probe keys bind NULL.
    "SELECT e.ename FROM emp e WHERE e.sal > "
    "(SELECT AVG(f.sal) FROM emp f WHERE f.dno = e.dno)",
    # A bucketed build side over a computed '||' key with NULL operands.
    "SELECT e.ename, d.dno FROM emp e, dept d WHERE d.dname = 'D' || e.dno",
    # '||' over NULL, int and str operands.
    "SELECT e.ename || e.dno, e.eno || '-', e.dno || e.eno, 'x' || e.sal, "
    "e.ename || e.ename FROM emp e",
]


@pytest.mark.parametrize("strategy", ["original", "emst"])
@pytest.mark.parametrize("index", range(len(KEYED_QUERIES)))
def test_keyed_joins_agree(index, strategy):
    conn = keyed_connection()
    assert type(conn.database.table("emp").index_on("eno")) is UniqueIndex
    run_prepared_both(conn, KEYED_QUERIES[index], strategy)


@pytest.mark.parametrize("strategy", ["original", "emst"])
@pytest.mark.parametrize(
    "statement",
    [
        "INSERT INTO emp VALUES (105, 'twin', 3, 50)",
        "UPDATE emp SET eno = 110 WHERE eno = 115",
    ],
)
def test_dml_that_repeats_a_key_between_executions(statement, strategy):
    """One prepared statement per engine runs, a write makes its unique
    build side bucketed, and it runs again: still the same rows and work."""
    conn = keyed_connection()
    sql = KEYED_QUERIES[1]
    prepared = run_prepared_both(conn, sql, strategy)
    conn.run_script(statement)
    assert type(conn.database.table("emp").index_on("eno")) is dict
    runs = {e: p.execute() for e, p in prepared.items()}
    executions_agree(runs)
    assert len(runs["batch"][0].rows) == len(
        conn.execute(sql, executor="tuple").rows
    )


# -- range joins ----------------------------------------------------------------
#
# A later base-table quantifier whose leading predicates compare one of
# its columns with bound values bisects the table's sorted column instead
# of filtering the cross product. It must return the cross product's rows
# in the cross product's order, charge the same work, and fail as it fails.

NAN = float("nan")


def range_connection():
    """``r`` is the outer side, ``u`` the inner one: NULLs on both sides,
    a NaN on both, duplicate values and ties at every bound; ``s`` holds
    strings, ``m`` mixes numbers and strings, ``e`` is empty."""
    db = Database()
    db.create_table(
        "r", ["k", "x", "s"],
        rows=[
            (0, 3, "c"), (1, None, "a"), (2, 5, None), (3, 5, "e"),
            (4, 0, "b"), (5, NAN, "c"), (6, 7.5, "d"), (7, -2, "a"),
        ],
    )
    db.create_table(
        "u", ["k", "y", "s", "m"],
        rows=[
            (10, 1, "b", 1), (11, 5, None, 2), (12, None, "c", 3),
            (13, 5, "a", "x"), (14, 3, "c", 4), (15, NAN, "e", 5),
            (16, 9, "d", 6), (17, 5, "b", 7), (18, 2.5, "a", 8),
            (19, -1, "f", 9), (20, 7.5, "c", 10), (21, 3, None, 11),
        ],
    )
    db.create_table("e", ["k", "y"])
    return Connection(db)


RANGE_OPS = ["<", "<=", ">", ">="]
RANGE_QUERIES = (
    # Each operator, with the inner column on the right and on the left.
    ["SELECT r.k, u.k FROM r, u WHERE r.x %s u.y" % op for op in RANGE_OPS]
    + ["SELECT r.k, u.k FROM r, u WHERE u.y %s r.x" % op for op in RANGE_OPS]
    + [
        # An expression over the outer side.
        "SELECT r.k, u.k FROM r, u WHERE r.x * 2 < u.y",
        # A two-sided band: the second bound narrows the first's range.
        "SELECT r.k, u.k, u.y FROM r, u WHERE u.y > r.x AND u.y <= r.x + 4",
        # A residual predicate after the range.
        "SELECT r.k, u.k FROM r, u WHERE r.x <= u.y AND u.k <> r.k + 10",
        # Strings.
        "SELECT r.k, u.k FROM r, u WHERE r.s < u.s",
        "SELECT r.s, u.s FROM r, u WHERE u.s >= r.s AND u.s < 'd'",
        # An empty outer side and an empty inner one.
        "SELECT r.k, u.k FROM r, u WHERE r.x < u.y AND r.k > 100",
        "SELECT r.k, e.k FROM r, e WHERE r.x < e.y",
        # LIMIT without ORDER BY keeps the first rows the join produces.
        "SELECT r.k, u.k FROM r, u WHERE r.x < u.y LIMIT 7",
        "SELECT COUNT(*) FROM r, u WHERE u.y > r.x",
    ]
)


def same_rows_in_order(rows):
    """``rows`` with NaN made comparable (NaN != NaN), order kept."""
    return [
        tuple("NaN" if value != value else value for value in row)
        for row in rows
    ]


@pytest.mark.parametrize("strategy", ["original", "emst"])
@pytest.mark.parametrize("sql", RANGE_QUERIES)
def test_range_joins_agree_row_for_row(sql, strategy):
    conn = range_connection()
    assert "RANGEJOIN" in conn.explain(sql, strategy=strategy)
    runs = {
        executor: conn.prepare_statement(
            sql, strategy=strategy, executor=executor
        ).execute()
        for executor in ("tuple", "batch")
    }
    (tuple_result, tuple_stats), (batch_result, batch_stats) = (
        runs["tuple"], runs["batch"],
    )
    assert same_rows_in_order(batch_result.rows) == same_rows_in_order(
        tuple_result.rows
    )
    for field in STAT_FIELDS:
        assert getattr(batch_stats, field) == getattr(tuple_stats, field), field


def test_a_range_join_bisects_instead_of_comparing_pairs():
    conn = range_connection()
    sql = "SELECT r.k, u.k FROM r, u WHERE u.y > r.x AND u.y <= r.x + 4"
    result, stats = conn.prepare_statement(sql, strategy="original").execute()
    # Two bisects per outer row whose bound is neither NULL nor NaN; the
    # scan of r and every pair still count as join probes, as on the
    # tuple engine.
    assert stats.batch_probes == 2 * 6
    assert stats.batch_probe_matches == len(result.rows)
    assert stats.join_probes == 8 + 8 * 12


@pytest.mark.parametrize("strategy", ["original", "emst"])
@pytest.mark.parametrize("sql, message", [
    # A column mixing numbers and strings has no sorted path.
    ("SELECT r.k, u.k FROM r, u WHERE r.x < u.m", "cannot compare"),
    # Outer strings against an inner column of numbers, both orientations.
    ("SELECT r.k, u.k FROM r, u WHERE r.s < u.y", "cannot compare"),
    ("SELECT r.k, u.k FROM r, u WHERE u.s >= r.x", "cannot compare"),
    # A bound that fails to evaluate.
    ("SELECT r.k, u.k FROM r, u WHERE r.s - 1 < u.y", "invalid operands"),
])
def test_mixed_type_range_joins_fail_alike(sql, message, strategy):
    conn = range_connection()
    assert "RANGEJOIN" in conn.explain(sql, strategy=strategy)
    raised = {}
    for executor in ("tuple", "batch"):
        with pytest.raises(ExecutionError, match=message) as caught:
            conn.execute(sql, strategy=strategy, executor=executor)
        raised[executor] = str(caught.value)
    assert raised["batch"] == raised["tuple"]


# -- outer joins, semi-joins and anti-joins ---------------------------------------
#
# A LEFT JOIN and an E/A test run one row at a time: on the tuple engine,
# on the batch engine (the outer join through the reference code, the E/A
# test per position), and under the Correlated strategy with their
# bindings pushed down. Over NULL-heavy, duplicate-heavy data all three
# must return the same rows and fail with the same error; tuple and batch
# must charge the same work, and every count is the one recorded at the
# commit before the row path lost its expression interpreter.

ROW_PATH_CELLS = [
    ("norewrite", "tuple"), ("norewrite", "batch"),
    ("emst", "tuple"), ("emst", "batch"),
    ("correlated", "tuple"),
]


def null_heavy_connection():
    """``p`` is the outer side and ``q`` the inner one, both with NULLs
    and repeated keys; ``z`` is empty, every ``n.a`` is NULL, and the view
    ``qsum`` groups ``q`` (its NULL key included)."""
    db = Database()
    db.create_table("p", ["k", "a", "b"], rows=[
        (1, 1, 10), (2, 1, None), (3, 2, 20), (4, None, 10), (5, 3, None),
        (6, 2, 20), (7, None, None), (8, 9, 5),
    ])
    db.create_table("q", ["k", "a", "c"], rows=[
        (10, 1, 10), (11, 1, 15), (12, 2, None), (13, None, 20),
        (14, 2, 20), (15, 3, 5), (16, None, None), (17, 1, 10),
    ])
    db.create_table("z", ["a", "c"])
    db.create_table("n", ["a", "c"], rows=[(None, 1), (None, None), (None, 20)])
    conn = Connection(db)
    conn.run_script(
        "CREATE VIEW qsum (a, total, cnt) AS "
        "SELECT q.a, SUM(q.c), COUNT(*) FROM q GROUP BY q.a;"
    )
    return conn


#: ``(sql, {strategy: STAT_FIELDS values})``.
ROW_PATH_QUERIES = [
    # LEFT JOIN: no ON equality (every pair tested), an equality and a
    # residual, NULL preserved-side keys, an empty right side (hashed and
    # scanned), a grouped view on the right, and a chain of two.
    ("SELECT p.k, q.k FROM p LEFT JOIN q ON q.c > p.b",
     {"norewrite": (4, 48, 80, 0), "emst": (4, 48, 80, 0),
      "correlated": (11, 104, 16, 9)}),
    ("SELECT p.k, q.k, q.c FROM p LEFT JOIN q ON q.a = p.a AND q.c <> p.b",
     {"norewrite": (3, 24, 19, 0), "emst": (3, 24, 19, 0),
      "correlated": (9, 35, 8, 7)}),
    ("SELECT p.k, p.a, q.c FROM p LEFT JOIN q ON q.a = p.a",
     {"norewrite": (3, 36, 25, 0), "emst": (3, 36, 25, 0),
      "correlated": (9, 47, 14, 7)}),
    ("SELECT p.k, z.c FROM p LEFT JOIN z ON z.a = p.a",
     {"norewrite": (3, 24, 8, 0), "emst": (3, 24, 8, 0),
      "correlated": (9, 24, 8, 7)}),
    ("SELECT p.k, z.c FROM p LEFT JOIN z ON z.c > p.b",
     {"norewrite": (4, 24, 8, 0), "emst": (4, 24, 8, 0),
      "correlated": (11, 24, 8, 9)}),
    ("SELECT p.k, g.total, g.cnt FROM p LEFT JOIN qsum g ON g.a = p.a",
     {"norewrite": (7, 48, 25, 0), "emst": (7, 48, 25, 0),
      "correlated": (27, 56, 24, 19)}),
    ("SELECT p.k, q.k, g.cnt FROM p LEFT JOIN q ON q.a = p.a "
     "LEFT JOIN qsum g ON g.a = q.a AND g.cnt > 1",
     {"norewrite": (8, 74, 48, 0), "emst": (8, 74, 48, 0),
      "correlated": (54, 137, 52, 40)}),
    # An ON predicate correlated to the outer query.
    ("SELECT p.k, (SELECT COUNT(*) FROM q LEFT JOIN z "
     "ON z.a = q.a AND z.c = p.b) FROM p",
     {"norewrite": (35, 168, 80, 32), "emst": (35, 168, 80, 32),
      "correlated": (72, 224, 80, 47)}),
    ("SELECT p.k FROM p WHERE EXISTS (SELECT 1 FROM q LEFT JOIN n "
     "ON n.c = p.b WHERE q.a = p.a AND n.a IS NULL)",
     {"norewrite": (19, 96, 88, 16), "emst": (19, 96, 88, 16),
      "correlated": (29, 50, 19, 22)}),
    # IN / NOT IN over an empty inner, an all-NULL inner and a NULL-bearing
    # one; NULL outer keys throughout.
    ("SELECT p.k FROM p WHERE p.a IN (SELECT z.a FROM z)",
     {"norewrite": (4, 8, 8, 0), "emst": (4, 8, 8, 0),
      "correlated": (14, 8, 8, 13)}),
    ("SELECT p.k FROM p WHERE p.a NOT IN (SELECT z.a FROM z)",
     {"norewrite": (4, 16, 8, 0), "emst": (4, 16, 8, 0),
      "correlated": (18, 16, 8, 17)}),
    ("SELECT p.k FROM p WHERE p.a IN (SELECT n.a FROM n)",
     {"norewrite": (4, 14, 11, 0), "emst": (4, 14, 11, 0),
      "correlated": (14, 8, 8, 13)}),
    ("SELECT p.k FROM p WHERE p.a NOT IN (SELECT n.a FROM n)",
     {"norewrite": (4, 14, 11, 0), "emst": (4, 14, 11, 0),
      "correlated": (18, 56, 32, 17)}),
    ("SELECT p.k FROM p WHERE p.a IN (SELECT q.a FROM q)",
     {"norewrite": (4, 29, 16, 0), "emst": (4, 29, 16, 0),
      "correlated": (14, 35, 19, 13)}),
    ("SELECT p.k FROM p WHERE p.a NOT IN "
     "(SELECT q.a FROM q WHERE q.a IS NOT NULL)",
     {"norewrite": (4, 23, 16, 0), "emst": (4, 23, 16, 0),
      "correlated": (18, 121, 72, 17)}),
    # ... correlated, with a residual predicate.
    ("SELECT p.k FROM p WHERE p.a IN (SELECT q.a FROM q WHERE q.c > p.b)",
     {"norewrite": (11, 28, 72, 8), "emst": (11, 28, 72, 8),
      "correlated": (14, 21, 19, 13)}),
    ("SELECT p.k FROM p WHERE p.a NOT IN "
     "(SELECT q.a FROM q WHERE q.c >= p.b)",
     {"norewrite": (11, 39, 72, 8), "emst": (11, 39, 72, 8),
      "correlated": (18, 95, 72, 17)}),
    # EXISTS / NOT EXISTS over an empty inner and an all-NULL inner, and
    # with a residual predicate.
    ("SELECT p.k FROM p WHERE EXISTS (SELECT 1 FROM z WHERE z.a = p.a)",
     {"norewrite": (10, 8, 8, 8), "emst": (10, 8, 8, 8),
      "correlated": (16, 8, 8, 15)}),
    ("SELECT p.k FROM p WHERE NOT EXISTS (SELECT 1 FROM z WHERE z.a = p.a)",
     {"norewrite": (10, 16, 8, 8), "emst": (10, 16, 8, 8),
      "correlated": (16, 16, 8, 15)}),
    ("SELECT p.k FROM p WHERE EXISTS (SELECT 1 FROM n WHERE n.c = p.b)",
     {"norewrite": (10, 12, 10, 8), "emst": (10, 12, 10, 8),
      "correlated": (15, 14, 10, 14)}),
    ("SELECT p.k FROM p WHERE NOT EXISTS (SELECT 1 FROM n WHERE n.a = p.a)",
     {"norewrite": (10, 16, 8, 8), "emst": (10, 16, 8, 8),
      "correlated": (16, 16, 8, 15)}),
    ("SELECT p.k FROM p WHERE EXISTS "
     "(SELECT 1 FROM q WHERE q.a = p.a AND q.c > p.b)",
     {"norewrite": (10, 10, 19, 8), "emst": (10, 10, 19, 8),
      "correlated": (16, 21, 19, 15)}),
    ("SELECT p.k FROM p WHERE NOT EXISTS "
     "(SELECT 1 FROM q WHERE q.a = p.a AND q.c = p.b)",
     {"norewrite": (10, 17, 12, 8), "emst": (10, 17, 12, 8),
      "correlated": (14, 21, 12, 13)}),
    # A semi-join over a grouped view beside an anti-join.
    ("SELECT p.k, p.a FROM p WHERE p.a IN "
     "(SELECT g.a FROM qsum g WHERE g.cnt > 1) "
     "AND p.b NOT IN (SELECT q.c FROM q WHERE q.a = 3)",
     {"norewrite": (8, 39, 25, 0), "emst": (7, 35, 21, 0),
      "correlated": (40, 55, 33, 33)}),
    # A scalar subquery and a group-by's non-aggregate column.
    ("SELECT p.k, (SELECT MAX(q.c) FROM q WHERE q.a = p.a) FROM p",
     {"norewrite": (26, 43, 27, 24), "emst": (6, 36, 35, 0),
      "correlated": (32, 54, 27, 15)}),
    ("SELECT p.a, COUNT(*), SUM(p.b) FROM p GROUP BY p.a",
     {"norewrite": (4, 26, 13, 0), "emst": (4, 26, 13, 0),
      "correlated": (4, 26, 13, 2)}),
]


@pytest.mark.parametrize("sql, counts", ROW_PATH_QUERIES)
def test_outer_semi_and_anti_joins_agree(sql, counts):
    conn = null_heavy_connection()
    expected = None
    for strategy, executor in ROW_PATH_CELLS:
        prepared = conn.prepare_statement(
            sql, strategy=strategy, executor=executor
        )
        # The second run reuses everything the first compiled.
        for run in ("first", "second"):
            result, stats = prepared.execute()
            rows = canonical(result.rows)
            if expected is None:
                expected = rows
            where = (strategy, executor, run)
            assert rows == expected, where
            assert tuple(
                getattr(stats, field) for field in STAT_FIELDS
            ) == counts[strategy], where


#: ``(sql, lowered)``: an unknown scalar function inside an IN, an EXISTS
#: and an ON, each over the empty ``z``. ``lowered``: the batch program
#: holds a FailedOp for the box whose predicate cannot compile.
ROW_PATH_ERRORS = [
    ("SELECT p.k FROM p WHERE p.a IN (SELECT NOPE(z.a) FROM z)", True),
    ("SELECT p.k FROM p WHERE EXISTS (SELECT 1 FROM z WHERE NOPE(z.c) = p.a)",
     True),
    ("SELECT p.k FROM p WHERE p.a NOT IN "
     "(SELECT z.a FROM z WHERE NOPE(z.c) > p.b)", True),
    ("SELECT p.k, z.c FROM p LEFT JOIN z ON z.a = NOPE(p.a)", False),
    # No pair reaches these predicates, yet each fails when its box is
    # evaluated, as every other predicate that cannot compile does.
    ("SELECT p.k FROM p WHERE NOPE(p.a) IN (SELECT z.a FROM z)", True),
    ("SELECT p.k, z.c FROM p LEFT JOIN z ON NOPE(z.c) = p.a", False),
    ("SELECT p.k, z.c FROM p LEFT JOIN z ON z.a = p.a AND NOPE(z.c) > p.b",
     False),
]


@pytest.mark.parametrize("sql, lowered", ROW_PATH_ERRORS)
def test_an_unknown_function_on_the_row_path_fails_alike(sql, lowered):
    conn = null_heavy_connection()
    for strategy, executor in ROW_PATH_CELLS:
        # Preparing succeeds: the error belongs to the execution.
        prepared = conn.prepare_statement(
            sql, strategy=strategy, executor=executor
        )
        for run in ("first", "second"):
            with pytest.raises(ExecutionError) as caught:
                prepared.execute()
            assert str(caught.value) == "unknown scalar function 'NOPE'", (
                strategy, executor, run,
            )
        if executor == "batch":
            failed = [
                op for op in prepared.program.operators.values()
                if isinstance(op, FailedOp)
            ]
            assert bool(failed) == lowered, strategy
