"""Unit tests for the columnar batch executor: the Batch representation,
the vectorized expression compiler, stats counters, and the executor
switch with its batch→tuple fallback in the API and the server."""

import pytest

from repro import Connection, Database
from repro.engine import BatchEvaluator, Evaluator
from repro.engine.columnar import Batch, compile_vector
from repro.errors import ExecutionError, ReproError
from repro.qgm import expr as qe
from repro.resilience import ResiliencePolicy
from repro.server import QueryServer, ServerConfig
from repro.sql import parse_statement

from tests.helpers import assert_same_rows


def _db():
    db = Database()
    db.create_table(
        "emp",
        ["eno", "name", "dno", "sal"],
        primary_key=["eno"],
        rows=[
            (1, "ann", 10, 100),
            (2, "bob", 10, 200),
            (3, "cat", 20, 300),
            (4, "dan", None, 50),
        ],
    )
    db.create_table(
        "dept", ["dno", "dname"], primary_key=["dno"],
        rows=[(10, "X"), (20, "Y"), (30, "Z")],
    )
    return db


def _both(db, sql, strategy="emst"):
    conn = Connection(db)
    query = parse_statement(sql)
    tuple_rows = conn.execute_query(query, strategy=strategy, executor="tuple")
    batch_rows = conn.execute_query(query, strategy=strategy, executor="batch")
    assert_same_rows(tuple_rows.rows, batch_rows.rows)
    return batch_rows


# -- Batch representation ------------------------------------------------------


class _Q:
    """Stand-in quantifier: batches key slots by object identity only."""

    def __init__(self, name):
        self.name = name


def test_batch_column_extraction_and_caching():
    q = _Q("q")
    batch = Batch(3, slots={q: [(1, "a"), (2, "b"), (3, "c")]})
    column = batch.column(q, 0)
    assert column == [1, 2, 3]
    assert batch.column(q, 0) is column  # cached


def test_batch_constants_broadcast():
    q, outer = _Q("q"), _Q("outer")
    batch = Batch(2, slots={q: [(1,), (2,)]}, constants={outer: (7, 8)})
    assert batch.column(outer, 1) == [8, 8]


def test_batch_unbound_quantifier_raises():
    batch = Batch(1)
    with pytest.raises(ExecutionError):
        batch.column(_Q("nope"), 0)


def test_batch_take_and_expand():
    q, r = _Q("q"), _Q("r")
    batch = Batch(3, slots={q: [(1,), (2,), (3,)]})
    taken = batch.take([0, 2])
    assert taken.length == 2
    assert taken.column(q, 0) == [1, 3]
    expanded = taken.expand([0, 0, 1], r, [(10,), (11,), (12,)])
    assert expanded.length == 3
    assert expanded.column(q, 0) == [1, 1, 3]
    assert expanded.column(r, 0) == [10, 11, 12]


def test_batch_row_envs():
    q, outer = _Q("q"), _Q("outer")
    batch = Batch(2, slots={q: [(1,), (2,)]}, constants={outer: (9,)})
    envs = batch.row_envs()
    assert envs[0][q] == (1,) and envs[1][q] == (2,)
    assert envs[0][outer] == (9,)


def test_batch_zero_copy_column_source():
    db = _db()
    table = db.table("emp")
    q = _Q("scan")
    batch = Batch(
        len(table),
        slots={q: table.rows},
        column_sources={q: table.column_data},
    )
    assert batch.column(q, 3) is table.column_data("sal")


# -- vectorized expression compiler -------------------------------------------


def test_compile_vector_three_valued_logic():
    lit = qe.QLiteral
    true, false, null = lit(True), lit(False), lit(None)
    batch = Batch(1)
    assert compile_vector(qe.QBinary("AND", true, null))(batch) == [None]
    assert compile_vector(qe.QBinary("AND", false, null))(batch) == [False]
    assert compile_vector(qe.QBinary("OR", true, null))(batch) == [True]
    assert compile_vector(qe.QBinary("OR", false, null))(batch) == [None]
    assert compile_vector(qe.QBinary("=", lit(1), null))(batch) == [None]
    assert compile_vector(qe.QBinary("+", null, lit(2)))(batch) == [None]


def test_compile_vector_mixed_types_raise_execution_error():
    batch = Batch(1)
    with pytest.raises(ExecutionError):
        compile_vector(
            qe.QBinary("<", qe.QLiteral(1), qe.QLiteral("x"))
        )(batch)


def test_case_branches_stay_lazy_per_row():
    # A vectorized CASE must not evaluate untaken branches: row (4, dan)
    # divides by a zero guard the WHEN clause excludes.
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(10, 2), (7, 0)])
    _both(
        db,
        "SELECT t.a, CASE WHEN t.b <> 0 THEN t.a / t.b ELSE -1 END FROM t",
    )


def test_division_by_zero_raises_in_both_executors():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 0)])
    conn = Connection(db)
    query = parse_statement("SELECT t.a / t.b FROM t")
    for executor in ("tuple", "batch"):
        with pytest.raises(ExecutionError):
            conn.execute_query(query, strategy="norewrite", executor=executor)


# -- stats ---------------------------------------------------------------------


def test_batch_counters_surface_only_when_batch_ran():
    db = _db()
    conn = Connection(db)
    sql = "SELECT e.name FROM emp e, dept d WHERE e.dno = d.dno"
    query = parse_statement(sql)
    tuple_stats = conn.execute_query(query, executor="tuple").stats
    assert "batches" not in tuple_stats
    batch_stats = conn.execute_query(query, executor="batch").stats
    assert batch_stats["batches"] > 0
    assert batch_stats["batch_rows"] >= batch_stats["batches"] > 0
    assert batch_stats["batch_probes"] > 0
    assert batch_stats["probe_fanout"] > 0
    assert "rows_per_batch" in batch_stats


# -- executor switch -----------------------------------------------------------


def test_connection_rejects_unknown_executor():
    with pytest.raises(ReproError):
        Connection(_db(), executor="gpu")
    conn = Connection(_db())
    with pytest.raises(ReproError):
        conn.execute_query(parse_statement("SELECT e.eno FROM emp e"),
                           executor="gpu")


def test_prepared_query_runs_batch():
    conn = Connection(_db(), executor="batch")
    prepared = conn.prepare_statement(
        "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dno = d.dno"
    )
    assert prepared.executor == "batch"
    result, stats = prepared.execute()
    assert stats.batches > 0
    oracle = conn.execute(
        "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dno = d.dno",
        executor="tuple",
    )
    assert_same_rows(result.rows, oracle.rows)


def test_explain_mentions_executor():
    conn = Connection(_db())
    text = conn.explain("SELECT e.eno FROM emp e")
    assert "executor: batch" in text
    assert "executor: tuple" in Connection(_db(), executor="tuple").explain(
        "SELECT e.eno FROM emp e"
    )


def test_outcome_records_executor():
    conn = Connection(_db())
    outcome = conn.execute_query(
        parse_statement("SELECT e.eno FROM emp e"), executor="batch"
    )
    assert outcome.executor == "batch"


CORRELATED_SQL = (
    "SELECT e.name FROM emp e WHERE e.sal > "
    "(SELECT AVG(f.sal) FROM emp f WHERE f.dno = e.dno)"
)


def test_correlated_strategy_reports_the_tuple_engine():
    """The correlated strategy runs tuple-at-a-time whatever executor is
    asked for, and the outcome and EXPLAIN say so."""
    conn = Connection(_db(), executor="batch")
    outcome = conn.explain_execute(
        CORRELATED_SQL, strategy="correlated", executor="batch"
    )
    assert outcome.executor == "tuple"
    assert "batches" not in outcome.stats
    assert sorted(outcome.rows) == [("bob",)]
    assert "executor: tuple" in conn.explain(
        CORRELATED_SQL, strategy="correlated"
    )
    assert conn.explain_execute(CORRELATED_SQL).executor == "batch"


def test_server_correlated_requests_share_one_result_cache_entry():
    """A batch server runs ``correlated`` on the tuple engine, and its
    cached answer reports that engine too."""
    server = QueryServer(_db(), ServerConfig(result_cache_capacity=8))
    try:
        first = server.handle_query(CORRELATED_SQL, strategy="correlated")
        assert first["executor"] == "tuple"
        second = server.handle_query(CORRELATED_SQL, strategy="correlated")
        assert second["cache"] == "result"
        assert second["executor"] == "tuple"
        assert second["rows"] == first["rows"]
        assert (server.result_cache.hits, server.result_cache.misses) == (1, 1)
        assert server.handle_query(CORRELATED_SQL)["executor"] == "batch"
    finally:
        server.shutdown()


# -- a batch failure is its rung's failure ------------------------------------


def _break_batch_runs(monkeypatch, failures):
    """Make the first ``failures`` batch-engine runs raise; returns the
    list of every engine run's class name, in order."""
    runs = []
    original_run = Evaluator.run

    def run(self):
        runs.append(type(self).__name__)
        if isinstance(self, BatchEvaluator) and len(runs) <= failures:
            raise RuntimeError("vectorized paths exploded")
        return original_run(self)

    monkeypatch.setattr(Evaluator, "run", run)
    return runs


def test_resilience_degrades_a_batch_failure_along_the_ladder(monkeypatch):
    """The ladder is the only retry: a batch-engine error fails its
    strategy, and the next rung runs on the batch engine too."""
    runs = _break_batch_runs(monkeypatch, failures=1)
    conn = Connection(_db(), resilience=ResiliencePolicy(), executor="batch")
    sql = parse_statement("SELECT e.name FROM emp e WHERE e.sal > 60")
    outcome = conn.execute_query(sql)
    report = outcome.resilience
    assert (report.requested, report.executed) == ("emst", "phase1")
    assert report.degraded
    assert report.attempts == [
        ("emst", "RuntimeError: vectorized paths exploded")
    ]
    assert outcome.executor == "batch"
    assert runs == ["BatchEvaluator", "BatchEvaluator"]
    assert sorted(outcome.rows) == [("ann",), ("bob",), ("cat",)]

    # When every rung fails, the last rung's error is the query's: one
    # batch run per rung, none on the tuple engine.
    monkeypatch.undo()
    runs = _break_batch_runs(monkeypatch, failures=3)
    with pytest.raises(RuntimeError, match="vectorized paths exploded"):
        conn.execute_query(sql)
    assert runs == ["BatchEvaluator"] * 3


def test_batch_error_without_resilience_propagates(monkeypatch):
    def boom(self):
        raise RuntimeError("vectorized paths exploded")

    monkeypatch.setattr(BatchEvaluator, "run", boom)
    conn = Connection(_db(), executor="batch")
    with pytest.raises(RuntimeError):
        conn.execute_query(parse_statement("SELECT e.eno FROM emp e"))


def test_server_executor_switch_and_fallback(monkeypatch):
    server = QueryServer(_db(), ServerConfig(default_executor="batch"))
    try:
        response = server.handle_query(
            "SELECT e.name FROM emp e WHERE e.sal > 150"
        )
        assert response["executor"] == "batch"
        assert sorted(map(tuple, response["rows"])) == [("bob",), ("cat",)]

        _break_batch_runs(monkeypatch, failures=1)
        fallback = server.handle_query(
            "SELECT e.name FROM emp e WHERE e.sal > 250"
        )
        assert fallback["executor"] == "batch"
        assert fallback["executed_strategy"] == "phase1"
        assert sorted(map(tuple, fallback["rows"])) == [("cat",)]
        stats = server.handle_stats()
        assert stats["counters"]["fallbacks"] == 1
        assert "executor_fallbacks" not in stats["counters"]
    finally:
        server.shutdown()


def test_server_rejects_unknown_executor():
    with pytest.raises(ReproError):
        QueryServer(_db(), ServerConfig(default_executor="gpu"))


# -- engine-level differential spot checks -------------------------------------


def test_batch_evaluator_matches_tuple_on_joins_and_aggregates():
    db = _db()
    for sql in [
        "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dno = d.dno",
        "SELECT d.dname, COUNT(*), SUM(e.sal), MIN(e.sal), MAX(e.sal), "
        "AVG(e.sal) FROM emp e, dept d WHERE e.dno = d.dno GROUP BY d.dname",
        "SELECT COUNT(*), COUNT(e.dno), SUM(e.sal) FROM emp e",
        "SELECT e.name FROM emp e WHERE e.dno IS NULL",
        "SELECT e.name FROM emp e, dept d",  # cross product
        "SELECT UPPER(e.name) || '-' || e.eno FROM emp e WHERE e.sal % 2 = 0",
    ]:
        _both(db, sql, strategy="original")


def test_batch_evaluator_groupby_empty_input_scalar_aggregate():
    db = Database()
    db.create_table("t", ["a"], rows=[])
    _both(db, "SELECT COUNT(*), SUM(t.a), MIN(t.a) FROM t", strategy="norewrite")


def test_batch_fixpoint_matches_tuple():
    db = Database()
    edges = [(i, i + 1) for i in range(30)] + [(5, 2), (12, 3), (29, 0)]
    db.create_table("edge", ["src", "dst"], rows=edges)
    _both(
        db,
        "WITH RECURSIVE reach (n) AS ("
        "  SELECT e.dst FROM edge e WHERE e.src = 0"
        "  UNION"
        "  SELECT e.dst FROM edge e, reach r WHERE e.src = r.n"
        ") SELECT r.n FROM reach r",
    )
