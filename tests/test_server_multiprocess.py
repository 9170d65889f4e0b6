"""The multi-process serving layer: differential correctness against the
in-process engine, shared-memory table sync, the cross-request result
cache (including the never-stale key invariant under random DML/read
interleavings), statement-cache warming, and worker-crash chaos.

The differential discipline mirrors ``tests/test_differential_executor``:
every workload query (decision support, empdept, recursive closure) runs
through one forked-worker server per executor under both rewrite
strategies, and each answer must equal the same statement executed on an
in-process :class:`~repro.api.Connection` over the same database.
"""

import copy
import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Connection, Database
from repro.api import EXECUTORS
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    WorkerCrashedError,
)
from repro.server.core import QueryServer, ServerConfig
from repro.server.result_cache import ResultCache
from repro.server.workers import SharedTableStore, apply_sync, fork_available
from repro.sql import parse_statement
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from tests.helpers import canonical
from tests.test_differential_executor import CLOSURE_QUERIES
from tests.test_integration_suite import DS_QUERIES, EMP_QUERIES
from tests.test_server import DATA_ERROR_QUERY

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

DS_VIEWS_SQL = """
CREATE VIEW custRev (custkey, rev, norders) AS
  SELECT o.custkey, SUM(o.totalprice), COUNT(*)
  FROM orders o GROUP BY o.custkey;
CREATE VIEW bigParts (partkey, pname, brand) AS
  SELECT partkey, pname, brand FROM part WHERE size > 25;
CREATE VIEW orderValue (orderkey, value) AS
  SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount))
  FROM lineitem l GROUP BY l.orderkey;
"""

PARAM_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = ?"
)
SLOW_COUNT_QUERY = (
    "SELECT COUNT(*) FROM employee e1, employee e2, employee e3 "
    "WHERE e1.salary > 0 AND e2.salary > 0 AND e3.salary > 0"
)


def _mp_server(database, **overrides):
    config = ServerConfig(
        workers=overrides.pop("workers", 2),
        result_cache_capacity=overrides.pop("result_cache_capacity", 0),
        **overrides,
    )
    server = QueryServer(database, config)
    assert server.pool is not None, "worker pool failed to start"
    return server


def _mp_servers(database):
    """One forked-worker server per engine: a server's engine is its
    config, so covering both engines takes two servers."""
    return {
        executor: _mp_server(database, default_executor=executor)
        for executor in EXECUTORS
    }


def _shutdown(servers):
    for server in servers.values():
        server.shutdown()


@pytest.fixture(scope="module")
def ds_mp():
    database = build_decision_support_database(scale=0.4, seed=77)
    Connection(database).run_script(DS_VIEWS_SQL)
    servers = _mp_servers(database)
    yield servers, Connection(database)
    _shutdown(servers)


@pytest.fixture(scope="module")
def emp_mp():
    database = build_empdept_database(
        n_departments=30, employees_per_department=6, seed=78
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    servers = _mp_servers(database)
    yield servers, Connection(database)
    _shutdown(servers)


@pytest.fixture(scope="module")
def closure_mp():
    edges = []
    for base in (0, 100, 200):
        edges.extend((base + i, base + i + 1) for i in range(25))
        edges.append((base + 25, base))
        edges.append((base + 5, base + 17))
    database = Database()
    database.create_table("edge", ["src", "dst"], rows=edges)
    servers = _mp_servers(database)
    yield servers, Connection(database)
    _shutdown(servers)


def assert_differential(servers, oracle, sql):
    """The MP servers must agree with the in-process connection for every
    (strategy, executor) combination, with no silent strategy fallback,
    and every server answer must have come from a worker process."""
    query = parse_statement(sql)
    for strategy in ("original", "emst"):
        for executor, server in servers.items():
            response = server.handle_query(sql, strategy=strategy)
            assert response["executor"] == executor
            assert response.get("worker_pid"), (
                "query did not run on a worker (%s/%s): %r"
                % (strategy, executor, sql)
            )
            assert response["executed_strategy"] == strategy, (
                "silent fallback from %s on %r" % (strategy, sql)
            )
            expected = oracle.execute_query(
                query, strategy=strategy, executor=executor
            )
            assert canonical(map(tuple, response["rows"])) == canonical(
                expected.rows
            ), "MP server disagrees under %s/%s on %r" % (
                strategy, executor, sql,
            )


@needs_fork
@pytest.mark.parametrize("index", range(len(DS_QUERIES)))
def test_decision_support_differential_mp(ds_mp, index):
    servers, oracle = ds_mp
    assert_differential(servers, oracle, DS_QUERIES[index])


@needs_fork
@pytest.mark.parametrize("index", range(len(EMP_QUERIES)))
def test_empdept_differential_mp(emp_mp, index):
    servers, oracle = emp_mp
    assert_differential(servers, oracle, EMP_QUERIES[index])


@needs_fork
@pytest.mark.parametrize("index", range(len(CLOSURE_QUERIES)))
def test_closure_differential_mp(closure_mp, index):
    servers, oracle = closure_mp
    assert_differential(servers, oracle, CLOSURE_QUERIES[index])


# -- shared-memory table sync ----------------------------------------------------


@needs_fork
def test_pool_mode_fallback_stats_match_inprocess(monkeypatch):
    """Degradation inside a worker reaches the parent's counters and
    breaker board exactly as it does when the ladder runs in-process, and
    that board picks where every request starts in both modes."""
    database = build_empdept_database(
        n_departments=10, employees_per_department=5
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    original_prepare = Connection.prepare

    def sabotaged(self, query, strategy="emst", resilience=None):
        if strategy == "emst":
            raise RuntimeError("rewrite corrupted the graph")
        return original_prepare(self, query, strategy, resilience=resilience)

    # Patched before the fork: every worker inherits the fault.
    monkeypatch.setattr(Connection, "prepare", sabotaged)
    observed = {}
    for workers in (0, 2):
        server = QueryServer(database, ServerConfig(workers=workers))
        try:
            for name in ("Planning", "Dept0001", "Dept0002", "Dept0003"):
                response = server.handle_query(PARAM_QUERY, params=[name])
                assert response["requested_strategy"] == "emst"
                assert response["executed_strategy"] == "phase1"
                assert response["executor"] == "batch"
                assert bool(response.get("worker_pid")) == bool(workers)
            stats = server.handle_stats()
        finally:
            server.shutdown()
        observed[workers] = (
            stats["counters"]["fallbacks"],
            stats["breakers"]["strategies"]["emst"]["total_failures"],
            stats["breakers"]["demotions"],
        )
    # The default threshold opens the emst circuit after three failures,
    # so the fourth request starts at phase1 in both modes: one board.
    assert observed[0] == observed[2] == (3, 3, 2)


@needs_fork
def test_worker_never_parses_sql(monkeypatch):
    """The parent parses every request once; a worker runs the handle it
    is sent. Parsing anywhere but the parent raises."""
    import repro.api
    import repro.server.core

    parent = os.getpid()
    for module, name in ((repro.server.core, "parse_single_query"),
                         (repro.server.core, "parse_script"),
                         (repro.api, "parse_script")):
        original = getattr(module, name)

        def parent_only(*args, _original=original, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a worker parsed SQL")
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, parent_only)
    database = build_empdept_database(
        n_departments=8, employees_per_department=4
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    server = _mp_server(database)  # forks after the patch
    try:
        expected = canonical(Connection(database).execute(
            PARAM_QUERY.replace("?", "'Planning'")
        ).rows)
        response = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert response.get("worker_pid")
        assert canonical(map(tuple, response["rows"])) == expected
        handle, _ = server.handle_prepare(PARAM_QUERY)
        for _ in range(3):  # reaches every worker
            response = server.handle_execute(handle, ["Planning"])
            assert response.get("worker_pid")
            assert canonical(map(tuple, response["rows"])) == expected
    finally:
        server.shutdown()


@needs_fork
def test_pool_mode_failed_request_charges_no_breaker(monkeypatch):
    """A request that no rung answers is the query's own error, in a
    worker as in-process: it charges no strategy, past the breaker
    threshold, whether the rewrite or the data made it fail — and the
    next good request still runs emst."""
    from repro.server.workers import RemoteQueryError

    database = build_empdept_database(
        n_departments=10, employees_per_department=5
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    original_prepare = Connection.prepare

    def sabotaged(self, query, strategy="emst", resilience=None):
        if query.body.from_tables[0].name == "employee":
            raise RuntimeError("every rewrite broke")
        return original_prepare(self, query, strategy, resilience=resilience)

    # Patched before the fork: every worker inherits the fault.
    monkeypatch.setattr(Connection, "prepare", sabotaged)
    failing = [
        ("SELECT e.empname FROM employee e WHERE e.workdept = ?",
         ["D0000"], "every rewrite broke"),
        (DATA_ERROR_QUERY, [], "scalar subquery"),
    ]
    observed = {}
    for workers in (0, 2):
        config = ServerConfig(workers=workers)
        server = QueryServer(database, config)
        try:
            for sql, params, message in failing:
                for _ in range(config.breaker_failure_threshold + 1):
                    with pytest.raises((RuntimeError, ExecutionError,
                                        RemoteQueryError), match=message):
                        server.handle_query(sql, params=params)
            stats = server.handle_stats()
            good = server.handle_query(PARAM_QUERY, params=["Planning"])
        finally:
            server.shutdown()
        strategies = stats["breakers"]["strategies"]
        observed[workers] = (
            stats["counters"]["queries_failed"],
            stats["counters"]["fallbacks"],
            stats["breakers"]["demotions"],
            tuple((strategies[name]["state"], strategies[name]["total_failures"])
                  for name in ("emst", "phase1", "original")),
            good["executed_strategy"],
        )
    assert observed[0] == observed[2] == (
        8, 0, 0, (("closed", 0),) * 3, "emst"
    )


@needs_fork
def test_dml_is_visible_to_workers():
    """A script applied in the parent must be observable in worker
    executions via the shared-memory publish/sync protocol — including a
    table created after the workers forked."""
    database = build_empdept_database(
        n_departments=8, employees_per_department=4
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    server = _mp_server(database)
    try:
        before = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert before.get("worker_pid")
        server.handle_script(
            "UPDATE employee SET salary = salary + 5000 "
            "WHERE workdept = 'D0000'"
        )
        after = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert after.get("worker_pid")
        assert after["rows"] != before["rows"], "worker served pre-DML data"
        oracle = Connection(server.database, executor="tuple").execute(
            PARAM_QUERY.replace("?", "'Planning'")
        )
        assert canonical(map(tuple, after["rows"])) == canonical(oracle.rows)
        server.handle_script(
            "CREATE TABLE fresh_table (a, b); "
            "INSERT INTO fresh_table VALUES (1, 'x'), (2, 'y')"
        )
        created = server.handle_query(
            "SELECT f.a, f.b FROM fresh_table f"
        )
        assert created.get("worker_pid")
        assert canonical(map(tuple, created["rows"])) == canonical(
            [(1, "x"), (2, "y")]
        )
    finally:
        server.shutdown()


SALARY_RANK = (
    "SELECT COUNT(*) FROM employee e1, employee e2 "
    "WHERE e1.salary < e2.salary AND e1.workdept = ?"
)


@needs_fork
def test_workers_rebuild_sorted_paths_after_a_salary_update():
    """The salary-rank self-join bisects employee's sorted salary column,
    which each worker builds and keeps. An UPDATE of salary reaches the
    workers through ``load_columns``, which drops the path: every worker
    answers from the new salaries, as the oracle does at the new data
    version."""
    database = build_empdept_database(
        n_departments=8, employees_per_department=4
    )
    server = _mp_server(database)
    oracle = Connection(database).prepare_statement(
        SALARY_RANK, strategy="norewrite", executor="tuple"
    )

    def answers():
        # The idle queue hands requests to the workers in turn.
        responses = [
            server.handle_query(SALARY_RANK, params=["D0001"], fresh=True)
            for _ in range(4)
        ]
        assert len({r["worker_pid"] for r in responses}) == 2
        return {tuple(map(tuple, r["rows"])) for r in responses}

    try:
        before = answers()
        assert before == {tuple(oracle.execute(["D0001"])[0].rows)}
        server.handle_script(
            "UPDATE employee SET salary = salary + 1000000 "
            "WHERE workdept = 'D0000'"
        )
        after = answers()
        assert after == {tuple(oracle.execute(["D0001"])[0].rows)}
        assert after != before, "the update moved no count"
    finally:
        server.shutdown()


def test_shared_store_publish_and_apply_sync_without_fork():
    """The publish/sync protocol itself, no processes involved: a
    deep-copied database (standing in for a forked snapshot) catches up
    to the parent through the shared-memory segments alone — one segment
    per changed column."""
    parent = Database()
    parent.create_table("t", ["k", "v"], rows=[(1, "a"), (2, "b")])
    snapshot = copy.deepcopy(parent)
    store = SharedTableStore(parent)
    try:
        assert store.registry()["tables"] == {}
        Connection(parent).run_script("INSERT INTO t VALUES (3, 'c')")
        store.publish()
        registry = store.registry()
        assert "t" in registry["tables"]
        # An INSERT changes every column.
        assert sorted(registry["tables"]["t"]["columns"]) == [0, 1]
        state = {"catalog_generation": store.generation}
        apply_sync(snapshot, registry, state)
        assert snapshot.table("t").rows == parent.table("t").rows
        assert snapshot.table("t").version == parent.table("t").version
        # An unchanged second publish ships nothing new.
        published = store.published_tables
        store.publish()
        assert store.published_tables == published
        assert store.registry() == registry
        # An UPDATE of one column re-ships that column only.
        Connection(parent).run_script("UPDATE t SET v = 'z' WHERE k = 2")
        store.publish()
        updated = store.registry()["tables"]["t"]
        before = registry["tables"]["t"]
        assert updated["columns"][0] == before["columns"][0]
        assert updated["columns"][1] != before["columns"][1]
        assert updated["nbytes"] == sum(
            nbytes for _, _, nbytes in updated["columns"].values()
        )
        apply_sync(snapshot, store.registry(), state)
        table = snapshot.table("t")
        assert table.rows == [(1, "a"), (2, "z"), (3, "c")]
        assert table.version == parent.table("t").version
        assert table.column_versions == parent.table("t").column_versions
    finally:
        store.close()


# -- per-column sync through a forked pool ---------------------------------------


def _sync_server():
    database = Database()
    database.create_table(
        "t", ["k", "a", "b"], rows=[(i, i % 3, i * 10) for i in range(12)]
    )
    return database, _mp_server(database, workers=1)


def _fresh_rows(server):
    response = server.handle_query("SELECT k, a, b FROM t", fresh=True)
    assert response["worker_pid"] not in (None, os.getpid())
    return response, sorted(map(tuple, response["rows"]))


@needs_fork
def test_worker_sync_two_updates_of_different_columns():
    """Two UPDATEs of different columns, both published before the
    worker's next dispatch: the worker loads both columns (each at its
    own version) and serves the rows both statements left."""
    database, server = _sync_server()
    try:
        _, first = _fresh_rows(server)
        model = [(k, a, b) for k, a, b in first]
        server.handle_script("UPDATE t SET a = a + 100 WHERE k < 4")
        server.handle_script("UPDATE t SET b = 0 WHERE a = 2")
        model = [(k, a + 100 if k < 4 else a, b) for k, a, b in model]
        model = [(k, a, 0 if a == 2 else b) for k, a, b in model]
        columns = server.pool.store.registry()["tables"]["t"]["columns"]
        assert sorted(columns) == [1, 2]
        assert columns[1][0] != columns[2][0]  # one version per column
        _, rows = _fresh_rows(server)
        assert rows == sorted(model)
        assert rows == sorted(database.table("t").rows)
    finally:
        server.shutdown()


@needs_fork
def test_worker_sync_crash_between_publish_and_apply():
    """A worker killed after a publish and before applying it: its
    replacement is forked from the parent's current state, already
    holds the published columns, and serves the model's rows."""
    database, server = _sync_server()
    try:
        response, _ = _fresh_rows(server)
        victim = response["worker_pid"]
        server.handle_script("UPDATE t SET b = b + 1 WHERE a = 1")
        model = sorted(
            (k, a, b + 1 if a == 1 else b) for k, a, b in
            [(i, i % 3, i * 10) for i in range(12)]
        )
        os.kill(victim, signal.SIGKILL)
        # The kill is found at the next checkout (or, if the checkout
        # raced the kill, by the dispatch as a retryable crash).
        for _ in range(5):
            try:
                response, rows = _fresh_rows(server)
                break
            except WorkerCrashedError:
                continue
        assert response["worker_pid"] != victim
        assert server.pool.respawns >= 1
        assert rows == model
    finally:
        server.shutdown()


# -- the cross-request result cache ----------------------------------------------


@needs_fork
def test_result_cache_hit_skips_dispatch():
    """A warm result-cache hit is served by the parent without touching
    the pool: the dispatch counter must not move, the hit counter must."""
    database = build_empdept_database(
        n_departments=8, employees_per_department=4
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    server = _mp_server(database, result_cache_capacity=32)
    try:
        first = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert first.get("worker_pid")
        dispatches = server.pool.dispatches
        hits = server.result_cache.hits
        second = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert second["cache"] == "result"
        assert second["rows"] == first["rows"]
        # A hit touched no worker; it must not report a (possibly dead)
        # producer pid.
        assert "worker_pid" not in second
        assert server.pool.dispatches == dispatches, (
            "result-cache hit still dispatched to a worker"
        )
        assert server.result_cache.hits == hits + 1
        # fresh=True must bypass the cache and re-execute on a worker.
        forced = server.handle_query(
            PARAM_QUERY, params=["Planning"], fresh=True
        )
        assert forced.get("worker_pid")
        assert server.pool.dispatches == dispatches + 1
        assert forced["rows"] == first["rows"]
    finally:
        server.shutdown()


def test_result_cache_key_separates_bindings_and_versions():
    key_a = ResultCache.make_key("f", "emst", 1, ["x"], {"t": 1})
    assert key_a == ResultCache.make_key("f", "emst", 1, ["x"], {"t": 1})
    assert key_a != ResultCache.make_key("f", "emst", 1, ["y"], {"t": 1})
    assert key_a != ResultCache.make_key("f", "emst", 1, ["x"], {"t": 2})
    assert key_a != ResultCache.make_key("f", "emst", 2, ["x"], {"t": 1})
    assert key_a != ResultCache.make_key("f", "phase1", 1, ["x"], {"t": 1})
    assert (
        ResultCache.make_key("f", "emst", 1, [["un", "hashable"]], {"t": 1})
        is None
    )


def test_result_cache_entries_are_isolated_from_annotation():
    cache = ResultCache(capacity=4)
    key = ResultCache.make_key("f", "emst", 1, [], {})
    cache.store(key, {"columns": ["n"], "rows": [[1]], "row_count": 1,
                      "cache": "miss"})
    served = cache.lookup(key)
    served["rows"].append([999])
    served["cache"] = "mutated"
    again = cache.lookup(key)
    assert again["rows"] == [[1]]
    assert again["cache"] == "miss"


_interleaving = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("read"), st.just(0)),
    ),
    min_size=1,
    max_size=16,
)


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=_interleaving)
def test_result_cache_never_serves_stale(script):
    """The key invariant, hammered: under any interleaving of DML scripts
    and cached reads, a read equals ground-truth re-execution (fresh) and
    the hit counter matches the model — a read hits exactly when no write
    intervened since the previous read."""
    database = Database()
    database.create_table("t", ["k", "v"], rows=[(0, 0)])
    server = QueryServer(
        database, ServerConfig(result_cache_capacity=32)
    )
    try:
        model_rows = [(0, 0)]
        next_key = 1
        predicted_hits = 0
        read_since_write = False
        for op, arg in script:
            if op == "write":
                values = []
                for _ in range(arg):
                    values.append("(%d, %d)" % (next_key, next_key * 10))
                    model_rows.append((next_key, next_key * 10))
                    next_key += 1
                server.handle_script(
                    "INSERT INTO t VALUES %s" % ", ".join(values)
                )
                read_since_write = False
            else:
                response = server.handle_query("SELECT t.k, t.v FROM t")
                if read_since_write:
                    predicted_hits += 1
                    assert response["cache"] == "result"
                read_since_write = True
                assert canonical(map(tuple, response["rows"])) == canonical(
                    model_rows
                ), "cached read diverged from the model"
                truth = server.handle_query(
                    "SELECT t.k, t.v FROM t", fresh=True
                )
                assert canonical(map(tuple, response["rows"])) == canonical(
                    map(tuple, truth["rows"])
                ), "cached read diverged from ground-truth re-execution"
        assert server.result_cache.hits == predicted_hits
    finally:
        server.shutdown()


# -- statement-cache warming and persistence -------------------------------------


def _empdept_db():
    database = build_empdept_database(
        n_departments=8, employees_per_department=4
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    return database


def test_statement_cache_persists_across_restarts(tmp_path):
    path = str(tmp_path / "statements.json")
    first = QueryServer(
        _empdept_db(), ServerConfig(statement_cache_path=path)
    )
    try:
        first.handle_query(PARAM_QUERY, params=["Planning"])
        first.handle_query(
            "SELECT empname FROM employee WHERE workdept = 'D0001'"
        )
    finally:
        first.shutdown()  # saves the statement set
    assert os.path.exists(path)

    second = QueryServer(
        _empdept_db(), ServerConfig(statement_cache_path=path)
    )
    try:
        assert second.statements_warmed >= 2
        assert len(second.cache) >= 2
        warmed = second.handle_query(PARAM_QUERY, params=["Planning"])
        # The very first client execution hits the pre-warmed plan.
        assert warmed["cache"] == "hit"
    finally:
        second.shutdown()


def test_statement_cache_warming_survives_garbage(tmp_path):
    path = str(tmp_path / "statements.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    server = QueryServer(
        _empdept_db(), ServerConfig(statement_cache_path=path)
    )
    try:
        assert server.statements_warmed == 0
        ok = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert ok["row_count"] == 1
    finally:
        server.shutdown()


# -- worker crashes ---------------------------------------------------------------


def _crash_server():
    database = build_empdept_database(
        n_departments=20, employees_per_department=5
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    return database


def _run_query_in_thread(server, sql, **kwargs):
    outcome = {}

    def work():
        try:
            outcome["response"] = server.handle_query(sql, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — inspected by the test
            outcome["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread, outcome


def _wait_busy(pool, timeout=15):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        busy = pool.busy_pids()
        if busy:
            return busy
        time.sleep(0.005)
    raise AssertionError("query never reached a worker")


@needs_fork
@pytest.mark.chaos
def test_sigkill_mid_query_is_retryable_and_respawns():
    server = _mp_server(
        _crash_server(), workers=1, result_cache_capacity=16,
        worker_crash_threshold=100,
    )
    try:
        entries_before = len(server.result_cache)
        thread, outcome = _run_query_in_thread(
            server, SLOW_COUNT_QUERY, deadline=60
        )
        victim = _wait_busy(server.pool)[0]
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=60)
        assert not thread.is_alive()
        error = outcome.get("error")
        assert isinstance(error, WorkerCrashedError), (
            "expected WorkerCrashedError, got %r"
            % (error or outcome.get("response"))
        )
        assert error.retryable is True
        assert error.pid == victim
        # No partially-built result-cache entry survived the crash.
        assert len(server.result_cache) == entries_before
        # The pool respawned: a retry succeeds on a *different* process.
        retried = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert retried.get("worker_pid")
        assert retried["worker_pid"] != victim
        oracle = Connection(server.database, executor="tuple").execute(
            PARAM_QUERY.replace("?", "'Planning'")
        )
        assert canonical(map(tuple, retried["rows"])) == canonical(
            oracle.rows
        )
        assert server.pool.respawns >= 1
    finally:
        server.shutdown()


@needs_fork
@pytest.mark.chaos
def test_sigkill_mid_fixpoint_is_retryable():
    database = _crash_server()
    edges = [(i, i + 1) for i in range(150)] + [(150, 0)]
    database.create_table("edge", ["src", "dst"], rows=edges)
    server = _mp_server(
        database, workers=1, worker_crash_threshold=100
    )
    fixpoint = (
        "WITH RECURSIVE path (src, dst) AS ("
        "  SELECT e.src, e.dst FROM edge e"
        "  UNION"
        "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst"
        ") SELECT COUNT(*) FROM path p"
    )
    try:
        thread, outcome = _run_query_in_thread(
            server, fixpoint, deadline=120
        )
        victim = _wait_busy(server.pool)[0]
        time.sleep(0.05)  # let a few delta rounds run
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=120)
        assert not thread.is_alive()
        error = outcome.get("error")
        if error is None:
            # The fixpoint finished before the kill landed: the reply
            # must then be correct.
            expected = Connection(server.database).execute(fixpoint)
            assert canonical(
                map(tuple, outcome["response"]["rows"])
            ) == canonical(expected.rows)
        else:
            assert isinstance(error, WorkerCrashedError)
            assert error.retryable is True
            # Retrying the same fixpoint on the respawned worker succeeds.
            retried = server.handle_query(fixpoint, deadline=120)
            expected = Connection(server.database).execute(fixpoint)
            assert canonical(map(tuple, retried["rows"])) == canonical(
                expected.rows
            )
    finally:
        server.shutdown()


@needs_fork
@pytest.mark.chaos
def test_crash_breaker_demotes_to_inprocess():
    server = _mp_server(
        _crash_server(), workers=1,
        worker_crash_threshold=1, worker_cooldown_seconds=1000,
    )
    try:
        thread, outcome = _run_query_in_thread(
            server, SLOW_COUNT_QUERY, deadline=60
        )
        victim = _wait_busy(server.pool)[0]
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=60)
        assert isinstance(outcome.get("error"), WorkerCrashedError)
        assert server.pool.breaker.state == "open"
        # Circuit open: the next query runs in-process (degraded), still
        # correctly.
        degraded = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert degraded.get("worker_pid") is None
        oracle = Connection(server.database, executor="tuple").execute(
            PARAM_QUERY.replace("?", "'Planning'")
        )
        assert canonical(map(tuple, degraded["rows"])) == canonical(
            oracle.rows
        )
        assert server.pool.degraded_dispatches >= 1
    finally:
        server.shutdown()


@needs_fork
def test_cancel_mid_dispatch_kills_worker_and_respawns():
    server = _mp_server(_crash_server(), workers=1)
    try:
        cancel = threading.Event()
        thread, outcome = _run_query_in_thread(
            server, SLOW_COUNT_QUERY, deadline=60, cancel_event=cancel
        )
        victim = _wait_busy(server.pool)[0]
        cancel.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), QueryCancelledError)
        # The abandoned worker was killed and replaced.
        assert server.pool.kills >= 1
        follow_up = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert follow_up.get("worker_pid")
        assert follow_up["worker_pid"] != victim
    finally:
        server.shutdown()


@needs_fork
@pytest.mark.chaos
def test_worker_chaos_batteries():
    from repro.server.chaos import run_worker_chaos

    report = run_worker_chaos(
        seed=20260808, scale=0.15, crash_rounds=3, verbose=False
    )
    assert report["worker_crashes"] >= 1
    assert report["worker_respawns"] >= report["worker_crashes"]
    assert report["final_workers"]["workers"] == 2
