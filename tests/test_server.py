"""The multi-session query server: protocol, plan cache, admission,
breakers, deadlines/cancellation, and the socket stack end to end."""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Connection, Database
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    ResourceExhaustedError,
    ServerOverloadedError,
)
from repro.resilience import (
    CircuitBreaker,
    ResourceGovernor,
    RetryPolicy,
    StrategyBreakerBoard,
)
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.chaos import ServerHarness
from repro.server.client import ServerError
from repro.server.core import QueryServer, ServerConfig
from repro.server.plan_cache import (
    AdornmentPlanCache,
    CachedPlan,
    statement_adornment,
)
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database


# -- fixtures --------------------------------------------------------------------


@pytest.fixture
def empdept_server():
    database = build_empdept_database(
        n_departments=10, employees_per_department=5
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    server = QueryServer(database, ServerConfig())
    yield server
    server.shutdown()


PARAM_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = ?"
)
#: Fails on its own data under every strategy and both engines: the
#: scalar subquery returns one row per employee.
DATA_ERROR_QUERY = (
    "SELECT d.deptname FROM department d WHERE d.deptno = "
    "(SELECT e.workdept FROM employee e WHERE e.salary > 0)"
)


# -- protocol --------------------------------------------------------------------


def test_frame_roundtrip():
    frame = protocol.encode_frame({"op": "ping", "id": 7})
    length = protocol.decode_length(frame[:4])
    assert length == len(frame) - 4
    assert protocol.decode_payload(frame[4:]) == {"op": "ping", "id": 7}


def test_oversized_frame_rejected_without_reading_payload():
    import struct

    header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_length(header)


def test_garbage_payload_rejected():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_payload(b"not json at all")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_payload(b"[1, 2, 3]")  # not an object


def test_error_serialization_carries_retry_metadata():
    exc = ServerOverloadedError(
        "shed", retry_after=0.25, queue_depth=4, active=8
    )
    wire = protocol.error_to_wire(exc)
    assert wire["type"] == "ServerOverloadedError"
    assert wire["retryable"] is True
    assert wire["retry_after"] == 0.25
    assert wire["context"]["queue_depth"] == 4


# -- plan cache ------------------------------------------------------------------


def _entry(fingerprint="f1", adornment="b", strategy="emst", version=0):
    return CachedPlan(
        fingerprint=fingerprint,
        adornment=adornment,
        strategy=strategy,
        catalog_version=version,
        graph=object(),
        plan=None,
        heuristic=None,
        param_count=1,
        statistics={("t", None): 3},
    )


def test_cache_hit_and_miss_counting():
    cache = AdornmentPlanCache(capacity=4)
    assert cache.lookup("f1", "emst", 0) is None
    cache.store(_entry())
    hit = cache.lookup("f1", "emst", 0)
    assert hit is not None and hit.hits == 1
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_invalidated_by_catalog_version():
    cache = AdornmentPlanCache(capacity=4)
    cache.store(_entry(version=0))
    assert cache.lookup("f1", "emst", 1) is None
    assert cache.stats()["invalidated"] == 1
    # The stale entry is purged, not resurrected by an old-version lookup.
    assert cache.lookup("f1", "emst", 0) is None


def test_cache_distinguishes_strategies():
    cache = AdornmentPlanCache(capacity=4)
    cache.store(_entry(strategy="emst"))
    cache.store(_entry(strategy="original"))
    assert cache.lookup("f1", "emst", 0).strategy == "emst"
    assert cache.lookup("f1", "original", 0).strategy == "original"


def test_cache_lru_eviction():
    cache = AdornmentPlanCache(capacity=2)
    cache.store(_entry(fingerprint="a"))
    cache.store(_entry(fingerprint="b"))
    cache.lookup("a", "emst", 0)  # refresh a
    cache.store(_entry(fingerprint="c"))  # evicts b
    assert cache.lookup("b", "emst", 0) is None
    assert cache.lookup("a", "emst", 0) is not None
    assert cache.stats()["evictions"] == 1


def test_plan_staleness_detection():
    entry = _entry()
    db = Database()
    db.create_table("t", ["a"], rows=[(1,), (2,), (3,)])
    assert entry.staleness(db.catalog) == []
    db.insert("t", [(4,), (5,)])
    db.analyze("t")
    assert entry.staleness(db.catalog) == ["t"]


def test_statement_adornment_letters():
    from repro.qgm import build_query_graph
    from repro.sql import parse_statement

    db = Database()
    db.create_table("t", ["a", "b", "c"], rows=[(1, 2, 3)])
    query = parse_statement(
        "SELECT c FROM t WHERE a = ? AND b > ?"
    )
    graph = build_query_graph(query, db.catalog)
    assert statement_adornment(graph) == "bc"


# -- admission -------------------------------------------------------------------


def test_admission_sheds_past_queue_with_retry_after():
    admission = AdmissionController(max_concurrent=1, max_queue=1)
    tickets = [admission.try_admit(), admission.try_admit()]
    with pytest.raises(ServerOverloadedError) as info:
        admission.try_admit()
    assert info.value.retry_after is not None
    assert info.value.context["retry_after"] == info.value.retry_after
    for ticket in tickets:
        admission.release(ticket)
    assert admission.try_admit() is not None
    stats = admission.stats()
    assert stats["shed"] == 1 and stats["admitted"] == 3


def test_admission_ewma_tracks_service_time():
    clock = [0.0]
    admission = AdmissionController(
        max_concurrent=1, max_queue=0,
        default_service_seconds=0.0, ewma_alpha=1.0,
        clock=lambda: clock[0],
    )
    ticket = admission.try_admit()
    clock[0] = 2.0
    admission.release(ticket)
    assert admission.stats()["ewma_service_seconds"] == 2.0


# -- circuit breakers ------------------------------------------------------------


def test_breaker_opens_after_threshold_and_recovers():
    clock = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=2, cooldown_seconds=10, clock=lambda: clock[0]
    )
    assert breaker.allows()
    breaker.record_failure(ValueError("boom"))
    assert breaker.allows()
    breaker.record_failure(ValueError("boom"))
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allows()
    clock[0] = 11.0
    assert breaker.allows()  # half-open trial
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_half_open_failure_reopens():
    clock = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown_seconds=5, clock=lambda: clock[0]
    )
    breaker.record_failure()
    clock[0] = 6.0
    assert breaker.allows()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.times_opened == 2


def test_board_demotes_along_chain_and_never_blocks_original():
    clock = [0.0]
    board = StrategyBreakerBoard(
        failure_threshold=1, cooldown_seconds=100, clock=lambda: clock[0]
    )
    assert board.select("emst") == "emst"
    board.record_failure("emst", ValueError("bad rewrite"))
    assert board.select("emst") == "phase1"
    board.record_failure("phase1", ValueError("also bad"))
    assert board.select("emst") == "original"
    board.record_failure("original", ValueError("cannot block"))
    assert board.select("emst") == "original"
    # Strategies outside the chain pass through untouched.
    assert board.select("correlated") == "correlated"
    clock[0] = 101.0
    assert board.select("emst") == "emst"  # cooldown elapsed: trial


# -- retry policy ----------------------------------------------------------------


def test_retry_policy_classification_and_delay_floor():
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=1.0)
    assert policy.is_retryable({"retryable": True})
    assert not policy.is_retryable({"retryable": False})
    assert policy.is_retryable(ConnectionError())
    assert policy.is_retryable(ServerOverloadedError("shed"))
    assert not policy.is_retryable(ExecutionError("typo"))
    assert policy.should_retry(1, ConnectionError())
    assert not policy.should_retry(3, ConnectionError())
    assert policy.delay(1, retry_after=0.5) >= 0.5
    assert RetryPolicy.retry_after_from(
        {"context": {"retry_after": 0.7}}
    ) == 0.7


# -- governor satellites ---------------------------------------------------------


def test_governor_remaining_snapshot():
    governor = ResourceGovernor(
        deadline_seconds=100.0, max_materialized_rows=10
    )
    governor.materialized_rows = 4
    remaining = governor.remaining()
    assert remaining["max_materialized_rows"] == 6
    assert 0 < remaining["deadline_seconds"] <= 100.0
    assert remaining["max_correlated_invocations"] is None


def test_deadline_error_carries_retry_after():
    governor = ResourceGovernor(deadline_seconds=0.0)
    time.sleep(0.001)
    with pytest.raises(ResourceExhaustedError) as info:
        governor.check_deadline("test")
    assert info.value.retry_after == 0.0
    assert info.value.context["retry_after"] == 0.0


def test_cancel_token_trips_checkpoint():
    governor = ResourceGovernor()
    event = threading.Event()
    governor.attach_cancel_token(event, "client disconnected")
    governor.checkpoint("anywhere")  # not yet set: no-op
    event.set()
    with pytest.raises(QueryCancelledError) as info:
        governor.checkpoint("join processing")
    assert info.value.reason == "client disconnected"
    assert info.value.retryable is True
    # begin_query clears the token: the next query is unaffected.
    governor.begin_query()
    governor.checkpoint("next query")


# -- table/catalog versioning (satellite) ----------------------------------------


def test_ddl_and_dml_bump_versions_consistently():
    db = Database()
    v0 = db.schema_version()
    db.create_table("t", ["a", "b"], rows=[(1, 2)])
    assert db.schema_version() == v0 + 1
    conn = Connection(db)
    table = db.table("t")
    data0 = table.version
    conn.run_script("INSERT INTO t VALUES (3, 4), (5, 6)")
    assert table.version == data0 + 1  # one statement, one bump
    conn.run_script("UPDATE t SET b = 9 WHERE a = 3")
    assert table.version == data0 + 2
    conn.run_script("DELETE FROM t WHERE a = 5")
    assert table.version == data0 + 3
    schema_before = db.schema_version()
    conn.run_script("CREATE VIEW v (x) AS SELECT a FROM t")
    assert db.schema_version() == schema_before + 1
    db.catalog.drop_view("v")
    assert db.schema_version() == schema_before + 2
    assert db.table_versions(["t"]) == {"t": data0 + 3}


def test_scoped_views_do_not_bump_catalog_version():
    db = Database()
    db.create_table("t", ["a"], rows=[(1,)])
    conn = Connection(db)
    version = db.schema_version()
    conn.explain_execute(
        "CREATE VIEW inline_v (x) AS SELECT a FROM t; "
        "SELECT x FROM inline_v"
    )
    assert db.schema_version() == version
    assert not db.catalog.has_view("inline_v")


# -- server core (no sockets) ----------------------------------------------------


def test_query_caches_across_bindings(empdept_server):
    server = empdept_server
    first = server.handle_query(PARAM_QUERY, params=["Planning"])
    second = server.handle_query(PARAM_QUERY, params=["Dept0003"])
    assert first["cache"] == "miss" and second["cache"] == "hit"
    assert first["adornment"] == "b"
    assert second["row_count"] == 1
    # Literal spelling joins the same plan via auto-parameterization.
    third = server.handle_query(PARAM_QUERY.replace("?", "'Dept0004'"))
    assert third["cache"] == "hit"
    assert third["fingerprint"] == first["fingerprint"]


def test_cached_results_match_original_strategy_oracle(empdept_server):
    server = empdept_server
    oracle = Connection(server.database)
    for name in ("Planning", "Dept0002", "Dept0007", "NoSuchDept"):
        server.handle_query(PARAM_QUERY, params=[name])  # warm
        answer = server.handle_query(PARAM_QUERY, params=[name])
        expected = oracle.execute(
            PARAM_QUERY.replace("?", "'%s'" % name), strategy="original"
        )
        assert sorted(map(tuple, answer["rows"])) == sorted(expected.rows)


def test_ddl_invalidates_cached_plans(empdept_server):
    server = empdept_server
    server.handle_query(PARAM_QUERY, params=["Planning"])
    assert server.handle_query(PARAM_QUERY, params=["Planning"])["cache"] == "hit"
    server.handle_script("CREATE TABLE unrelated (x, y)")
    after = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert after["cache"] == "miss"
    assert server.cache.stats()["invalidated"] >= 1


def test_dml_evicts_stale_plan_and_replans(empdept_server):
    """DML used to leave stale plans serving forever (``stale_tables``
    reported the problem, nothing acted on it). The cache now evicts a
    hit some statistic of whose plan passes moved (here the INSERT moves
    ``employee``'s row count) and re-prepares against current statistics
    — the response says so (``cache == "replan"``), the replanned entry
    is *not* stale, and subsequent executions hit the fresh plan."""
    server = empdept_server
    server.handle_query(PARAM_QUERY, params=["Planning"])
    server.handle_script(
        "INSERT INTO employee VALUES (99999, 'New', 'D0001', 70000, 'CLERK')"
    )
    result = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert result["cache"] == "replan"  # stale plan evicted, re-prepared
    assert result["stale_tables"] == []  # the new plan has fresh versions
    assert server.cache.stats()["stale_replans"] >= 1
    again = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert again["cache"] == "hit"  # replanned entry serves until next DML


def test_dml_on_unrelated_table_does_not_replan(empdept_server):
    """Plan staleness is tracked per statistic the plan passes read: DML
    against a table the plan never touches must not evict it."""
    server = empdept_server
    server.handle_script("CREATE TABLE bystander (x, y)")
    server.handle_query(PARAM_QUERY, params=["Planning"])
    assert (
        server.handle_query(PARAM_QUERY, params=["Planning"])["cache"]
        == "hit"
    )
    server.handle_script("INSERT INTO bystander VALUES (1, 2)")
    result = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert result["cache"] == "hit"
    assert result["stale_tables"] == []


def _cached_entry(server, sql):
    handle, _ = server.handle_prepare(sql)
    entry = server.cache.lookup(
        handle.fingerprint, handle.strategy, server.database.schema_version()
    )
    return handle, entry


def test_update_of_unread_column_keeps_plan(empdept_server):
    """No plan pass of ``PARAM_QUERY`` estimates over ``salary``: a
    salary-only UPDATE moves none of the statistics the plan read, so the
    cache keeps it — and the kept plan is the one a fresh prepare gives."""
    server = empdept_server
    server.handle_query(PARAM_QUERY, params=["Planning"])
    replans = server.cache.stats()["stale_replans"]
    server.handle_script(
        "UPDATE employee SET salary = salary + 1000 WHERE workdept = 'D0001'"
    )
    result = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert result["cache"] == "hit"
    assert result["stale_tables"] == []
    assert server.cache.stats()["stale_replans"] == replans
    handle, entry = _cached_entry(server, PARAM_QUERY)
    assert ("employee", "salary") not in entry.statistics
    connection = Connection(server.database)
    _, plan, heuristic, _ = connection.prepare(handle.query, handle.strategy)
    assert entry.plan.join_orders == plan.join_orders
    assert entry.plan.total_cost == plan.total_cost
    assert entry.heuristic.used_emst == heuristic.used_emst
    assert entry.statistics == heuristic.statistics_read


def test_update_of_read_column_replans(empdept_server):
    """An UPDATE that moves a statistic the plan read (``workdept``'s
    distinct count) re-plans, and names the table in ``stale_tables``
    until it does."""
    server = empdept_server
    server.handle_query(PARAM_QUERY, params=["Planning"])
    replans = server.cache.stats()["stale_replans"]
    server.handle_script(
        "UPDATE employee SET workdept = 'D0000' WHERE workdept = 'D0001'"
    )
    _, entry = _cached_entry(server, PARAM_QUERY)
    assert entry.staleness(server.database.catalog) == ["employee"]
    result = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert result["cache"] == "replan"
    assert result["stale_tables"] == []
    assert server.cache.stats()["stale_replans"] == replans + 1


def test_prepare_execute_parameter_mismatch(empdept_server):
    handle, description = empdept_server.handle_prepare(PARAM_QUERY)
    assert description["param_count"] == 1
    with pytest.raises(ExecutionError):
        empdept_server.handle_execute(handle, params=[])


def test_breaker_demotes_failing_strategy(empdept_server):
    server = empdept_server
    server.breakers = StrategyBreakerBoard(
        failure_threshold=2, cooldown_seconds=1000
    )
    original_prepare = server.connection.prepare

    def sabotaged(query, strategy="emst", resilience=None):
        if strategy == "emst":
            raise RuntimeError("rewrite corrupted the graph")
        return original_prepare(query, strategy, resilience=resilience)

    server.connection.prepare = sabotaged
    # Requests succeed via in-request fallback while emst keeps failing...
    for _ in range(2):
        result = server.handle_query(PARAM_QUERY, params=["Planning"])
        assert result["executed_strategy"] == "phase1"
        assert result["requested_strategy"] == "emst"
    # ...and after the threshold the breaker skips emst outright.
    assert server.breakers.select("emst") == "phase1"
    snapshot = server.breakers.snapshot()
    assert snapshot["strategies"]["emst"]["state"] == "open"
    result = server.handle_query(PARAM_QUERY, params=["Dept0001"])
    assert result["executed_strategy"] == "phase1"


def test_query_no_rung_answers_charges_no_strategy(empdept_server):
    """A query that fails on its own data fails on every rung: that is
    the query's error, not any strategy's. Sent past the breaker
    threshold it opens no circuit, and the next good query runs emst."""
    server = empdept_server
    repeats = server.config.breaker_failure_threshold + 1
    for _ in range(repeats):
        with pytest.raises(ExecutionError, match="scalar subquery"):
            server.handle_query(DATA_ERROR_QUERY)
    stats = server.handle_stats()
    for name, breaker in stats["breakers"]["strategies"].items():
        assert breaker["state"] == "closed", name
        assert breaker["total_failures"] == 0, name
    assert stats["breakers"]["demotions"] == 0
    assert stats["counters"]["fallbacks"] == 0
    assert stats["counters"]["queries_failed"] == repeats
    result = server.handle_query(PARAM_QUERY, params=["Planning"])
    assert result["executed_strategy"] == "emst"


@pytest.mark.parametrize(
    "executor, engine", [("batch", "BatchEvaluator"), ("tuple", "Evaluator")]
)
def test_failing_request_runs_each_rung_once(empdept_server, monkeypatch,
                                             executor, engine):
    """One engine run per rung, on the requested executor: the ladder is
    the only retry."""
    from repro.engine import Evaluator

    runs = []
    original_run = Evaluator.run

    def spy(self):
        runs.append(type(self).__name__)
        return original_run(self)

    monkeypatch.setattr(Evaluator, "run", spy)
    with pytest.raises(ExecutionError, match="scalar subquery"):
        empdept_server.handle_query(DATA_ERROR_QUERY, executor=executor)
    assert runs == [engine] * 3


def test_server_clamps_deadline(empdept_server):
    empdept_server.config.max_deadline_seconds = 0.0
    with pytest.raises(ResourceExhaustedError) as info:
        empdept_server.handle_query(
            PARAM_QUERY, params=["Planning"], deadline=9999
        )
    assert info.value.limit == "deadline_seconds"


# -- deadlines/cancellation inside the recursive fixpoint (satellite) ------------


def _chain_database(length=60):
    db = Database()
    db.create_table(
        "edge", ["src", "dst"], rows=[(i, i + 1) for i in range(length)]
    )
    return db


CLOSURE = (
    "WITH RECURSIVE reach (n) AS ("
    "  SELECT dst FROM edge WHERE src = 0 "
    "  UNION "
    "  SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
    "SELECT n FROM reach"
)


class _CancelAtRound(ResourceGovernor):
    """Deterministically sets its own cancel token when the fixpoint
    reaches ``trip_round``, recording every round observed after that."""

    def __init__(self, trip_round):
        super().__init__()
        self.trip_round = trip_round
        self.rounds_seen = []

    def check_fixpoint_rounds(self, rounds, component):
        self.rounds_seen.append(rounds)
        if rounds == self.trip_round:
            self.cancel("test trip")
        super().check_fixpoint_rounds(rounds, component)


def test_cancel_mid_fixpoint_aborts_within_one_round():
    db = _chain_database(60)
    governor = _CancelAtRound(trip_round=5)
    from repro.resilience import ResiliencePolicy

    policy = ResiliencePolicy(governor=governor)
    before_rows = list(db.table("edge").rows)
    before_version = db.schema_version()
    with pytest.raises(QueryCancelledError) as info:
        Connection(db).explain_execute(
            CLOSURE, strategy="norewrite", resilience=policy
        )
    # The abort happened in the round that tripped — not rounds later.
    assert max(governor.rounds_seen) == 5
    assert "fixpoint" in info.value.where
    assert info.value.retryable is True
    # No partial state: storage and catalog untouched, clean retry works.
    assert db.table("edge").rows == before_rows
    assert db.schema_version() == before_version
    clean = Connection(db).explain_execute(CLOSURE, strategy="norewrite")
    assert len(clean.rows) == 60


class _DeadlineAtRound(ResourceGovernor):
    """A 50 ms deadline that, deterministically, has not elapsed until
    the fixpoint reaches ``trip_round`` and has elapsed from then on."""

    def __init__(self, trip_round):
        super().__init__(deadline_seconds=0.05)
        self.trip_round = trip_round
        self.tripped = False

    def check_fixpoint_rounds(self, rounds, component):
        self.tripped = self.tripped or rounds == self.trip_round
        super().check_fixpoint_rounds(rounds, component)

    def elapsed_seconds(self):
        return 1.0 if self.tripped else 0.0


def test_deadline_mid_fixpoint_structured_error():
    db = _chain_database(60)
    from repro.resilience import ResiliencePolicy

    policy = ResiliencePolicy(governor=_DeadlineAtRound(trip_round=5))
    with pytest.raises(ResourceExhaustedError) as info:
        Connection(db).explain_execute(
            CLOSURE, strategy="norewrite", resilience=policy
        )
    assert info.value.limit == "deadline_seconds"
    assert info.value.retry_after == 0.05
    assert "fixpoint" in info.value.context["where"]


class _TripAfter:
    """A cancel token that trips after N observations — models a client
    disconnect at an arbitrary cooperative checkpoint."""

    def __init__(self, after):
        self.after = after
        self.calls = 0

    def is_set(self):
        self.calls += 1
        return self.calls > self.after


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    trip_after=st.integers(min_value=1, max_value=200),
    src=st.integers(min_value=0, max_value=6),
)
def test_cancelled_then_retried_equals_clean(trip_after, src):
    db = _chain_database(12)
    sql = CLOSURE.replace("src = 0", "src = %d" % src)
    from repro.resilience import ResiliencePolicy

    governor = ResourceGovernor()
    governor.attach_cancel_token(_TripAfter(trip_after), "chaos")
    policy = ResiliencePolicy(governor=governor)
    conn = Connection(db)
    try:
        first = conn.explain_execute(
            sql, strategy="norewrite", resilience=policy
        ).rows
    except QueryCancelledError:
        first = None  # cancelled cleanly; nothing to compare yet
    retried = conn.explain_execute(sql, strategy="norewrite").rows
    oracle = conn.explain_execute(sql, strategy="original").rows
    assert sorted(retried) == sorted(oracle)
    if first is not None:
        assert sorted(first) == sorted(oracle)


# -- the socket stack ------------------------------------------------------------


def test_socket_stack_end_to_end():
    database = build_empdept_database(
        n_departments=8, employees_per_department=4
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    config = ServerConfig(port=0, max_concurrent=2, max_queue=2)
    with ServerHarness(database, config) as harness:
        with harness.client() as client:
            assert client.ping()["pong"] is True
            first = client.query(PARAM_QUERY, params=["Planning"])
            assert first["row_count"] == 1 and first["cache"] == "miss"
            second = client.query(PARAM_QUERY, params=["Dept0002"])
            assert second["cache"] == "hit"
            prepared = client.prepare(
                "SELECT empname FROM employee WHERE workdept = ?"
            )
            result = client.execute(prepared["statement"], params=["D0001"])
            assert result["row_count"] == 4
            with pytest.raises(ServerError) as info:
                client.query("SELECT broken syntax FROM")
            assert info.value.retryable is False
            stats = client.stats()
            assert stats["cache"]["hits"] >= 1
            assert stats["admission"]["admitted"] >= 4


@pytest.mark.chaos
def test_session_chaos_batteries():
    from repro.server.chaos import run_session_chaos

    report = run_session_chaos(
        seed=20260808, scale=0.12, poison_rounds=8,
        storm_clients=6, storm_requests=3, verbose=False,
    )
    assert report["slow_client_ok"]
    assert report["disconnect_ok"]
    assert report["poisoning_checked"] >= 1
    assert report["storm_outcomes"]["ok"] >= 1
