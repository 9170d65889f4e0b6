"""The engine-facing server core: caching, admission, deadlines, fallback.

:class:`QueryServer` is transport-agnostic — every ``handle_*`` method is
a plain synchronous function, called by the asyncio session layer on
executor threads (and directly by tests, which is how the concurrency
semantics stay testable without sockets).

Concurrency model:

* **queries share, DDL excludes** — a reader-writer lock gives every
  query a stable catalog for its whole prepare + execute span, while a
  script carrying CREATE/INSERT/DELETE/UPDATE waits for running queries
  and runs alone. Combined with the catalog version in the plan-cache
  key this yields snapshot-consistent reads: a query sees either the
  catalog before a DDL or after it, never a half-applied mix, and plans
  prepared before the DDL are unreachable after it.
* **cache misses serialize** — preparing may register statement-scoped
  inline views in the shared catalog; the plan cache's prepare lock makes
  that safe. Post-warmup the hot path (look up the plan, run its compiled
  program with this request's parameter values) never takes it.
* **deadlines and cancellation are cooperative** — each request gets a
  :class:`~repro.resilience.ResourceGovernor` with a clamped deadline and
  the session's cancel token; the evaluator checkpoints observe both.
* **every per-request decision is made here, once** — parse, parameter
  check, deadline clamp, starting strategy, result cache, counters and
  breaker accounting; a pool worker only runs the request it is handed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.api import (
    Connection,
    check_executor,
    check_strategy,
    parse_single_query,
    running_executor,
)
from repro.errors import ExecutionError
from repro.resilience.breaker import StrategyBreakerBoard
from repro.sql import parse_script, to_sql
from repro.sql.parameterize import (
    fingerprint_query,
    parameter_slots,
    parameterize_query,
)
from repro.server.admission import AdmissionController
from repro.server.plan_cache import AdornmentPlanCache, run_prepared
from repro.server.result_cache import ResultCache


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 7474
    #: Queries executing at once; more wait in the bounded queue.
    max_concurrent: int = 8
    max_queue: int = 16
    #: Deadline applied when the client sends none; client requests are
    #: clamped to ``max_deadline_seconds`` so one session cannot opt out
    #: of the server's latency envelope.
    default_deadline_seconds: float = 10.0
    max_deadline_seconds: float = 60.0
    cache_capacity: int = 128
    default_strategy: str = "emst"
    #: The server's one execution engine: "batch" is the columnar
    #: executor, "tuple" the classic row-at-a-time evaluator. Requests
    #: cannot pick another; ``correlated`` always runs on "tuple".
    default_executor: str = "batch"
    breaker_failure_threshold: int = 3
    breaker_cooldown_seconds: float = 5.0
    #: Per-query row budget (None = unlimited) forwarded to the governor.
    max_materialized_rows: Optional[int] = None
    #: Forked worker processes executing queries (0 = everything runs
    #: in-process on the thread pool, the pre-multiprocess behaviour).
    workers: int = 0
    #: Consecutive worker crashes before the crash breaker opens and
    #: execution demotes to the in-process path for the cooldown.
    worker_crash_threshold: int = 3
    worker_cooldown_seconds: float = 5.0
    #: Cross-request result cache: entries keyed on ``(fingerprint,
    #: strategy, catalog version, bindings, table versions)``.
    #: 0 disables it (default: correctness-first opt-in).
    result_cache_capacity: int = 0
    result_cache_max_rows: int = 10000
    #: Where the statement registry is persisted on shutdown and warmed
    #: from on boot (None = no persistence). Warming replays each
    #: recorded statement through prepare, so the plan cache is hot —
    #: and, when warming happens before the pool forks, inherited by
    #: every worker.
    statement_cache_path: Optional[str] = None


class ReadWriteLock:
    """Many readers or one writer; writers take priority (a waiting DDL
    blocks new queries, so it cannot starve behind a query stream)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


@dataclass
class PreparedHandle:
    """A server-side prepared statement: the parse/parameterize work done
    once; plans materialize in the shared cache on first execute (and
    rematerialize transparently after DDL bumps the catalog version).
    Pickled as is into every pool dispatch."""

    query: object
    views: list
    fingerprint: str
    strategy: str
    param_count: int
    #: Values auto-extracted from literals; explicit ``?`` bindings from
    #: the client are prepended at execute time.
    extracted_values: list = field(default_factory=list)
    #: The engine that runs it, derived from the server's config.
    executor: str = "batch"

    def bind(self, params):
        """The execution's parameter vector: the client's ``?`` values,
        then the values extracted from literals."""
        return list(params or []) + list(self.extracted_values)


def _script_fingerprint(views, query):
    """Fingerprint of a parameterized query *plus* its inline views: two
    scripts whose SELECTs match but whose CREATE VIEWs differ must never
    share a cached plan."""
    if not views:
        return fingerprint_query(query)
    digest = hashlib.sha256()
    for view in views:
        digest.update(to_sql(view).encode("utf-8"))
        digest.update(b";")
    digest.update(to_sql(query).encode("utf-8"))
    return digest.hexdigest()[:24]


class QueryServer:
    """Shared-database, multi-session query service (transport-agnostic)."""

    def __init__(self, database, config=None):
        self.database = database
        self.config = config or ServerConfig()
        check_executor(self.config.default_executor)
        self.connection = Connection(database)
        self.cache = AdornmentPlanCache(capacity=self.config.cache_capacity)
        self.result_cache = ResultCache(
            capacity=self.config.result_cache_capacity,
            max_rows=self.config.result_cache_max_rows,
        )
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            max_queue=self.config.max_queue,
            parallelism=max(self.config.workers, 1),
        )
        self.breakers = StrategyBreakerBoard(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_seconds=self.config.breaker_cooldown_seconds,
        )
        self.lock = ReadWriteLock()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="repro-query",
        )
        self._stats_lock = threading.Lock()
        self.queries_ok = 0
        self.queries_failed = 0
        self.cancellations = 0
        self.deadline_trips = 0
        self.fallbacks = 0
        #: ``fingerprint -> {sql, strategy}``: everything ever
        #: prepared on this server, the source of statement-cache
        #: persistence across restarts.
        self._registry_lock = threading.Lock()
        self._statement_registry = {}
        self.statements_warmed = 0
        # Warm BEFORE forking the pool: plans prepared here are part of
        # the copy-on-write image every worker inherits.
        if self.config.statement_cache_path:
            self.warm_statement_cache()
        self.pool = None
        if self.config.workers > 0:
            from repro.server.workers import WorkerPool, fork_available

            if fork_available():
                self.pool = WorkerPool(
                    database, self.config, plan_cache=self.cache
                )

    # -- request entry points (called on executor threads) -----------------------

    def handle_query(self, sql, params=None, strategy=None, deadline=None,
                     cancel_event=None, fresh=False):
        """One-shot: parse, cache-or-prepare, bind, execute."""
        script = parse_single_query(
            sql,
            other_statements=(
                "the query op accepts SELECTs (with optional inline views); "
                "send DDL/DML through the script op"
            ),
        )
        return self.handle_execute(
            self._make_handle(sql, script, strategy), params,
            deadline=deadline, cancel_event=cancel_event, fresh=fresh,
        )

    def handle_prepare(self, sql, strategy=None):
        """Parse + parameterize once; returns a :class:`PreparedHandle`
        plus its wire description. Plans land in the shared cache on first
        execute."""
        refusal = "prepare accepts exactly one SELECT (plus inline views)"
        script = parse_single_query(
            sql, other_statements=refusal, wrong_count=refusal
        )
        handle = self._make_handle(sql, script, strategy)
        explicit = handle.param_count - len(handle.extracted_values)
        return handle, {
            "fingerprint": handle.fingerprint,
            "strategy": handle.strategy,
            "param_count": max(explicit, 0),
        }

    def handle_execute(self, handle, params=None, deadline=None,
                       cancel_event=None, fresh=False):
        """Execute a prepared handle with bound values, in-process or on a
        pool worker. The only code that selects from and records to the
        breaker board — and it records only answered requests: a request
        that no rung answered is the query's own error and charges no
        strategy.

        The whole span — result-cache lookup, dispatch/execution, store —
        runs under *one* read-lock acquisition (the lock is not
        reentrant), so the table versions in a result-cache key cannot
        move between lookup and serve: DML takes the write lock.
        ``fresh=True`` bypasses the result cache entirely (no lookup, no
        store) — the chaos oracle uses it to force real re-execution.
        """
        values = handle.bind(params)
        started = time.perf_counter()
        with self.lock.read():
            key = None
            if not fresh and self.result_cache.capacity:
                key = ResultCache.make_key(
                    handle.fingerprint,
                    handle.strategy,
                    self.database.schema_version(),
                    values,
                    self.database.table_versions(),
                )
                cached = self.result_cache.lookup(key)
                if cached is not None:
                    cached["cache"] = "result"
                    cached["elapsed_seconds"] = round(
                        time.perf_counter() - started, 6
                    )
                    with self._stats_lock:
                        self.queries_ok += 1
                    return cached
            try:
                if handle.param_count > len(values):
                    raise ExecutionError(
                        "statement expects %d parameter(s), got %d"
                        % (
                            handle.param_count - len(handle.extracted_values),
                            len(values) - len(handle.extracted_values),
                        )
                    )
                # The server's latency envelope: its default when the
                # client sent no deadline, never more than its maximum.
                if deadline is None:
                    deadline = self.config.default_deadline_seconds
                request = (
                    handle, values, self.breakers.select(handle.strategy),
                    min(deadline, self.config.max_deadline_seconds),
                    self.config.max_materialized_rows, cancel_event,
                )
                if self.pool is not None and self.pool.admit():
                    response, report = self.pool.execute(*request)
                else:
                    response, report = run_prepared(
                        self.cache, self.connection, *request
                    )
            except Exception as exc:
                self._note_failure(exc)
                raise
            self.breakers.record(report)
            with self._stats_lock:
                self.queries_ok += 1
                self.fallbacks += len(report.attempts)
            response["requested_strategy"] = report.requested
            response["executed_strategy"] = report.executed
            response["elapsed_seconds"] = round(
                time.perf_counter() - started, 6
            )
            if key is not None:
                # Only a *complete* success is ever cached — every error
                # path above raised past this line, so a crashed or
                # half-failed execution cannot leave a cache entry.
                self.result_cache.store(key, response)
            return response

    def handle_script(self, sql):
        """DDL/DML script: runs alone (write lock). Cached plans made
        stale by it become unreachable via the catalog version bump."""
        with self.lock.write():
            before = self.database.schema_version()
            outcome = self.connection.run_script(sql)
            response = {
                "catalog_version": self.database.schema_version(),
                "ddl": self.database.schema_version() != before,
            }
            if outcome is not None:
                response["columns"] = list(outcome.columns)
                response["rows"] = [list(row) for row in outcome.rows]
            if self.pool is not None:
                # Publish changed tables (and the catalog, if its bytes
                # moved) while the write lock guarantees no dispatch is
                # mid-flight reading the old segments.
                self.pool.publish()
            return response

    def handle_stats(self):
        with self._stats_lock:
            counters = {
                "queries_ok": self.queries_ok,
                "queries_failed": self.queries_failed,
                "cancellations": self.cancellations,
                "deadline_trips": self.deadline_trips,
                "fallbacks": self.fallbacks,
            }
        counters["statements_warmed"] = self.statements_warmed
        stats = {
            "counters": counters,
            "cache": self.cache.stats(),
            "result_cache": self.result_cache.stats(),
            "admission": self.admission.stats(),
            "breakers": self.breakers.snapshot(),
            "catalog_version": self.database.schema_version(),
            "table_versions": self.database.table_versions(),
        }
        if self.pool is not None:
            stats["workers"] = self.pool.stats()
        return stats

    def shutdown(self):
        if self.config.statement_cache_path:
            self.save_statement_cache()
        if self.pool is not None:
            self.pool.shutdown()
        self.executor.shutdown(wait=True)

    # -- statement-cache persistence ----------------------------------------------

    def save_statement_cache(self, path=None):
        """Serialize every statement ever prepared here (fingerprint
        registry) to JSON; the next boot warms from it. Returns the
        number of statements written."""
        path = path or self.config.statement_cache_path
        if not path:
            return 0
        with self._registry_lock:
            statements = list(self._statement_registry.values())
        payload = {"version": 1, "statements": statements}
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, path)
        return len(statements)

    def warm_statement_cache(self, path=None):
        """Replay a persisted statement set through prepare, landing each
        plan in the shared cache before any client arrives. A statement
        that no longer parses or plans (schema changed under it) is
        skipped, not fatal. Returns the number warmed."""
        path = path or self.config.statement_cache_path
        if not path or not os.path.exists(path):
            return 0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            statements = payload.get("statements") or []
        except (OSError, ValueError):
            return 0
        warmed = 0
        for spec in statements:
            try:
                sql = spec["sql"]
                script = parse_script(sql)
                handle = self._make_handle(sql, script, spec.get("strategy"))
                with self.lock.read():
                    self.cache.entry_for(
                        handle, handle.strategy, self.connection
                    )
                warmed += 1
            except Exception:  # noqa: BLE001 — warming is best-effort
                continue
        self.statements_warmed = warmed
        return warmed

    # -- internals ---------------------------------------------------------------

    def _make_handle(self, sql, script, strategy):
        strategy = strategy or self.config.default_strategy
        check_strategy(strategy)
        query = script.queries[0]
        extracted = parameterize_query(query)
        handle = PreparedHandle(
            query=query,
            views=list(script.views),
            fingerprint=_script_fingerprint(script.views, query),
            strategy=strategy,
            param_count=parameter_slots(query),
            extracted_values=extracted,
            executor=running_executor(strategy, self.config.default_executor),
        )
        with self._registry_lock:
            self._statement_registry[handle.fingerprint] = {
                "sql": sql,
                "strategy": strategy,
            }
        return handle

    def _note_failure(self, exc):
        # Errors relayed from a worker arrive as RemoteQueryError carrying
        # the original type name and context; classifying every error by
        # those makes the counters agree regardless of where it ran.
        error_type = getattr(exc, "error_type", type(exc).__name__)
        limit = (getattr(exc, "context", None) or {}).get("limit")
        with self._stats_lock:
            self.queries_failed += 1
            if error_type == "QueryCancelledError":
                self.cancellations += 1
            elif (
                error_type == "ResourceExhaustedError"
                and limit == "deadline_seconds"
            ):
                self.deadline_trips += 1
