"""Session-boundary chaos: the serving layer under hostile clients.

The resilience chaos harness (:mod:`repro.resilience.chaos`) injects
faults *inside* the rewrite/execute pipeline; this one attacks the
*session boundary* — the failure modes only a server has:

* **slow client** — a frame dribbled in byte-sized chunks must stall only
  its own session, never the sessions sharing the server,
* **mid-query disconnect** — a client that hangs up while its query runs
  must trip the cancel token; the abandoned query must stop burning a
  pool slot, and the database must be unaffected,
* **cache poisoning attempt** — concurrent DDL/DML racing parameterized
  queries: every answer must match a fresh ``original``-strategy oracle
  *when no mutation interleaved the pair* (version counters decide), and
  otherwise be a clean structured error — never wrong rows,
* **deadline storm + overload** — a thundering herd with tiny deadlines
  against a tiny pool: every outcome must classify as success, deadline
  trip, cancellation, or shed-with-``retry_after``; retried requests must
  eventually succeed,
* **worker crashes** (``--battery workers``) — SIGKILL the worker process
  mid-query and mid-fixpoint: the client must see a clean *retryable*
  ``WorkerCrashedError`` (or a correct answer, if the reply won the
  race), the pool must respawn to full strength, a retried request must
  succeed, and no partially-built result-cache entry may survive the
  crash.

The invariant throughout is the same as the in-pipeline harness:
**correct answer or clean error — never a wrong answer**. Run as
``python -m repro.server.chaos --seed 1234``; the CI chaos job pins the
seed so failures reproduce.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import signal
import socket
import struct
import threading
import time

from repro.api import Connection
from repro.engine import Database
from repro.server import protocol
from repro.server.client import ServerError, SyncQueryClient
from repro.server.core import QueryServer, ServerConfig
from repro.server.session import serve
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database
from repro.workloads.experiments import canonical_rows

#: Error types a chaotic session is allowed to surface. Anything else —
#: and any wrong row set — is a harness failure.
CLEAN_ERRORS = frozenset({
    "ResourceExhaustedError",
    "ServerOverloadedError",
    "QueryCancelledError",
    "ExecutionError",
    "ProtocolError",
    "WorkerCrashedError",
})


class ServerHarness:
    """An in-process server on an ephemeral port, event loop on a daemon
    thread. Context manager; ``harness.client()`` makes connected sync
    clients. Reused by the test suite and the benchmark."""

    def __init__(self, database=None, config=None):
        self.database = database if database is not None else Database()
        self.config = config or ServerConfig(port=0)
        self.server = QueryServer(self.database, self.config)
        self.port = None
        self._loop = None
        self._thread = None
        self._stopped = None
        self._ready = threading.Event()

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("server failed to start within 10s")
        return self

    def __exit__(self, *exc_info):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join(timeout=10)
        self.server.shutdown()

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stopped = asyncio.Event()
            listener = await serve(self.server, host="127.0.0.1", port=0)
            self.port = listener.sockets[0].getsockname()[1]
            self._ready.set()
            async with listener:
                await self._stopped.wait()

        asyncio.run(main())

    def client(self, **kwargs):
        return SyncQueryClient(port=self.port, **kwargs).connect()


def _build_database(scale):
    database = build_empdept_database(
        n_departments=max(int(100 * scale), 5),
        employees_per_department=max(int(40 * scale), 3),
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    return database


PARAM_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = ?"
)
SLOW_QUERY = (
    "SELECT e1.empno FROM employee e1, employee e2, employee e3 "
    "WHERE e1.salary > 0 AND e2.salary > 0 AND e3.salary > 0"
)


# -- individual batteries --------------------------------------------------------


def check_slow_client(harness, report):
    """A dribbled frame stalls only its own session."""
    payload = protocol.encode_frame({"op": "ping", "id": 1})
    slow = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
    try:
        # Send all but the last 3 bytes, then hold the frame open.
        slow.sendall(payload[:-3])
        with harness.client() as fast:
            started = time.perf_counter()
            result = fast.query(PARAM_QUERY, params=["Planning"])
            elapsed = time.perf_counter() - started
        assert result["row_count"] == 1, "fast session got wrong rows"
        report["slow_client_bystander_seconds"] = round(elapsed, 4)
        # Now complete the dribble; the slow session must still be served.
        time.sleep(0.05)
        slow.sendall(payload[-3:])
        header = b""
        while len(header) < 4:
            chunk = slow.recv(4 - len(header))
            assert chunk, "server dropped the slow session"
            header += chunk
        (length,) = struct.unpack(">I", header)
        body = b""
        while len(body) < length:
            body += slow.recv(length - len(body))
        assert b'"pong"' in body, "slow session got a non-pong reply"
        report["slow_client_ok"] = True
    finally:
        slow.close()


def check_mid_query_disconnect(harness, report):
    """Disconnecting mid-query trips the cancel token and frees the slot."""
    before = harness.server.handle_stats()["counters"]["cancellations"]
    admission = harness.server.admission
    admitted = admission.stats()["admitted"]
    victim = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
    victim.sendall(
        protocol.encode_frame(
            {"op": "query", "sql": SLOW_QUERY, "id": 1, "deadline": 30}
        )
    )
    # Hang up as soon as the query is admitted: its disconnect watcher is
    # armed from then on, and the query runs far longer than this poll
    # (a fixed wait can outlast the query on a fast machine).
    deadline = time.monotonic() + 15
    while (
        admission.stats()["admitted"] == admitted
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    victim.close()
    deadline = time.monotonic() + 15
    cancelled = 0
    while time.monotonic() < deadline:
        counters = harness.server.handle_stats()["counters"]
        cancelled = counters["cancellations"] - before
        if cancelled:
            break
        time.sleep(0.1)
    assert cancelled, "disconnect did not cancel the running query"
    # The database must be untouched and the server responsive.
    with harness.client() as client:
        result = client.query(PARAM_QUERY, params=["Planning"])
        assert result["row_count"] == 1, "post-disconnect query broken"
    report["disconnect_cancelled"] = cancelled
    report["disconnect_ok"] = True


def check_garbage_frame(harness, report):
    """A non-JSON frame gets a structured error, then the session ends."""
    sock = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
    try:
        garbage = b"\x00\x00\x00\x05hello"
        sock.sendall(garbage)
        header = sock.recv(4)
        assert len(header) == 4, "no error frame for garbage payload"
        (length,) = struct.unpack(">I", header)
        body = b""
        while len(body) < length:
            body += sock.recv(length - len(body))
        assert b"ProtocolError" in body, "garbage not reported as ProtocolError"
        report["garbage_frame_ok"] = True
    finally:
        sock.close()


def check_cache_poisoning(harness, rng, rounds, report):
    """DDL/DML racing cached parameterized queries: answers must match a
    fresh original-strategy oracle whenever the version counters prove no
    mutation interleaved the pair."""
    deptnames = ["Planning"] + [
        "Dept%04d" % i
        for i in range(1, len(harness.database.table("department").rows))
    ]
    stop = threading.Event()
    mutator_errors = []

    def mutator():
        with harness.client() as client:
            count = 0
            while not stop.is_set():
                count += 1
                try:
                    if count % 5 == 0:
                        # Real DDL: bumps the catalog version, must purge
                        # every cached plan.
                        client.script(
                            "CREATE VIEW poison%d (n) AS "
                            "SELECT empname FROM employee" % count
                        )
                    else:
                        # DML: bumps table versions (stale-plan signal).
                        client.script(
                            "INSERT INTO employee VALUES "
                            "(%d, 'Chaos%d', 'D0001', %d, 'CLERK')"
                            % (900000 + count, count, 50000 + count)
                        )
                except (ServerError, ConnectionError) as exc:
                    mutator_errors.append(str(exc))
                time.sleep(0.01)

    thread = threading.Thread(target=mutator, daemon=True)
    thread.start()
    checked = skipped = errors = 0
    try:
        with harness.client() as client:
            for _ in range(rounds):
                name = rng.choice(deptnames)
                stats_before = client.stats()
                versions_before = (
                    stats_before["catalog_version"],
                    stats_before["table_versions"].get("employee"),
                )
                try:
                    answer = client.query(
                        PARAM_QUERY, params=[name], strategy="emst"
                    )
                    oracle = client.query(
                        PARAM_QUERY, params=[name], strategy="original"
                    )
                except ServerError as exc:
                    assert exc.error_type in CLEAN_ERRORS, (
                        "dirty error under poisoning: %s" % exc
                    )
                    errors += 1
                    continue
                stats_after = client.stats()
                versions_after = (
                    stats_after["catalog_version"],
                    stats_after["table_versions"].get("employee"),
                )
                if versions_before != versions_after:
                    # A mutation interleaved the pair: the two reads saw
                    # different database states, so equality is not owed.
                    skipped += 1
                    continue
                assert canonical_rows(answer["rows"]) == canonical_rows(
                    oracle["rows"]
                ), "WRONG ROWS for %r under concurrent DDL/DML" % name
                checked += 1
    finally:
        stop.set()
        thread.join(timeout=10)
    # The race is over: every department's cached emst answer must now
    # match a fresh original oracle. This checks the post-race cache
    # state, and gives a comparison even when every racing pair was
    # skipped (a run slower than the mutator's cadence).
    with harness.client() as client:
        for name in deptnames:
            answer = client.query(PARAM_QUERY, params=[name], strategy="emst")
            oracle = client.query(
                PARAM_QUERY, params=[name], strategy="original", fresh=True
            )
            assert canonical_rows(answer["rows"]) == canonical_rows(
                oracle["rows"]
            ), "WRONG ROWS for %r after concurrent DDL/DML" % name
            checked += 1
    assert checked, "poisoning battery never got a quiesced comparison"
    report["poisoning_checked"] = checked
    report["poisoning_skipped"] = skipped
    report["poisoning_clean_errors"] = errors
    report["poisoning_mutator_errors"] = len(mutator_errors)


def check_deadline_storm(harness, rng, clients, requests, report):
    """Tiny deadlines + overload: every outcome classifies cleanly and
    sheds carry usable retry hints; the row invariant still holds."""
    expected = None
    with harness.client() as probe:
        expected = canonical_rows(
            probe.query(PARAM_QUERY, params=["Planning"])["rows"]
        )
    outcomes = {"ok": 0, "deadline": 0, "shed": 0, "other_clean": 0}
    wrong = []
    lock = threading.Lock()

    def worker(worker_seed, retrying):
        worker_rng = random.Random(worker_seed)
        # Half the herd retries (exercising backoff + retry_after), half
        # fails fast (so sheds actually surface as client-visible errors).
        from repro.resilience.retry import RetryPolicy

        policy = RetryPolicy() if retrying else RetryPolicy(max_attempts=1)
        try:
            client = harness.client(retry=policy)
        except OSError:
            return
        with client:
            for _ in range(requests):
                tight = worker_rng.random() < 0.5
                try:
                    if tight:
                        result = client.query(
                            SLOW_QUERY, deadline=0.02
                        )
                    else:
                        result = client.query(
                            PARAM_QUERY, params=["Planning"], deadline=5
                        )
                except ServerError as exc:
                    with lock:
                        if exc.error_type == "ServerOverloadedError":
                            outcomes["shed"] += 1
                            if exc.retry_after is None:
                                wrong.append("shed without retry_after")
                        elif exc.error_type in CLEAN_ERRORS:
                            outcomes["deadline"] += 1
                        else:
                            wrong.append("dirty error %s" % exc.error_type)
                    continue
                except (ConnectionError, OSError):
                    with lock:
                        outcomes["other_clean"] += 1
                    continue
                with lock:
                    outcomes["ok"] += 1
                    if not tight and canonical_rows(result["rows"]) != expected:
                        wrong.append("wrong rows under storm")

    threads = [
        threading.Thread(
            target=worker, args=(rng.random(), index % 2 == 0), daemon=True
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not wrong, "storm violations: %s" % wrong[:5]
    assert outcomes["ok"], "storm produced no successes"
    report["storm_outcomes"] = outcomes
    # Retrying shed requests must eventually succeed.
    with harness.client() as client:
        result = client.query(PARAM_QUERY, params=["Planning"])
        assert canonical_rows(result["rows"]) == expected
    report["storm_retry_ok"] = True


SLOW_COUNT_QUERY = (
    "SELECT COUNT(*) FROM employee e1, employee e2, employee e3 "
    "WHERE e1.salary > 0 AND e2.salary > 0 AND e3.salary > 0"
)


def _fixpoint_victim(bound):
    """A transitive-closure victim whose literal ``bound`` lands in the
    result-cache bindings, so every round's key is distinct and cached
    results from earlier rounds cannot short-circuit the dispatch."""
    return (
        "WITH RECURSIVE path (src, dst) AS ("
        "  SELECT e.src, e.dst FROM edge e"
        "  UNION"
        "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst"
        ") SELECT COUNT(*) FROM path p WHERE p.src < %d" % bound
    )


def check_worker_crashes(harness, rng, rounds, report):
    """SIGKILL the worker executing a query (alternating a long scan and
    a long fixpoint): the client's outcome must be a retryable
    ``WorkerCrashedError`` or a correct reply, the pool must return to
    full strength, and the result cache must hold nothing from a crashed
    execution."""
    from repro.resilience.retry import RetryPolicy

    server = harness.server
    pool = server.pool
    assert pool is not None, "worker battery needs ServerConfig(workers>0)"
    workers = server.config.workers
    with harness.client() as client:
        client.script("CREATE TABLE edge (src, dst)")
        edges = ["(%d, %d)" % (i, i + 1) for i in range(120)]
        edges.append("(120, 0)")  # cycle: the fixpoint revisits facts
        client.script("INSERT INTO edge VALUES %s" % ", ".join(edges))
        expected = canonical_rows(
            client.query(PARAM_QUERY, params=["Planning"], fresh=True)["rows"]
        )
    crashed = won_race = 0
    for round_index in range(rounds):
        mid_fixpoint = round_index % 2 == 1
        victim_sql = (
            _fixpoint_victim(10000 + round_index)
            if mid_fixpoint
            else SLOW_COUNT_QUERY
        )
        entries_before = len(server.result_cache)
        outcome = {}

        def run_victim():
            try:
                with harness.client(
                    retry=RetryPolicy(max_attempts=1)
                ) as victim:
                    outcome["response"] = victim.query(
                        victim_sql, deadline=60
                    )
            except (ServerError, ConnectionError, OSError) as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run_victim, daemon=True)
        thread.start()
        kill_deadline = time.monotonic() + 15
        busy = []
        while time.monotonic() < kill_deadline:
            busy = pool.busy_pids()
            if busy:
                break
            time.sleep(0.005)
        assert busy, "victim query never reached a worker"
        if mid_fixpoint:
            # Let the fixpoint get a few delta rounds in before the kill.
            time.sleep(rng.uniform(0.01, 0.1))
        os.kill(busy[0], signal.SIGKILL)
        thread.join(timeout=90)
        assert not thread.is_alive(), "victim session wedged after SIGKILL"
        error = outcome.get("error")
        if error is None:
            won_race += 1  # reply beat the kill; a correct answer is fine
        else:
            assert isinstance(error, ServerError), (
                "crash surfaced as transport failure, not a structured "
                "error: %r" % error
            )
            assert error.error_type == "WorkerCrashedError", (
                "dirty crash error: %s" % error
            )
            assert error.retryable, "WorkerCrashedError must be retryable"
            crashed += 1
            # The killed execution must not have stored anything: a
            # result-cache entry exists only after a complete reply.
            assert len(server.result_cache) == entries_before, (
                "partial result-cache entry survived a worker crash"
            )
        # The pool must recover to full strength with live processes.
        recover_deadline = time.monotonic() + 15
        while time.monotonic() < recover_deadline:
            pids = pool.pids()
            if len(pids) == workers and all(
                _pid_alive(pid) for pid in pids
            ):
                break
            time.sleep(0.02)
        pids = pool.pids()
        assert len(pids) == workers, "pool did not respawn to full strength"
    assert crashed, "worker battery never observed a crash (kills too late?)"
    # A retried request after the carnage must succeed with correct rows —
    # on the pool, not just the in-process fallback.
    with harness.client() as client:
        result = client.query(PARAM_QUERY, params=["Planning"], fresh=True)
        assert canonical_rows(result["rows"]) == expected, (
            "wrong rows after crashes"
        )
        oracle = client.query(
            PARAM_QUERY, params=["Planning"], strategy="original", fresh=True
        )
        assert canonical_rows(oracle["rows"]) == expected
    stats = pool.stats()
    assert stats["respawns"] >= crashed, "crashes without respawns"
    report["worker_crashes"] = crashed
    report["worker_won_race"] = won_race
    report["worker_respawns"] = stats["respawns"]
    report["worker_breaker_state"] = stats["breaker"]["state"]


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


# -- driver ----------------------------------------------------------------------


def run_worker_chaos(seed=1234, scale=0.2, crash_rounds=4, verbose=True):
    """The worker-crash battery against a multi-process server with the
    result cache enabled; returns the report dict."""
    rng = random.Random(seed)
    database = _build_database(scale)
    config = ServerConfig(
        port=0,
        max_concurrent=4,
        max_queue=8,
        default_deadline_seconds=30.0,
        workers=2,
        result_cache_capacity=64,
        # Keep the crash breaker from opening mid-battery: the point is
        # to exercise respawn + retry, not the degraded path.
        worker_crash_threshold=1000,
    )
    report = {"seed": seed}
    with ServerHarness(database, config) as harness:
        if harness.server.pool is None:
            report["skipped"] = "fork start method unavailable"
            return report
        check_worker_crashes(harness, rng, crash_rounds, report)
        report["final_workers"] = harness.server.handle_stats()["workers"]
    if verbose:
        for key, value in report.items():
            if key != "final_workers":
                print("%s: %r" % (key, value))
        print("workers: %r" % report.get("final_workers"))
    return report


def run_session_chaos(seed=1234, scale=0.2, poison_rounds=15,
                      storm_clients=12, storm_requests=4, verbose=True):
    """Run every battery against one server; returns the report dict."""
    rng = random.Random(seed)
    database = _build_database(scale)
    config = ServerConfig(
        port=0,
        max_concurrent=3,
        max_queue=3,
        default_deadline_seconds=10.0,
        breaker_cooldown_seconds=0.5,
    )
    report = {"seed": seed}
    with ServerHarness(database, config) as harness:
        check_slow_client(harness, report)
        check_garbage_frame(harness, report)
        check_mid_query_disconnect(harness, report)
        check_cache_poisoning(harness, rng, poison_rounds, report)
        check_deadline_storm(
            harness, rng, storm_clients, storm_requests, report
        )
        report["final_stats"] = harness.server.handle_stats()
    if verbose:
        for key, value in report.items():
            if key != "final_stats":
                print("%s: %r" % (key, value))
        stats = report["final_stats"]
        print("cache: %r" % stats["cache"])
        print("admission: %r" % stats["admission"])
        print("counters: %r" % stats["counters"])
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.chaos",
        description="Session-boundary chaos harness for the query server.",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--poison-rounds", type=int, default=15)
    parser.add_argument("--storm-clients", type=int, default=12)
    parser.add_argument("--storm-requests", type=int, default=4)
    parser.add_argument("--crash-rounds", type=int, default=4)
    parser.add_argument(
        "--battery", choices=("session", "workers", "all"), default="session",
        help="which batteries to run (workers = SIGKILL the worker pool)",
    )
    options = parser.parse_args(argv)
    if options.battery in ("session", "all"):
        run_session_chaos(
            seed=options.seed,
            scale=options.scale,
            poison_rounds=options.poison_rounds,
            storm_clients=options.storm_clients,
            storm_requests=options.storm_requests,
        )
        print("session chaos: all batteries passed")
    if options.battery in ("workers", "all"):
        run_worker_chaos(
            seed=options.seed,
            scale=options.scale,
            crash_rounds=options.crash_rounds,
        )
        print("worker chaos: all batteries passed")


if __name__ == "__main__":
    main()
