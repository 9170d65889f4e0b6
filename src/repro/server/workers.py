"""Multi-process query execution: fork workers, shared-memory tables.

The asyncio server of PR 4 executes every query on a thread pool inside
one GIL-bound process. This module adds the process model that lets
serving throughput scale with cores:

* **fork-per-worker, copy-on-write catalog** — each worker is forked
  from the parent with the whole database in memory; Python's fork gives
  every worker a consistent snapshot for free, and the (immutable during
  queries) column lists stay physically shared until someone writes.
* **shared-memory columns for post-fork DML** — forked snapshots go
  stale when the parent applies a script. After every script (under the
  server's write lock, so no dispatch is in flight) the parent
  *publishes*: it pickles each column whose version in
  ``Table.column_versions`` moved into its own
  :mod:`multiprocessing.shared_memory` segment (an UPDATE ships its SET
  columns, an INSERT or DELETE every column), and it republishes the
  pickled catalog whenever the catalog bytes changed (DDL, or fresh
  ANALYZE statistics after DML). Every dispatch carries the current
  registry ``{table -> (version, {column -> (version, segment)})}``; a
  worker whose table version differs attaches the segments of exactly
  the columns whose version differs, loads them via
  :meth:`~repro.engine.storage.Table.load_columns`, and is current
  again. One publish serves every worker — a changed column crosses
  process boundaries once, not once per worker.
* **pipe dispatch protocol** — one duplex pipe per worker; the parent
  sends ``{"op": "query", "handle": <PreparedHandle>, "values": [...],
  "start": <strategy>, "deadline": <clamped seconds>, "max_rows": <row
  budget>, "registry": <sync registry>}`` and the worker replies
  ``{"ok": True, "response": ..., "report": <FallbackReport>, "pid":
  ...}`` or ``{"ok": False, "error": <wire error>}``. The parent has already made every
  per-request decision (parse, parameter check, deadline clamp, starting
  strategy from its breaker board); a worker holds only the forked
  database and its copy of the plan cache (warmed by inheriting the
  parent's at fork), applies the sync and walks the fallback chain from
  ``start`` (:func:`~repro.server.plan_cache.run_prepared`). The parent
  feeds each answered reply's report to its counters and board; an
  error reply carries none, as an in-process error does not.
* **crash containment** — crash detection is sentinel-based (a forked
  sibling may inherit pipe fds, so EOF alone is not trustworthy): the
  dispatch loop waits on the worker's pipe *and* its process sentinel.
  A worker that dies mid-query (SIGKILL, OOM) surfaces as a retryable
  :class:`~repro.errors.WorkerCrashedError`, the pool forks a
  replacement from the parent's current state (no replay needed — the
  fresh snapshot *is* current), and a
  :class:`~repro.resilience.CircuitBreaker` demotes execution to
  the in-process path if workers keep dying. Nothing partial survives a
  crash: the result cache stores only complete replies, and the dead
  worker's plan cache died with it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue
import signal
import threading
import time

from repro.api import Connection
from repro.errors import (
    QueryCancelledError,
    ResourceExhaustedError,
    WorkerCrashedError,
)
from repro.resilience.breaker import CircuitBreaker
from repro.server import protocol
from repro.server.plan_cache import run_prepared

try:  # pragma: no cover - platform probe
    import multiprocessing
    from multiprocessing import connection as mp_connection
    from multiprocessing import shared_memory

    _FORK_CONTEXT = (
        multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
except (ImportError, ValueError):  # pragma: no cover
    _FORK_CONTEXT = None


def fork_available():
    """Whether this platform supports the fork-based worker pool."""
    return _FORK_CONTEXT is not None


#: Extra wall-clock granted past the query deadline before the parent
#: declares a worker wedged and SIGKILLs it: the worker enforces the
#: deadline cooperatively via its governor, so the hard kill only fires
#: when the worker stopped making checkpoints at all.
DEADLINE_GRACE_SECONDS = 5.0

_POLL_SECONDS = 0.05


# -- shared-memory publication ---------------------------------------------------


def _new_segment(payload):
    segment = shared_memory.SharedMemory(create=True, size=max(len(payload), 1))
    segment.buf[: len(payload)] = payload
    return segment


def _release_segment(segment):
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, OSError):  # already gone: fine
        pass


def _attach_payload(name, nbytes):
    """Attach a segment by name, copy its pickled payload out, detach.

    Attaching registers the segment with this process tree's resource
    tracker (CPython registers on attach, not just create); unregister
    immediately so a worker exit cannot unlink a segment the parent
    still serves (bpo-39959).
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(
                getattr(segment, "_name", name), "shared_memory"
            )
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        return pickle.loads(bytes(segment.buf[:nbytes]))
    finally:
        segment.close()


class SharedTableStore:
    """The parent-side publisher of columnar table pages.

    Tracks, per table, the column versions last written to shared memory
    (seeded with the versions the workers inherited at fork, so nothing
    is published until something actually changes) and one segment per
    published column, plus one segment for the pickled catalog keyed by a
    monotonically increasing generation. ``publish()`` must run while no
    dispatch is in flight — the server calls it under the write lock — so
    replaced segments can be unlinked immediately without racing an
    attaching worker.
    """

    def __init__(self, database):
        self.database = database
        #: ``{name -> {ordinal -> (column version, segment, nbytes)}}``
        self._column_segments = {}
        #: ``{name -> table version}`` at its last publish.
        self._table_versions = {}
        self._published_versions = {
            name: list(table.column_versions)
            for name, table in database.stored_tables().items()
        }
        self._catalog_segment = None  # (segment, nbytes)
        self._catalog_digest = self._pickle_catalog()[1]
        self.generation = 0
        self.publishes = 0
        self.published_tables = 0

    def _pickle_catalog(self):
        payload = pickle.dumps(
            self.database.catalog, protocol=pickle.HIGHEST_PROTOCOL
        )
        return payload, hashlib.sha256(payload).digest()

    def publish(self):
        """Publish every column whose version moved (every column of a
        table created since) and the catalog if its bytes changed (schema
        *or* statistics)."""
        self.publishes += 1
        for name, table in self.database.stored_tables().items():
            versions = table.column_versions
            published = self._published_versions.get(name)
            if published == versions:
                continue
            segments = self._column_segments.setdefault(name, {})
            blocks = table.column_blocks()
            for ordinal, version in enumerate(versions):
                if published is not None and published[ordinal] == version:
                    continue
                payload = pickle.dumps(
                    blocks[ordinal], protocol=pickle.HIGHEST_PROTOCOL
                )
                old = segments.pop(ordinal, None)
                if old is not None:
                    _release_segment(old[1])
                segments[ordinal] = (version, _new_segment(payload), len(payload))
            self._published_versions[name] = list(versions)
            self._table_versions[name] = table.version
            self.published_tables += 1
        payload, digest = self._pickle_catalog()
        if digest != self._catalog_digest:
            if self._catalog_segment is not None:
                _release_segment(self._catalog_segment[0])
            self._catalog_segment = (_new_segment(payload), len(payload))
            self._catalog_digest = digest
            self.generation += 1

    def registry(self):
        """The sync registry shipped with every dispatch: per published
        table its version, its column segments ``{ordinal -> (column
        version, segment name, nbytes)}`` and their total ``nbytes``."""
        tables = {}
        for name, segments in self._column_segments.items():
            columns = {
                ordinal: (version, segment.name, nbytes)
                for ordinal, (version, segment, nbytes) in segments.items()
            }
            tables[name] = {
                "version": self._table_versions[name],
                "columns": columns,
                "nbytes": sum(nbytes for _, _, nbytes in columns.values()),
            }
        catalog = {"generation": self.generation}
        if self._catalog_segment is not None:
            catalog["segment"] = self._catalog_segment[0].name
            catalog["nbytes"] = self._catalog_segment[1]
        return {"tables": tables, "catalog": catalog}

    def close(self):
        for segments in self._column_segments.values():
            for _, segment, _ in segments.values():
                _release_segment(segment)
        self._column_segments.clear()
        if self._catalog_segment is not None:
            _release_segment(self._catalog_segment[0])
            self._catalog_segment = None


def apply_sync(database, registry, state):
    """Worker-side: bring the forked database up to the registry.

    ``state`` holds the worker's last-applied catalog generation.
    Catalog first (a post-fork CREATE TABLE's schema must exist before
    its columns are loaded), then, per table whose version differs, the
    columns whose version differs — however many publishes the worker
    missed, the registry names the latest segment of every column that
    changed since fork. A table the worker has never seen loads whole.
    """
    catalog = registry.get("catalog") or {}
    if (
        catalog.get("segment")
        and catalog.get("generation") != state.get("catalog_generation")
    ):
        database.catalog = _attach_payload(
            catalog["segment"], catalog["nbytes"]
        )
        state["catalog_generation"] = catalog["generation"]
    stored = database.stored_tables()
    for name, info in (registry.get("tables") or {}).items():
        local = stored.get(name)
        if local is None:
            local = database.register_table(database.catalog.table(name))
            current = {}
        elif local.version == info["version"]:
            continue
        else:
            current = dict(enumerate(local.column_versions))
        local.load_columns(
            {
                ordinal: (version, _attach_payload(segment, nbytes))
                for ordinal, (version, segment, nbytes) in info["columns"].items()
                if current.get(ordinal) != version
            },
            info["version"],
        )


# -- the worker process ----------------------------------------------------------


def _worker_main(child_conn, close_fds, database, plan_cache,
                 catalog_generation):
    """Entry point of a forked worker: serves the pipe until shutdown,
    running each dispatched request over the inherited database and plan
    cache (the fork made both private, pre-warmed copies). A query error
    is a *reply*, never a worker death.
    """
    for conn in close_fds:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    plan_cache.after_fork()
    connection = Connection(database)
    state = {"catalog_generation": catalog_generation}
    while True:
        try:
            message = child_conn.recv()
        except (EOFError, OSError):
            break
        if message.get("op") == "shutdown":
            break
        try:
            apply_sync(database, message["registry"], state)
            response, report = run_prepared(
                plan_cache, connection, message["handle"], message["values"],
                message["start"], message["deadline"], message["max_rows"],
            )
            reply = {"ok": True, "response": response,
                     "report": report, "pid": os.getpid()}
        except BaseException as exc:  # noqa: BLE001 — every error is a reply
            reply = {"ok": False, "error": protocol.error_to_wire(exc)}
        try:
            child_conn.send(reply)
        except (BrokenPipeError, OSError):
            break


class RemoteQueryError(Exception):
    """An error raised inside a worker, relayed to the dispatching
    session with its original wire identity intact (type name,
    retryability, retry_after) — ``protocol.error_to_wire`` passes the
    ``wire`` attribute through untouched, so the client cannot tell
    whether the error happened in-process or in a worker."""

    def __init__(self, wire):
        super().__init__(
            "%s: %s" % (wire.get("type"), wire.get("message"))
        )
        self.wire = dict(wire)
        self.error_type = wire.get("type")
        self.retryable = bool(wire.get("retryable"))
        self.retry_after = wire.get("retry_after")
        self.context = wire.get("context") or {}


class _WorkerHandle:
    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.busy = False

    @property
    def pid(self):
        return self.process.pid


class WorkerPool:
    """N forked workers behind an idle queue, with crash respawn.

    One request is in flight per worker at a time; dispatch threads
    beyond the worker count queue on the checkout. All forking happens
    on parent threads that hold at most the server's *read* lock, so a
    fresh fork always captures a write-quiescent database.
    """

    def __init__(self, database, config, plan_cache):
        if _FORK_CONTEXT is None:  # pragma: no cover - non-fork platform
            raise WorkerCrashedError(
                "multi-process workers need the fork start method"
            )
        self.database = database
        self.config = config
        self.plan_cache = plan_cache
        self.store = SharedTableStore(database)
        self.breaker = CircuitBreaker(
            failure_threshold=config.worker_crash_threshold,
            cooldown_seconds=config.worker_cooldown_seconds,
        )
        self._idle = queue.Queue()
        self._handles = []
        self._lock = threading.Lock()
        self._closed = False
        self.dispatches = 0
        self.crashes = 0
        self.respawns = 0
        self.kills = 0
        self.degraded_dispatches = 0
        for _ in range(config.workers):
            self._idle.put(self._spawn())

    # -- lifecycle ---------------------------------------------------------------

    def _spawn(self):
        with self._lock:
            siblings = [handle.conn for handle in self._handles]
        parent_conn, child_conn = _FORK_CONTEXT.Pipe(duplex=True)
        process = _FORK_CONTEXT.Process(
            target=_worker_main,
            args=(
                child_conn,
                siblings + [parent_conn],
                self.database,
                self.plan_cache,
                self.store.generation,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        with self._lock:
            self._handles.append(handle)
        return handle

    def _retire(self, handle):
        with self._lock:
            if handle in self._handles:
                self._handles.remove(handle)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.terminate()
        handle.process.join(timeout=5)

    def _replace(self, handle):
        """Retire a dead/killed worker and (unless shutting down) fork a
        replacement from the parent's current state."""
        self._retire(handle)
        if self._closed:
            return
        self.respawns += 1
        self._idle.put(self._spawn())

    def shutdown(self):
        self._closed = True
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        with self._lock:
            handles = list(self._handles)
            self._handles = []
        for handle in handles:
            try:
                handle.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=2)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self.store.close()

    # -- serving -----------------------------------------------------------------

    def admit(self):
        """Whether the crash breaker currently routes queries to the
        pool (False demotes the request to the in-process path)."""
        if self._closed:
            return False
        allowed = self.breaker.allows()
        if not allowed:
            with self._lock:
                self.degraded_dispatches += 1
        return allowed

    def publish(self):
        """Re-publish shared-memory state; call after every script,
        under the server's write lock."""
        self.store.publish()

    def execute(self, handle, values, start, deadline_seconds, max_rows,
                cancel_event=None):
        """Run one request on a worker; returns ``(response,
        FallbackReport)`` like :func:`~repro.server.plan_cache.run_prepared`.

        A query error in the worker raises :class:`RemoteQueryError`.
        Raises
        :class:`WorkerCrashedError` (retryable) when the worker
        dies mid-query, :class:`QueryCancelledError` when the cancel
        token trips while waiting (the worker is killed — cooperative
        cancellation does not cross the pipe), and a deadline
        :class:`ResourceExhaustedError` when the worker overruns the
        deadline past the grace window.
        """
        hard_deadline = (
            time.monotonic() + deadline_seconds + DEADLINE_GRACE_SECONDS
        )
        worker = self._checkout(hard_deadline)
        worker.busy = True
        with self._lock:
            self.dispatches += 1
        message = {
            "op": "query",
            "handle": handle,
            "values": values,
            "start": start,
            "deadline": deadline_seconds,
            "max_rows": max_rows,
            "registry": self.store.registry(),
        }
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._crash(worker, "pipe broken on send: %s" % exc)
        while True:
            ready = mp_connection.wait(
                [worker.conn, worker.process.sentinel], timeout=_POLL_SECONDS
            )
            if worker.conn in ready:
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError) as exc:
                    self._crash(worker, "pipe closed mid-reply: %s" % exc)
                self.breaker.record_success()
                worker.busy = False
                self._idle.put(worker)
                if not reply["ok"]:
                    raise RemoteQueryError(reply["error"])
                reply["response"]["worker_pid"] = reply["pid"]
                return reply["response"], reply["report"]
            if ready:  # sentinel fired without a reply: the worker died
                self._crash(worker, "process exited mid-query")
            if cancel_event is not None and cancel_event.is_set():
                self._kill(worker, "cancel")
                raise QueryCancelledError(
                    "query cancelled while executing on worker",
                    where="worker pool",
                    reason="client disconnected",
                )
            if time.monotonic() >= hard_deadline:
                self._kill(worker, "deadline")
                raise ResourceExhaustedError(
                    "query exceeded its %.3fs deadline on a worker (killed "
                    "after %.1fs grace)"
                    % (deadline_seconds, DEADLINE_GRACE_SECONDS),
                    limit="deadline_seconds",
                    where="worker pool",
                )

    def _checkout(self, hard_deadline):
        while True:
            if self._closed:
                raise WorkerCrashedError("worker pool is shut down")
            timeout = hard_deadline - time.monotonic()
            if timeout <= 0:
                raise ResourceExhaustedError(
                    "deadline elapsed while waiting for a free worker",
                    limit="deadline_seconds",
                    where="worker pool checkout",
                )
            try:
                handle = self._idle.get(timeout=min(timeout, 0.25))
            except queue.Empty:
                continue
            if handle.process.is_alive():
                return handle
            # A worker died while idle (chaos kills don't wait for a
            # dispatch): replace it and keep looking.
            with self._lock:
                self.crashes += 1
            self._replace(handle)

    def _crash(self, handle, cause):
        pid = handle.pid
        with self._lock:
            self.crashes += 1
        self.breaker.record_failure(cause)
        self._replace(handle)
        raise WorkerCrashedError(
            "worker %s died mid-query (%s); a replacement was forked — "
            "the request is safe to retry" % (pid, cause),
            pid=pid,
            retry_after=0.05,
        )

    def _kill(self, handle, why):
        """SIGKILL a worker the parent has given up on (cancel or hard
        deadline) and fork a replacement. Not a crash: the breaker only
        counts failures the *workers* caused."""
        with self._lock:
            self.kills += 1
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5)
        self._replace(handle)

    # -- observability -----------------------------------------------------------

    def pids(self):
        with self._lock:
            return [handle.pid for handle in self._handles]

    def busy_pids(self):
        with self._lock:
            return [handle.pid for handle in self._handles if handle.busy]

    def stats(self):
        with self._lock:
            pids = [handle.pid for handle in self._handles]
            busy = sum(1 for handle in self._handles if handle.busy)
            counters = {
                "workers": len(pids),
                "busy": busy,
                "dispatches": self.dispatches,
                "crashes": self.crashes,
                "respawns": self.respawns,
                "kills": self.kills,
                "degraded_dispatches": self.degraded_dispatches,
            }
        counters["pids"] = pids
        counters["breaker"] = self.breaker.snapshot()
        counters["store"] = {
            "generation": self.store.generation,
            "publishes": self.store.publishes,
            "published_tables": self.store.published_tables,
        }
        return counters
