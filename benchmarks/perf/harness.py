"""Measurement machinery shared by the workloads: spans, percentiles,
the closed- and open-loop drivers, and the server subprocess handle.

Nothing in here knows a workload; :mod:`benchmarks.perf.workloads` wires
these pieces to the system under test.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import itertools
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
OUT_DIR = PACKAGE_DIR / "out"

clock = time.perf_counter


# -- spans -------------------------------------------------------------------------


class Tracer:
    """Spans of one thread, kept in memory until the run ends.

    A span is ``[name, start, end, parent, op, tag]``: ``parent`` is the
    index of the enclosing span (-1 at the top), ``op`` the identifier all
    spans of one operation share, ``tag`` an optional sub-name (the query
    key of an ``engine.exec`` span).
    """

    def __init__(self):
        self.spans = []
        self._open = -1

    def span(self, name, op, tag=None):
        return _Span(self, name, op, tag)

    def add(self, name, start, end, op, tag=None):
        """Record a span measured elsewhere (e.g. a duration the program
        reports) under the currently open span."""
        self.spans.append([name, start, end, self._open, op, tag])


class _Span:
    __slots__ = ("tracer", "record", "outer")

    def __init__(self, tracer, name, op, tag):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, tracer._open, op, tag]

    def __enter__(self):
        tracer = self.tracer
        self.outer = tracer._open
        tracer._open = len(tracer.spans)
        tracer.spans.append(self.record)
        self.record[1] = clock()
        return self

    def __exit__(self, *exc_info):
        self.record[2] = clock()
        self.tracer._open = self.outer


def merge_spans(tracers):
    """One span list from per-thread tracers, parent indices rebased."""
    merged = []
    for tracer in tracers:
        base = len(merged)
        for name, start, end, parent, op, tag in tracer.spans:
            merged.append(
                [name, start, end, parent + base if parent >= 0 else -1, op, tag]
            )
    return merged


def self_seconds(spans):
    """Per span: its duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_op_self_ms(spans, name):
    """Self time of the ``name`` spans summed per operation, in ms."""
    totals = {}
    for span, own in zip(spans, self_seconds(spans)):
        if span[0] == name:
            totals[span[4]] = totals.get(span[4], 0.0) + own * 1e3
    return list(totals.values())


def tagged_ms(spans, name):
    """``{tag: [duration ms, ...]}`` over the ``name`` spans."""
    out = {}
    for span_name, start, end, _, _, tag in spans:
        if span_name == name:
            out.setdefault(tag, []).append((end - start) * 1e3)
    return out


# -- statistics ---------------------------------------------------------------------


def percentile(values, fraction):
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


def segment_medians(start, completions, segments):
    """Throughput and latency percentiles of a timed region, each taken as
    the median over ``segments`` consecutive equal-count slices of it, so
    that a burst of interference (another tenant, a frequency step) moves
    one slice and not the result.

    ``completions`` is ``[(done, latency, ok), ...]`` in completion order.
    Returns ``{"ops_per_s", "op_p50_ms", "op_p95_ms"}``.
    """
    segments = max(min(segments, len(completions) // 20), 1)
    rates, p50s, p95s = [], [], []
    previous_done = start
    for index in range(segments):
        low = index * len(completions) // segments
        high = (index + 1) * len(completions) // segments
        piece = completions[low:high]
        last_done = piece[-1][0]
        rates.append(sum(1 for _, _, ok in piece if ok) / (last_done - previous_done))
        previous_done = last_done
        latencies = [latency for _, latency, _ in piece]
        p50s.append(percentile(latencies, 0.50) * 1e3)
        p95s.append(percentile(latencies, 0.95) * 1e3)
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(p50s),
        "op_p95_ms": statistics.median(p95s),
    }


def median_ms(seconds):
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


# -- closed loop, one thread (library workloads) ---------------------------------------


class LoopResult:
    """What a timed region observed."""

    def __init__(self, start):
        self.start = start
        #: ``(done, latency, ok)`` per untraced op, in completion order.
        self.completions = []
        self.attempted = 0
        self.failed = 0
        self.plain_cycles = []  # seconds per complete untraced cycle
        self.traced_cycles = []

    def overhead_share(self):
        """(traced − untraced) / untraced over complete cycles of the same
        op sequence, alternated so drift hits both sides."""
        if not self.plain_cycles or not self.traced_cycles:
            return 0.0
        plain = statistics.median(self.plain_cycles)
        return statistics.median(self.traced_cycles) / plain - 1.0


def closed_loop(cycle, seconds, run_op, run_op_traced=None):
    """Repeat ``cycle`` (a list of ops) for ``seconds``: the next op starts
    when the previous one returns. ``run_op(op) -> bool`` says whether the
    answer was right. With ``run_op_traced(op, op_id)`` every other cycle
    runs traced, which is how one traced run measures its own overhead.
    """
    start = clock()
    result = LoopResult(start)
    deadline = start + seconds
    cycle_number = 0
    now = start
    while now < deadline:
        traced = run_op_traced is not None and cycle_number % 2 == 1
        cycle_start = now
        complete = True
        for op in cycle:
            if now >= deadline:
                complete = False
                break
            if traced:
                ok = run_op_traced(op, result.attempted)
            else:
                ok = run_op(op)
            done = clock()
            if not traced:
                result.completions.append((done, done - now, ok))
            now = done
            result.attempted += 1
            if not ok:
                result.failed += 1
        if complete:
            cycles = result.traced_cycles if traced else result.plain_cycles
            cycles.append(now - cycle_start)
        cycle_number += 1
    return result


# -- loops over connections (serve workloads) --------------------------------------------


class OpRecord:
    """One completed client operation (serve workloads)."""

    __slots__ = ("index", "kind", "due", "sent", "done", "ok", "response",
                 "traced")

    def __init__(self, index, kind, due, sent, done, outcome):
        self.index = index
        self.kind = kind
        self.due = due
        self.sent = sent
        self.done = done
        self.ok, self.response, self.traced = outcome


def client_loops(clients, schedule, seconds, perform):
    """Drive ``schedule`` over ``clients`` (one thread each) for
    ``seconds``; returns a :class:`LoopResult` plus the op records.

    ``schedule(thread, n)`` returns the thread's ``n``-th
    ``(index, op, due)`` or None to stop. ``due`` None means "now"
    (closed loop); a number is seconds after the start (open loop: the op
    is sent at its due time, or as soon after as a connection is free,
    and its latency counts from the due time). Nothing is sent once
    ``seconds`` have passed, so a backlog cannot outlive the run.
    ``perform(thread, n, client, op)`` returns ``(ok, response, traced)``.
    """
    per_thread = [[] for _ in clients]
    start_gate = threading.Barrier(len(clients) + 1)
    started = [0.0]

    errors = []

    def run(thread, client, records):
        start_gate.wait()
        start = started[0]
        deadline = start + seconds
        for n in itertools.count():
            item = schedule(thread, n)
            if item is None:
                return
            index, op, due = item
            now = clock()
            due_at = now if due is None else start + due
            if now >= deadline or due_at >= deadline:
                return
            if due_at > now:
                time.sleep(due_at - now)
                now = clock()
            outcome = perform(thread, n, client, op)
            records.append(
                OpRecord(index, op.kind, due_at, now, clock(), outcome)
            )

    def worker(*args):
        try:
            run(*args)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, client, per_thread[i]))
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    started[0] = clock()
    start_gate.wait()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result = LoopResult(started[0])
    records = sorted(
        (record for records in per_thread for record in records),
        key=lambda record: record.done,
    )
    result.attempted = len(records)
    result.failed = sum(1 for record in records if not record.ok)
    result.completions = [
        (record.done, record.done - record.due, record.ok) for record in records
    ]
    return result, records


# -- leaving no process behind -----------------------------------------------------------


def adopt_orphans():
    """Make this process the reaper of all its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent dies — the
    ``multiprocessing`` resource tracker of a killed worker, say — is handed
    to us instead of to init, so :func:`reap_children` can see and end it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def child_pids():
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                # "pid (comm) state ppid ...": comm may contain spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone meanwhile
        if fields[1] == me:
            found.append(int(entry))
    return found


def reap_children(grace=5.0):
    """Wait until this process has no child left, killing after ``grace``
    seconds whatever has not ended by itself. Called on the way out of
    every run: nothing the benchmark started may outlive it."""
    from multiprocessing import resource_tracker

    # Our own resource tracker (started by the bench-side publish probe)
    # runs until its pipe closes; the interpreter closes it only by exiting,
    # which would orphan the tracker while it is still running.
    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass  # not started, or internals moved: the loop below ends it
    deadline = clock() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if clock() >= deadline:
            # Orphans of a killed child are handed to us (adopt_orphans)
            # and meet the same end on the next turn.
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


# -- the server subprocess ---------------------------------------------------------------


def shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class ServerProcess:
    """``serve_target.py`` as a child in its own session, so that stopping
    it can take its forked workers along on every exit path."""

    def __init__(self, seed, name):
        OUT_DIR.mkdir(exist_ok=True)
        self.stderr_path = OUT_DIR / ("server-%s.stderr.log" % name)
        self._stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(PACKAGE_DIR / "serve_target.py"),
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, start_new_session=True,
        )
        atexit.register(self.stop)
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
        except BaseException:  # interrupted while the server boots
            self.stop()
            raise
        fields = line.split()
        if len(fields) != 3 or fields[0] != "READY":
            self.stop()
            raise RuntimeError(
                "server did not start: %r (see %s)" % (line, self.stderr_path)
            )
        self.port = int(fields[1])
        self.pid = int(fields[2])

    def peak_rss_mib(self, worker_pids):
        """Sum of the high-water resident sizes of server and workers."""
        total = 0.0
        for pid in [self.pid] + list(worker_pids):
            with open("/proc/%d/status" % pid) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def stop(self):
        """Ask the server to exit, wait, and kill the whole session if it
        does not. Safe to call twice."""
        process = self.process
        if process is None:
            return
        self.process = None
        atexit.unregister(self.stop)
        try:
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        # Workers are daemons of the server; if it died without reaping
        # them they are still in its session.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        process.stdout.close()
        self._stderr.close()
