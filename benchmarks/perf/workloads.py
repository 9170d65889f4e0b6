"""The five workloads.

Each workload object is built from a seed and offers the same steps,
which :func:`benchmarks.perf.runner.run_workload` calls in order:

``setup()``         build inputs, prepare, boot, warm up (``setup_s``)
``measure()``       the timed region; returns a ``LoopResult``
``peak_rss_mib()``  memory high-water mark of the measured processes
``verify()``        compare what was served with the oracle; returns
                    ``(checks, mismatches)``
``layers()``        per-layer metrics of a traced run
``spans()``         the spans of a traced run
``teardown()``      stop what setup started

Layers are timed from outside: every span below wraps a call into a public
function of ``repro``; nothing under ``src/`` knows it is being measured.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import resource
import threading

from repro.api import Connection, PreparedQuery
from repro.errors import ReproError
from repro.optimizer import optimize_graph
from repro.optimizer.heuristic import optimize_with_heuristic
from repro.qgm import build_query_graph, validate_graph
from repro.qgm.clone import clone_graph
from repro.qgm.params import bind_parameters
from repro.resilience.retry import RetryPolicy
from repro.server.client import SyncQueryClient
from repro.server.core import QueryServer
from repro.server.workers import SharedTableStore
from repro.sql import parse_script
from repro.sql.parameterize import fingerprint_query, parameterize_query
from repro.workloads.empdept import build_empdept_database
from repro.workloads.experiments import EXPERIMENTS, canonical_rows

from benchmarks.perf import queries, serve_target
from benchmarks.perf.harness import (
    ServerProcess,
    Tracer,
    client_loops,
    clock,
    closed_loop,
    median,
    median_ms,
    merge_spans,
    per_op_self_ms,
    percentile,
    shm_segments,
    tagged_ms,
)

STRATEGY = "emst"
EXECUTOR = "batch"

def oracle_rows(connection, sql):
    """The reference answer: no rewrite at all, on the tuple engine."""
    outcome = connection.explain_execute(
        sql, strategy="norewrite", executor="tuple"
    )
    return canonical_rows(outcome.rows)


def timed_execute(prepared, budget_seconds=0.3, repeats=3):
    """Median execute time (ms) of a warm prepared query; a query slower
    than the budget is timed once."""
    samples = []
    prepared.execute()
    while len(samples) < repeats and sum(samples) < budget_seconds:
        started = clock()
        prepared.execute()
        samples.append(clock() - started)
    return median_ms(samples)


def storage_layer_probe():
    """``Database.insert`` of 1000 rows and ``Database.analyze`` on a
    scratch employee table: the storage/catalog cost every DML pays."""
    database = build_empdept_database(
        n_departments=400, employees_per_department=5, seed=1
    )
    rows = [
        (1000000 + i, "Emp%07d" % i, "D%04d" % (i % 400), 50000 + i, "CLERK")
        for i in range(1000)
    ]
    started = clock()
    database.insert("employee", rows)
    inserted = clock()
    database.analyze("employee")
    return {
        "storage.insert_ms": (inserted - started) * 1e3,
        "catalog.analyze_ms": (clock() - inserted) * 1e3,
    }


class EngineCounts:
    """``EvaluatorStats`` summed over a verify pass."""

    FIELDS = (
        "box_evaluations", "rows_produced", "join_probes", "batches",
        "batch_rows",
    )

    def __init__(self):
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self.result_rows = 0

    def add(self, stats, result):
        for name in self.FIELDS:
            self.totals[name] += getattr(stats, name)
        self.result_rows += len(result.rows)

    def metrics(self):
        totals = self.totals
        return {
            "engine.rows_produced": totals["rows_produced"],
            "engine.join_probes": totals["join_probes"],
            "engine.box_evaluations": totals["box_evaluations"],
            "engine.batches": totals["batches"],
            "engine.rows_per_batch": (
                totals["batch_rows"] / max(totals["batches"], 1)
            ),
            # Rows the engine materialised per row it returned: the waste
            # magic exists to cut.
            "engine.rows_per_result": (
                totals["rows_produced"] / max(self.result_rows, 1)
            ),
        }


def compile_count_metrics(heuristics):
    """What rewrite, magic and the plan optimizer did for a set of
    compiled queries, read off the ``HeuristicResult`` each one left."""
    firings = emst_firings = invocations = boxes_after = used = 0
    for heuristic in heuristics:
        counts = heuristic.context.firing_counts
        firings += sum(counts.values())
        emst_firings += counts.get("emst", 0)
        invocations += heuristic.optimizer_invocations
        boxes_after += len(list(heuristic.graph.boxes()))
        used += bool(heuristic.used_emst)
    return {
        "rewrite.firings": firings,
        "rewrite.boxes_after": boxes_after,
        "magic.emst_firings": emst_firings,
        "magic.used_share": used / len(heuristics),
        "optimizer.invocations": invocations,
    }


class LibraryWorkload:
    """Closed loop, one thread, calling ``repro`` in this process.

    Subclasses provide ``cycle`` (the op sequence one pass makes),
    ``run_op(op) -> ok`` and ``run_op_traced(op, op_id) -> ok``.
    """

    name = None

    def __init__(self, seed):
        self.seed = seed
        self.tracer = Tracer()
        self.cycle = []

    def measure(self, seconds, trace):
        self.loop = closed_loop(
            self.cycle, seconds, self.run_op,
            self.run_op_traced if trace else None,
        )
        return self.loop

    def peak_rss_mib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def spans(self):
        return self.tracer.spans

    def exec_metrics(self):
        """Engine time per op, and its share of the whole op."""
        spans = self.tracer.spans
        exec_ms = per_op_self_ms(spans, "engine.exec")
        op_ms = sum(
            (end - start) * 1e3 for name, start, end, *_ in spans if name == "op"
        )
        return {
            "engine.exec_ms": median(exec_ms),
            "engine.exec_share": sum(exec_ms) / op_ms if op_ms else 0.0,
            "trace.overhead_share": self.loop.overhead_share(),
        }


# -- prepared-query workloads (bound_lookup, full_rollup) ------------------------------


class PreparedStatement:
    """One distinct (query, binding) of a prepared workload."""

    def __init__(self, key, sql, connection, bfs_rows=None):
        self.key = key
        self.sql = sql
        self.connection = connection
        #: Set for bill-of-materials queries: computes the answer in plain
        #: Python (at verify time; the oracle is not part of set-up).
        self.bfs_rows = bfs_rows
        self.prepared = connection.prepare_statement(
            sql, strategy=STRATEGY, executor=EXECUTOR
        )
        # The first execution builds lazy indexes; it is the warm-up.
        started = clock()
        result, _ = self.prepared.execute()
        self.first_exec_seconds = clock() - started
        self.row_count = len(result.rows)


class PreparedWorkload(LibraryWorkload):
    """Statements prepared at setup; an op is a tuple of statements
    executed back to back with ``PreparedQuery.execute``."""

    def build(self, rng):
        """Fill ``self.statements`` and ``self.cycle``."""
        raise NotImplementedError

    def setup(self):
        self.statements = []
        self.build(random.Random(self.seed))

    def teardown(self):
        self.statements = []
        self.cycle = []

    def experiment(self, key, scale):
        db, views, sql = EXPERIMENTS[key].build(scale)
        connection = Connection(db, executor=EXECUTOR)
        if views:
            connection.run_script(views)
        return db, connection, sql

    def add(self, *args, **kwargs):
        statement = PreparedStatement(*args, **kwargs)
        self.statements.append(statement)
        return statement

    def run_op(self, op):
        ok = True
        for statement in op:
            result, _ = statement.prepared.execute()
            if len(result.rows) != statement.row_count:
                ok = False
        return ok

    def run_op_traced(self, op, op_id):
        ok = True
        tracer = self.tracer
        with tracer.span("op", op_id):
            for statement in op:
                with tracer.span("engine.exec", op_id, statement.key):
                    result, _ = statement.prepared.execute()
                if len(result.rows) != statement.row_count:
                    ok = False
        return ok

    def verify(self):
        """Every distinct statement once more, against the oracle. The
        pass also sums the engine's work counters, which therefore repeat
        exactly for a seed however long the timed region was."""
        mismatches = 0
        self.engine_counts = EngineCounts()
        for statement in self.statements:
            result, stats = statement.prepared.execute()
            got = canonical_rows(result.rows)
            if statement.bfs_rows is not None:
                expected = canonical_rows(statement.bfs_rows())
            else:
                expected = oracle_rows(statement.connection, statement.sql)
            if got != expected or len(got) != statement.row_count:
                mismatches += 1
            self.engine_counts.add(stats, result)
        return len(self.statements), mismatches

    def layers(self):
        metrics = self.exec_metrics()
        metrics["engine.first_exec_ms"] = median_ms(
            [s.first_exec_seconds for s in self.statements]
        )
        for key, samples in tagged_ms(self.tracer.spans, "engine.exec").items():
            metrics["engine.exec_ms.%s" % key] = median(samples)
        metrics.update(self.engine_counts.metrics())
        metrics.update(
            compile_count_metrics([s.prepared.heuristic for s in self.statements])
        )
        metrics.update(self.other_engines())
        metrics.update(storage_layer_probe())
        return metrics

    def other_engines(self):
        """The same statements on the tuple engine and under the
        correlated strategy (first binding of each key), scaled to one op:
        what the batch engine and magic are being compared with."""
        first = {}
        for statement in self.statements:
            first.setdefault(statement.key, statement)
        per_op = len(self.cycle[0]) / len(first)
        out = {}
        for metric, strategy in (
            ("engine.tuple.exec_ms", STRATEGY),
            ("engine.correlated.exec_ms", "correlated"),
        ):
            total = 0.0
            for key, statement in first.items():
                if strategy == "correlated" and key in ("D", "bom"):
                    # D is the paper's catastrophic case; the correlated
                    # evaluator rejects recursive queries.
                    continue
                total += timed_execute(
                    statement.connection.prepare_statement(
                        statement.sql, strategy=strategy, executor="tuple"
                    )
                )
            out[metric] = total * per_op
        return out


class BoundLookup(PreparedWorkload):
    """Selective bindings: magic cuts each query to a few hundred rows."""

    name = "bound_lookup"
    KEYS = "ABEFGH"
    BINDINGS = 4
    BOM_PRODUCTS = 1000
    BOM_DEPTH = 5

    def build(self, rng):
        by_key = {}
        for key in self.KEYS:
            db, connection, sql = self.experiment(key, 1.0)
            by_key[key] = [
                self.add(key, text, connection)
                for text in queries.bound_variants(
                    key, sql, db, rng, self.BINDINGS
                )
            ]
        edges = queries.bom_edges(self.BOM_PRODUCTS, self.BOM_DEPTH, self.seed)
        connection = Connection(queries.bom_database(edges), executor=EXECUTOR)

        def components(part):
            return lambda: [
                (node,)
                for node in queries.reachable(queries.adjacency(edges), part)
            ]

        by_key["bom"] = [
            self.add(
                "bom", queries.bom_lookup_sql(part), connection,
                bfs_rows=components(part),
            )
            for part in rng.sample(range(1, self.BOM_PRODUCTS + 1), self.BINDINGS)
        ]
        # One op = one round: every key once, bindings rotating.
        self.cycle = [
            tuple(
                statements[round_ % len(statements)]
                for statements in by_key.values()
            )
            for round_ in range(self.BINDINGS)
        ]


class FullRollup(PreparedWorkload):
    """No pushable binding: whole-table scans, joins and group-bys."""

    name = "full_rollup"
    BOM_PRODUCTS = 300
    BOM_DEPTH = 4

    def build(self, rng):
        for key in "CD":
            _, connection, sql = self.experiment(key, 4.0)
            self.add(key, sql, connection)
        for key, sql in (("G", queries.G_UNBOUND_SQL), ("H", queries.H_UNBOUND_SQL)):
            _, connection, _ = self.experiment(key, 1.0)
            self.add(key, sql, connection)
        edges = queries.bom_edges(self.BOM_PRODUCTS, self.BOM_DEPTH, self.seed)
        connection = Connection(queries.bom_database(edges), executor=EXECUTOR)
        self.add(
            "bom", queries.BOM_ALL_SQL, connection,
            bfs_rows=lambda: queries.closure_rows(edges),
        )
        self.cycle = [(statement,) for statement in self.statements]


# -- adhoc_compile ---------------------------------------------------------------------


class AdhocOp:
    """One (template, literal); its text differs on every visit."""

    __slots__ = ("template", "literal", "row_count")

    def __init__(self, template, literal):
        self.template = template
        self.literal = literal
        self.row_count = None


class AdhocCompile(LibraryWorkload):
    """Never-repeated query texts through the whole compile pipeline."""

    name = "adhoc_compile"
    LITERALS_PER_TEMPLATE = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.serial = itertools.count()
        #: Durations the rewrite engine reports about itself, per traced op.
        self.rule_ms = []
        self.emst_ms = []

    def setup(self):
        rng = random.Random(self.seed)
        self.text_rng = random.Random(self.seed + 1)
        self.connections = {
            name: Connection(db, executor=EXECUTOR)
            for name, db in queries.adhoc_databases(self.seed).items()
        }
        self.cycle = []
        for template, (_, _, _, draw) in queries.ADHOC_TEMPLATES.items():
            self.cycle.extend(
                AdhocOp(template, literal)
                for literal in queries.distinct_draws(
                    lambda: draw(rng), self.LITERALS_PER_TEMPLATE
                )
            )
        rng.shuffle(self.cycle)
        for op in self.cycle:  # warm-up: fixes the expected row counts
            op.row_count = len(self.execute(op).rows)

    def teardown(self):
        self.connections = {}
        self.cycle = []

    def text(self, op):
        return queries.adhoc_text(
            op.template, op.literal, next(self.serial), self.text_rng
        )

    def connection(self, op):
        return self.connections[queries.ADHOC_TEMPLATES[op.template][0]]

    def execute(self, op):
        return self.connection(op).explain_execute(
            self.text(op), strategy=STRATEGY, executor=EXECUTOR
        )

    def run_op(self, op):
        return len(self.execute(op).rows) == op.row_count

    def compile_and_run(self, op, op_id, tracer):
        """``explain_execute`` taken apart into its public steps, a span
        around each. Returns ``(text, boxes built, heuristic, result,
        stats)``."""
        database = self.connection(op).database
        catalog = database.catalog
        text = self.text(op)
        with tracer.span("op", op_id):
            with tracer.span("sql.parse", op_id):
                script = parse_script(text)
            with catalog.scoped_views(script.views):
                with tracer.span("qgm.build", op_id):
                    graph = build_query_graph(script.queries[0], catalog)
                boxes = len(list(graph.boxes()))
                with tracer.span("rewrite.optimize", op_id):
                    heuristic = optimize_with_heuristic(
                        graph, catalog, use_emst=True
                    )
            with tracer.span("qgm.validate", op_id):
                validate_graph(heuristic.graph)
            prepared = PreparedQuery(
                database=database, graph=heuristic.graph, plan=heuristic.plan,
                heuristic=heuristic, strategy=STRATEGY, executor=EXECUTOR,
            )
            with tracer.span("engine.exec", op_id):
                result, stats = prepared.execute()
        return text, boxes, heuristic, result, stats

    def run_op_traced(self, op, op_id):
        tracer = self.tracer
        text, _, heuristic, result, _ = self.compile_and_run(op, op_id, tracer)
        # Outside the op: calls the library path does not make, timed
        # because the serve path (fingerprint) or a later optimizer change
        # (one plan pass on the final graph) pays them. They show up as
        # tracing overhead.
        with tracer.span("optimizer.plan", op_id):
            optimize_graph(heuristic.graph, self.connection(op).database.catalog)
        query = parse_script(text).queries[0]
        with tracer.span("sql.fingerprint", op_id):
            parameterize_query(query)
            fingerprint_query(query)
        rule_seconds = heuristic.context.rule_seconds
        self.rule_ms.append(sum(rule_seconds.values()) * 1e3)
        self.emst_ms.append(rule_seconds.get("emst", 0.0) * 1e3)
        return len(result.rows) == op.row_count

    def verify(self):
        """Every (template, literal) once more under a fresh text, against
        the oracle; the pass also sums what each layer did."""
        mismatches = 0
        self.engine_counts = EngineCounts()
        self.boxes_built = 0
        self.heuristics = []
        scratch = Tracer()
        for op_id, op in enumerate(self.cycle):
            text, boxes, heuristic, result, stats = self.compile_and_run(
                op, op_id, scratch
            )
            got = canonical_rows(result.rows)
            if (
                got != oracle_rows(self.connection(op), text)
                or len(got) != op.row_count
            ):
                mismatches += 1
            self.engine_counts.add(stats, result)
            self.boxes_built += boxes
            self.heuristics.append(heuristic)
        return len(self.cycle), mismatches

    def layers(self):
        spans = self.tracer.spans
        metrics = self.exec_metrics()
        for metric, span in (
            ("sql.parse_ms", "sql.parse"),
            ("sql.fingerprint_ms", "sql.fingerprint"),
            ("qgm.build_ms", "qgm.build"),
            ("qgm.validate_ms", "qgm.validate"),
            ("rewrite.optimize_ms", "rewrite.optimize"),
            ("optimizer.plan_ms", "optimizer.plan"),
        ):
            metrics[metric] = median(per_op_self_ms(spans, span))
        metrics["rewrite.rule_ms"] = median(self.rule_ms)
        metrics["magic.emst_ms"] = median(self.emst_ms)
        metrics["qgm.boxes"] = self.boxes_built
        metrics.update(self.engine_counts.metrics())
        metrics.update(compile_count_metrics(self.heuristics))
        metrics.update(storage_layer_probe())
        return metrics


# -- serve workloads ---------------------------------------------------------------------


class ServeOp:
    """One client request and how to judge its response."""

    __slots__ = ("kind", "department", "sql", "params", "expected_rows")

    def __init__(self, kind, department, sql, params=None, expected_rows=None):
        self.kind = kind  # "read" | "text" (never-seen statement) | "write"
        self.department = department
        self.sql = sql
        self.params = params
        #: Exact rows to expect (serve_hot); None = exactly one row.
        self.expected_rows = expected_rows


def send(client, op):
    """One request; returns ``(ok, response or None)``."""
    try:
        if op.kind == "write":
            return True, client.script(op.sql)
        response = client.query(op.sql, params=op.params)
    except (ReproError, OSError):
        # Shed, deadline trip, server error, dropped connection: failed.
        return False, None
    if op.expected_rows is not None:
        return response["rows"] == op.expected_rows, response
    return response["row_count"] == 1, response


class ServeWorkload:
    """A load generator of ``CONNECTIONS`` threads against the server in
    ``serve_target.py``, which runs as a separate process."""

    name = None
    CONNECTIONS = 2
    WARM_FRESH_PER_SHAPE = 4
    #: In a traced run each connection alternates blocks of this many ops
    #: with and without spans, so the run measures its own overhead.
    TRACE_BLOCK = 64

    def __init__(self, seed):
        self.seed = seed
        self.server = None
        self.clients = []
        self.tracers = [Tracer() for _ in range(self.CONNECTIONS)]
        self.leaked_segments = set()

    def setup(self):
        self.acked_writes = []
        self._segments_before = shm_segments()
        self.server = ServerProcess(self.seed, self.name)
        self.clients = [
            SyncQueryClient(
                port=self.server.port, retry=RetryPolicy(max_attempts=1)
            ).connect()
            for _ in range(self.CONNECTIONS)
        ]
        # Each worker plans a statement the first time it sees it and
        # builds its indexes lazily; the idle queue hands requests to the
        # workers in turn, so a few uncached runs per shape warm them all.
        client = self.clients[0]
        for shape, sql in queries.SERVE_SHAPES.items():
            for _ in range(self.WARM_FRESH_PER_SHAPE):
                client.query(
                    sql, params=[queries.serve_binding(shape, 0)], fresh=True
                )
        self.warm_up(random.Random(self.seed))

    def warm_up(self, rng):
        raise NotImplementedError

    def teardown(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None
            self.leaked_segments = shm_segments() - self._segments_before

    def schedule(self, seconds):
        """Returns ``schedule(thread, n)`` for :func:`client_loops`."""
        raise NotImplementedError

    def perform(self, thread, n, client, op):
        if not (self.trace and (n // self.TRACE_BLOCK) % 2):
            return send(client, op) + (False,)
        tracer = self.tracers[thread]
        op_id = "%d.%d" % (thread, n)
        with tracer.span("client.request", op_id, op.kind):
            ok, response = send(client, op)
            if response is not None and "elapsed_seconds" in response:
                # The server reports how long it held the request; place
                # that at the end of the round trip.
                now = clock()
                tracer.add(
                    "server.handle", now - response["elapsed_seconds"], now,
                    op_id,
                )
        return ok, response, True

    def measure(self, seconds, trace):
        self.trace = trace
        client = self.clients[0]
        self.stats_before = client.stats()
        loop, self.records = client_loops(
            self.clients, self.schedule(seconds), seconds, self.perform
        )
        self.stats_after = client.stats()
        self._peak_rss = self.server.peak_rss_mib(
            self.stats_after["workers"]["pids"]
        )
        return loop

    def peak_rss_mib(self):
        return self._peak_rss

    def spans(self):
        return merge_spans(self.tracers)

    def verify_fresh(self, keys):
        """``(shape, department, served rows or None)`` triples: the
        server's uncached answer — and the rows it served during the timed
        region, when given — against a private connection over the same
        data with every acknowledged write replayed."""
        self.oracle = Connection(serve_target.build_database(self.seed))
        for index in self.acked_writes:
            self.oracle.run_script(queries.update_sql(index))
        client = self.clients[0]
        mismatches = 0
        for shape, index, served in keys:
            value = queries.serve_binding(shape, index)
            sql = queries.SERVE_SHAPES[shape]
            expected = oracle_rows(self.oracle, sql.replace("?", "'%s'" % value))
            fresh = client.query(sql, params=[value], fresh=True)["rows"]
            if canonical_rows(fresh) != expected or (
                served is not None and canonical_rows(served) != expected
            ):
                mismatches += 1
        return len(keys), mismatches

    def layers(self):
        records = self.records
        reads = [r for r in records if r.kind != "write" and r.response]
        writes = [r for r in records if r.kind == "write" and r.response]
        handle = [r.response["elapsed_seconds"] for r in reads]
        planned = [
            r.response["cache"] for r in reads
            if r.response["cache"] != "result"
        ]
        before, after = self.stats_before, self.stats_after

        def delta(*path):
            a, b = before, after
            for key in path:
                a, b = a[key], b[key]
            return b - a

        lookups = delta("result_cache", "hits") + delta("result_cache", "misses")
        lag = [r.sent - r.due for r in records]
        traced = [r.done - r.sent for r in reads if r.traced]
        plain = [r.done - r.sent for r in reads if not r.traced]
        metrics = {
            "server.handle_ms": median_ms(handle),
            "server.transport_ms": median_ms([
                (r.done - r.sent) - r.response["elapsed_seconds"] for r in reads
            ]),
            "server.write_ms": median_ms([r.done - r.sent for r in writes]),
            "server.read_after_write_ms": median_ms(self.reads_after_write()),
            "server.op_p99_ms": percentile(
                [r.done - r.due for r in records], 0.99
            ) * 1e3,
            # Plans live in the workers' caches, so the rate is read off
            # the responses rather than the parent's (unused) plan cache.
            "server.plan_cache.hit_rate": (
                planned.count("hit") / len(planned) if planned else 0.0
            ),
            "server.result_cache.hit_rate": (
                delta("result_cache", "hits") / lookups if lookups else 0.0
            ),
            "server.admission.shed": delta("admission", "shed"),
            "workers.dispatches": delta("workers", "dispatches"),
            "workers.crashes": delta("workers", "crashes"),
            "workers.publishes": delta("workers", "store", "publishes"),
            "workers.published_tables": delta(
                "workers", "store", "published_tables"
            ),
            "loadgen.late_share": sum(1 for v in lag if v > 0.001) / len(lag),
            "loadgen.send_lag_ms": median_ms(lag),
            "trace.overhead_share": (
                median(traced) / median(plain) - 1.0 if traced and plain else 0.0
            ),
        }
        metrics.update(self.inprocess_probes())
        metrics.update(storage_layer_probe())
        return metrics

    def reads_after_write(self):
        """Latencies of the first read each connection sent after a write
        was acknowledged: the cost of re-syncing a worker and refilling
        the result cache."""
        acks = sorted(r.done for r in self.records if r.kind == "write")
        reads = sorted(
            (r for r in self.records if r.kind != "write"),
            key=lambda r: r.sent,
        )
        samples = []
        position = 0
        for ack in acks:
            while position < len(reads) and reads[position].sent < ack:
                position += 1
            samples.extend(
                r.done - r.sent
                for r in reads[position:position + self.CONNECTIONS]
            )
        return samples

    def inprocess_probes(self):
        """Layer costs the wire hides, measured on a private in-process
        server over the oracle's copy of the data: the core without
        transport or workers, plan reuse (clone + bind), the SQL front
        end, and what a publish after one UPDATE costs."""
        database = self.oracle.database
        server = QueryServer(
            database,
            dataclasses.replace(
                serve_target.server_config(), workers=0, result_cache_capacity=0
            ),
        )
        names = ("server.core.handle_ms", "sql.parse_ms", "sql.fingerprint_ms",
                 "qgm.clone_ms", "qgm.bind_ms")
        samples = {name: [] for name in names}
        try:
            for shape, sql in queries.SERVE_SHAPES.items():
                values = [queries.serve_binding(shape, 1)]
                server.handle_query(sql, params=values)  # plans it
                handle, _ = server.handle_prepare(sql)
                entry = server.cache.lookup(
                    handle.fingerprint, handle.strategy,
                    database.schema_version(),
                )
                for _ in range(10):
                    marks = [clock()]
                    server.handle_query(sql, params=values)
                    marks.append(clock())
                    query = parse_script(sql).queries[0]
                    marks.append(clock())
                    parameterize_query(query)
                    fingerprint_query(query)
                    marks.append(clock())
                    graph = clone_graph(entry.graph)
                    marks.append(clock())
                    bind_parameters(graph, values)
                    marks.append(clock())
                    for name, start, end in zip(names, marks, marks[1:]):
                        samples[name].append(end - start)
        finally:
            server.shutdown()
        metrics = {name: median_ms(values) for name, values in samples.items()}
        store = SharedTableStore(database)
        try:
            self.oracle.run_script(queries.update_sql(1))
            started = clock()
            store.publish()
            metrics["workers.publish_ms"] = (clock() - started) * 1e3
            registry = store.registry()
            metrics["workers.publish_bytes"] = sum(
                info["nbytes"] for info in registry["tables"].values()
            ) + registry["catalog"].get("nbytes", 0)
        finally:
            store.close()
        return metrics


class ServeHot(ServeWorkload):
    """A working set that fits both caches: transport, session,
    fingerprinting and the result-cache lookup are the whole cost."""

    name = "serve_hot"
    HOT_BINDINGS = 8

    def warm_up(self, rng):
        departments = rng.sample(
            range(serve_target.DEPARTMENTS), self.HOT_BINDINGS
        )
        client = self.clients[0]
        self.keys = []
        self.ops = []
        for index in departments:
            for shape, sql in queries.SERVE_SHAPES.items():
                params = [queries.serve_binding(shape, index)]
                # This fills the result cache; every timed op must see
                # exactly these rows again.
                rows = client.query(sql, params=params)["rows"]
                self.ops.append(ServeOp("read", index, sql, params, rows))
                self.keys.append((shape, index, rows))

    def schedule(self, seconds):
        orders = []
        for thread in range(self.CONNECTIONS):
            order = list(range(len(self.ops)))
            random.Random(self.seed * 31 + thread).shuffle(order)
            orders.append(order)

        def schedule(thread, n):
            order = orders[thread]
            return n, self.ops[order[n % len(order)]], None

        return schedule

    def verify(self):
        return self.verify_fresh(self.keys)


class ServeMixed(ServeWorkload):
    """Open loop: reads over a working set far beyond the result cache,
    new statement texts, and writes that invalidate and re-publish."""

    name = "serve_mixed"
    #: Ops per second: 30 % of what two closed-loop connections complete
    #: on the 2-core reference box. At 50 % the median op was one that had
    #: queued, and moved from run to run (see README.md).
    RATE = 100.0
    BINDINGS = 1000
    ZIPF_EXPONENT = 1.1
    #: The salary-rank self-join costs ten times the two view lookups.
    #: Keeping it to a fifth of the reads puts the median op firmly among
    #: the lookups; at a third it sat on the boundary between the two and
    #: flipped from run to run.
    SHAPE_WEIGHTS = {"paperD": 2, "deptStats": 2, "salaryRank": 1}
    WRITE_EVERY = 50  # 2 % writes
    TEXT_EVERY = 100  # 1 % never-seen statement texts
    PROBE_DEPARTMENTS = 10

    def warm_up(self, rng):
        self.rng = rng
        self.departments = rng.sample(
            range(serve_target.DEPARTMENTS), self.BINDINGS
        )
        # One write before timing: the DML path and the first publish
        # have lazy set-up of their own.
        self.clients[0].script(queries.update_sql(self.departments[0]))
        self.acked_writes.append(self.departments[0])

    def schedule(self, seconds):
        rng = self.rng
        count = int(self.RATE * seconds)
        ranks = queries.zipf_sampler(self.BINDINGS, self.ZIPF_EXPONENT, rng)(count)
        shapes = rng.choices(
            list(self.SHAPE_WEIGHTS), weights=self.SHAPE_WEIGHTS.values(), k=count
        )
        self.ops = ops = []
        for i in range(count):
            index = self.departments[ranks[i]]
            shape = shapes[i]
            params = [queries.serve_binding(shape, index)]
            if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                ops.append(ServeOp("write", index, queries.update_sql(index)))
            elif i % self.TEXT_EVERY == self.TEXT_EVERY // 2:
                ops.append(ServeOp(
                    "text", index, queries.serve_shape_sql(shape, serial=i),
                    params,
                ))
            else:
                ops.append(ServeOp(
                    "read", index, queries.SERVE_SHAPES[shape], params
                ))
        counter = itertools.count()
        lock = threading.Lock()

        def schedule(thread, n):
            with lock:
                i = next(counter)
            if i >= count:
                return None
            return i, ops[i], i / self.RATE

        return schedule

    def measure(self, seconds, trace):
        loop = super().measure(seconds, trace)
        # Ops that were due but never sent because the backlog outlived
        # the run missed every latency limit: they count as failed.
        unsent = len(self.ops) - len(self.records)
        loop.attempted += unsent
        loop.failed += unsent
        self.acked_writes.extend(
            self.ops[r.index].department
            for r in self.records if r.kind == "write" and r.response
        )
        return loop

    def verify(self):
        written = list(dict.fromkeys(self.acked_writes))
        probe = written[: self.PROBE_DEPARTMENTS - 4]
        probe += [d for d in self.departments if d not in written][
            : self.PROBE_DEPARTMENTS - len(probe)
        ]
        return self.verify_fresh([
            (shape, index, None)
            for index in probe for shape in queries.SERVE_SHAPES
        ])


WORKLOADS = {
    cls.name: cls
    for cls in (BoundLookup, FullRollup, AdhocCompile, ServeHot, ServeMixed)
}
