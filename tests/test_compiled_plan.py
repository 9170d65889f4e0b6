"""Compile-once physical plans: one program, many executions.

The batch executor compiles a prepared graph to an operator program on the
first ``execute`` and every later execution only does data-dependent work.
These tests pin that down from outside: what a second execution may not
call, that a program follows the data, that parameter values never touch
the cached graph, that one program is re-entrant, and that budgets, cancel
tokens and injected faults still reach the compiled operators.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.analysis.dataflow.keyflow as keyflow
import repro.engine.columnar.operators as operators
import repro.engine.columnar.program as program_module
import repro.engine.columnar.vector as vector
import repro.engine.evaluator as evaluator_module
import repro.qgm.expr as qe
import repro.qgm.stratum as stratum
from repro import Connection, Database
from repro.engine import BatchEvaluator
from repro.engine.columnar import compile_program
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    ResourceExhaustedError,
)
from repro.qgm import render_text
from repro.resilience import ResiliencePolicy, ResourceGovernor
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.server import QueryServer, ServerConfig
from repro.sql import parse_statement
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from tests.helpers import canonical

VIEW_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"
)
RECURSIVE_QUERY = (
    "WITH RECURSIVE reach (n) AS ("
    "  SELECT e.dst FROM edge e WHERE e.src = 0"
    "  UNION"
    "  SELECT e.dst FROM edge e, reach r WHERE e.src = r.n"
    ") SELECT r.n FROM reach r"
)


def empdept_connection(**kwargs):
    db = build_empdept_database(
        n_departments=30, employees_per_department=6, seed=5
    )
    conn = Connection(db, **kwargs)
    conn.run_script(PAPER_VIEWS_SQL)
    return conn


def edge_connection():
    db = Database()
    db.create_table(
        "edge", ["src", "dst"],
        rows=[(i, i + 1) for i in range(30)] + [(30, 0), (7, 19)],
    )
    return Connection(db)


def oracle(conn, sql):
    return canonical(
        conn.explain_execute(sql, strategy="norewrite", executor="tuple").rows
    )


# -- (a) the second execution re-derives nothing ---------------------------------------


class CallCounts:
    """Counting wrappers around the functions that interpret a graph:
    expression walks, Tarjan, the keyflow fixpoint, vector compilation.
    Each is patched wherever a module holds it by name."""

    TARGETS = {
        "walk": [(qe, "walk")],
        "reduced_dependency_graph": [
            (stratum, "reduced_dependency_graph"),
            (evaluator_module, "reduced_dependency_graph"),
            (program_module, "reduced_dependency_graph"),
        ],
        "solve_keys": [(keyflow, "solve_keys")],
        "compile_vector": [
            (vector, "compile_vector"),
            (operators, "compile_vector"),
        ],
    }

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(self.TARGETS, 0)
        for name, places in self.TARGETS.items():
            for module, attribute in places:
                monkeypatch.setattr(
                    module, attribute,
                    self._counting(name, getattr(module, attribute)),
                )

    def _counting(self, name, original):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def take(self):
        taken, self.counts = self.counts, dict.fromkeys(self.TARGETS, 0)
        return taken


@pytest.mark.parametrize(
    "make_connection, sql, analyses",
    [
        (empdept_connection, VIEW_QUERY,
         ("walk", "reduced_dependency_graph", "compile_vector")),
        (edge_connection, RECURSIVE_QUERY,
         ("walk", "reduced_dependency_graph", "solve_keys", "compile_vector")),
    ],
)
def test_second_execute_does_no_graph_interpretation(
    monkeypatch, make_connection, sql, analyses
):
    conn = make_connection()
    prepared = conn.prepare_statement(sql, strategy="emst", executor="batch")
    counts = CallCounts(monkeypatch)

    first, _ = prepared.execute()
    compiling = counts.take()
    for name in analyses:
        assert compiling[name] > 0, "%s is not instrumented" % name

    second, second_stats = prepared.execute()
    assert counts.take() == dict.fromkeys(CallCounts.TARGETS, 0)
    assert second_stats.box_evaluations > 0
    assert canonical(second.rows) == canonical(first.rows) == oracle(conn, sql)


def test_one_shot_execution_compiles_once(monkeypatch):
    conn = empdept_connection()
    calls = []
    original = program_module.Program.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(program_module.Program, "__init__", counting)
    conn.explain_execute(VIEW_QUERY, strategy="emst", executor="batch")
    assert len(calls) == 1


# -- (b) a program follows the data ------------------------------------------------------

ROLLUP = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept"
)


def test_reexecution_tracks_inserts_updates_and_deletes():
    conn = empdept_connection()
    prepared = conn.prepare_statement(ROLLUP, strategy="emst", executor="batch")
    rows, _ = prepared.execute()
    program = prepared.program
    assert canonical(rows.rows) == oracle(conn, ROLLUP)
    for dml in (
        "UPDATE employee SET salary = salary + 1000",
        "DELETE FROM employee WHERE salary > 120000",
        "INSERT INTO department VALUES ('ZZ1', 'Annex', 9001, 'DIV00', 1000);"
        "INSERT INTO employee VALUES (9001, 'Boss', 'ZZ1', 77000, 'MANAGER')",
        "DELETE FROM department WHERE deptname = 'Planning'",
    ):
        before = canonical(rows.rows)
        conn.run_script(dml)
        rows, _ = prepared.execute()
        assert prepared.program is program
        assert canonical(rows.rows) == oracle(conn, ROLLUP), dml
        assert canonical(rows.rows) != before, "%s changed nothing" % dml


def test_transient_indexes_belong_to_one_execution():
    conn = empdept_connection()
    graph, plan, _, _ = conn.prepare(
        parse_statement(ROLLUP), strategy="original"
    )
    program = compile_program(graph, plan.join_orders)

    def execution():
        return BatchEvaluator(
            graph, conn.database, join_orders=plan.join_orders, program=program
        )

    first = execution()
    first_rows = first.run().rows
    # The join against the aggregated view builds a transient index.
    assert first._index_cache
    second = execution()
    assert second._index_cache == {} and second._materialized == {}
    conn.run_script("UPDATE employee SET salary = salary * 2")
    second_rows = second.run().rows
    assert canonical(second_rows) == oracle(conn, ROLLUP)
    assert canonical(second_rows) != canonical(first_rows)
    assert set(second._index_cache) == set(first._index_cache)
    for key, index in first._index_cache.items():
        assert second._index_cache[key] is not index


# -- (c) parameter slots -----------------------------------------------------------------

PARAM_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = ?"
)


def test_one_cached_plan_serves_every_binding(monkeypatch):
    conn = empdept_connection()
    server = QueryServer(conn.database, ServerConfig(default_executor="batch"))
    try:
        handle, _ = server.handle_prepare(PARAM_QUERY)
        server.handle_execute(handle, ["Planning"])  # plans + compiles
        entry = server.cache.lookup(
            handle.fingerprint, handle.strategy, conn.database.schema_version()
        )
        program = entry.program
        assert program is not None
        rendered = render_text(entry.graph)

        def no_clone(*args, **kwargs):
            raise AssertionError("clone_graph called on the hot path")

        import repro.qgm.clone

        monkeypatch.setattr(repro.qgm.clone, "clone_graph", no_clone)

        for name in ("Planning", "Dept0003", "Dept0011", "No such department"):
            response = server.handle_execute(handle, [name])
            assert response["cache"] == "hit"
            assert response["executor"] == "batch"
            assert canonical(map(tuple, response["rows"])) == oracle(
                conn, PARAM_QUERY.replace("?", "'%s'" % name)
            )
        assert entry.program is program
        assert render_text(entry.graph) == rendered
        assert "?1" in rendered
    finally:
        server.shutdown()


def test_missing_parameter_value_is_reported():
    conn = empdept_connection()
    prepared = conn.prepare_statement(
        PARAM_QUERY, strategy="emst", executor="batch"
    )
    with pytest.raises(ExecutionError, match="unbound parameter"):
        prepared.execute()
    rows, _ = prepared.execute(params=["Planning"])
    assert len(rows.rows) == 1


@pytest.mark.parametrize("executor", ["tuple", "batch"])
def test_prepared_query_takes_parameters_on_both_engines(executor):
    conn = empdept_connection()
    prepared = conn.prepare_statement(
        PARAM_QUERY, strategy="emst", executor=executor
    )
    for name in ("Planning", "Dept0007"):
        rows, _ = prepared.execute(params=[name])
        assert canonical(rows.rows) == oracle(
            conn, PARAM_QUERY.replace("?", "'%s'" % name)
        )


# -- (d) re-entrancy ---------------------------------------------------------------------


def test_eight_threads_share_one_program():
    conn = empdept_connection()
    prepared = conn.prepare_statement(
        PARAM_QUERY, strategy="emst", executor="batch"
    )
    names = ["Planning"] + ["Dept%04d" % i for i in range(1, 16)]
    expected = {
        name: oracle(conn, PARAM_QUERY.replace("?", "'%s'" % name))
        for name in names
    }
    prepared.execute(params=[names[0]])
    program = prepared.program
    start = threading.Barrier(8)

    def worker(offset):
        start.wait(timeout=10)
        wrong = 0
        for i in range(60):
            name = names[(offset + i) % len(names)]
            rows, _ = prepared.execute(params=[name])
            wrong += canonical(rows.rows) != expected[name]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, offset) for offset in range(8)]
            assert [f.result(timeout=60) for f in futures] == [0] * 8
    finally:
        sys.setswitchinterval(interval)
    assert prepared.program is program


# -- (f) budgets, cancellation and faults reach compiled operators -----------------------

SELF_JOIN = (
    "SELECT COUNT(*) FROM employee a, employee b WHERE a.workdept = b.workdept"
)


def big_connection(governor):
    db = build_empdept_database(
        n_departments=4, employees_per_department=400, seed=3
    )
    return Connection(db, resilience=ResiliencePolicy(governor=governor))


def test_deadline_fires_inside_a_compiled_join():
    conn = big_connection(ResourceGovernor(deadline_seconds=0.002))
    prepared = conn.prepare_statement(
        SELF_JOIN, strategy="original", executor="batch"
    )
    with pytest.raises(ResourceExhaustedError) as caught:
        prepared.execute()
    assert caught.value.context["limit"] == "deadline_seconds"
    assert "join processing in box" in caught.value.context["where"]


def test_cancel_token_fires_inside_a_compiled_join():
    conn = big_connection(ResourceGovernor())
    prepared = conn.prepare_statement(
        SELF_JOIN, strategy="original", executor="batch"
    )
    governor = ResourceGovernor()
    token = threading.Event()
    governor.attach_cancel_token(token, "test")
    checkpoints = []
    original = governor.checkpoint

    def cancelling(where):
        checkpoints.append(where)
        if len(checkpoints) == 3:
            token.set()
        return original(where)

    governor.checkpoint = cancelling
    with pytest.raises(QueryCancelledError):
        BatchEvaluator(
            prepared.graph, conn.database,
            join_orders=prepared.plan.join_orders, governor=governor,
        ).run()
    assert len(checkpoints) == 3
    assert "join processing in box" in checkpoints[-1]


def test_row_budget_is_charged_per_compiled_box():
    conn = big_connection(ResourceGovernor(max_materialized_rows=100))
    prepared = conn.prepare_statement(
        "SELECT a.empno FROM employee a", strategy="original", executor="batch"
    )
    with pytest.raises(ResourceExhaustedError) as caught:
        prepared.execute()
    assert caught.value.context["limit"] == "max_materialized_rows"


def test_box_fault_fires_and_propagates_from_a_prepared_query():
    plan = FaultPlan().fail_evaluation(on_evaluation=2)
    conn = empdept_connection(resilience=ResiliencePolicy(fault_plan=plan))
    prepared = conn.prepare_statement(
        VIEW_QUERY, strategy="emst", executor="batch"
    )
    # The second box evaluation of the batch run raises. A prepared query
    # has one plan and no ladder to walk, so the fault is its error: no
    # other engine runs the plan again.
    with pytest.raises(InjectedFault):
        prepared.execute()
    assert [kind for _, _, kind in plan.injected] == ["raise"]
    # The next execution is a new query: its budgets restart, the fault
    # (scheduled once) does not fire again, and the rows are right.
    rows, _ = prepared.execute()
    assert [kind for _, _, kind in plan.injected] == ["raise"]
    assert canonical(rows.rows) == oracle(conn, VIEW_QUERY)

    bare = empdept_connection()
    prepared = bare.prepare_statement(
        VIEW_QUERY, strategy="emst", executor="batch"
    )
    faulty = FaultPlan().fail_evaluation(on_evaluation=2)
    with pytest.raises(InjectedFault):
        BatchEvaluator(
            prepared.graph, bare.database,
            join_orders=prepared.plan.join_orders, governor=faulty.governor(),
        ).run()
