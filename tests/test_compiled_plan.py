"""Compile-once physical plans: one program, many executions.

The batch executor compiles a prepared graph to an operator program on the
first ``execute`` and every later execution only does data-dependent work.
These tests pin that down from outside: what a second execution may not
call, that a program follows the data, that a recursive rule's round
costs what its delta costs, that parameter values never touch the cached
graph, that one program is re-entrant, that budgets, cancel tokens and
injected faults still reach the compiled operators, that a unique
build side joins in one pass at the bucketed path's cost, that an
inequality join over a base table bisects its sorted column, and that
the row-at-a-time path (outer joins, E/A tests) runs closures compiled
once per execution, never per row.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.engine.columnar.operators as operators
import repro.engine.columnar.program as program_module
import repro.engine.columnar.vector as vector
import repro.engine.evaluator as evaluator_module
import repro.engine.expressions as expressions
import repro.engine.storage as storage
import repro.optimizer.cardinality as cardinality
import repro.qgm.expr as qe
import repro.qgm.facts.keyflow as keyflow
import repro.qgm.stratum as stratum
from repro import Connection, Database
from repro.engine import BatchEvaluator
from repro.engine.columnar import compile_program
from repro.engine.evaluator import CHECKPOINT_INTERVAL, SelectPlan
from repro.engine.storage import UniqueIndex
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    ResourceExhaustedError,
)
from repro.qgm import render_text
from repro.qgm.model import BoxKind
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
        "solve_keys": [(keyflow, "solve_keys"), (cardinality, "solve_keys")],
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


# -- (c) a semi-naive round costs what its delta costs ----------------------------------

#: A fixed forest of ``(parent, child)`` edges, four levels at most.
FOREST = [
    (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7), (7, 8),
    (10, 11), (11, 12), (11, 13),
]
CLOSURE_QUERY = (
    "WITH RECURSIVE uses (part, component) AS ("
    " SELECT parent, child FROM bom"
    " UNION"
    " SELECT u.part, b.child FROM uses u, bom b WHERE b.parent = u.component"
    ") SELECT part, component FROM uses"
)


def forest_connection():
    db = Database()
    db.create_table("bom", ["parent", "child"], rows=FOREST)
    return Connection(db, executor="batch")


def semi_naive_counts(edges):
    """``(closure, rows scanned, matches)`` of a plain-Python semi-naive
    run: each round scans the previous round's new pairs and joins them
    with the edges on ``child = parent``."""
    children = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    known = set(edges)
    delta = list(dict.fromkeys(edges))
    scanned = matches = 0
    while delta:
        scanned += len(delta)
        derived = [
            (part, child)
            for part, component in delta
            for child in children.get(component, ())
        ]
        matches += len(derived)
        delta = [pair for pair in dict.fromkeys(derived) if pair not in known]
        known.update(delta)
    return known, scanned, matches


def test_the_delta_leads_its_rule_in_the_batch_program():
    conn = forest_connection()
    text = conn.explain(CLOSURE_QUERY, strategy="emst")
    logical, physical = text.split("physical plan:\n")
    # The optimizer's order (the sip order EMST reads) is unchanged ...
    assert "SELECT Q_1: rows=1.0 cost=55.0 x1 order=(b > u_1)" in logical
    # ... while the program scans the delta and probes bom's index.
    lines = physical.splitlines()
    rule = lines.index("FIXPOINT SELECT Q_1 (~44 rows)")
    assert lines[rule + 1:rule + 3] == [
        "  SCAN u_1 (USES, ~88 rows)",
        "  HASHJOIN b (bom, ~10 rows) ON (b.parent = u_1.component)",
    ]


def test_a_semi_naive_round_probes_what_its_delta_costs():
    closure, scanned, matches = semi_naive_counts(FOREST)
    conn = forest_connection()
    prepared = conn.prepare_statement(CLOSURE_QUERY, strategy="emst")
    result, stats = prepared.execute()
    assert set(result.rows) == closure
    assert len(result.rows) == len(closure) == 20
    # As before the delta led: bom (10) + Q (10) + Q_1's derived rows
    # (10) + uses (20) + the result (20).
    assert stats.rows_produced == 70
    # Q and the result scan their inputs once; the recursive rule scans
    # each delta once and probes bom's persistent index, so nothing is
    # rescanned per round.
    assert (scanned, matches) == (20, 10)
    assert stats.join_probes == len(FOREST) + scanned + matches + len(closure)
    # Q and the result take two batches each (scan, projection). The
    # rule takes three a round (delta scan, probe, projection), and two
    # when its delta is empty, which skips the probe: every other round
    # of the eight, since the union hands it new rows a round late.
    assert stats.batches == 2 + 2 + 4 * 3 + 4 * 2
    tuple_stats = conn.explain_execute(
        CLOSURE_QUERY, strategy="emst", executor="tuple"
    ).stats
    assert tuple_stats["rows_produced"] == stats.rows_produced


def test_returned_rows_never_alias_a_table_or_a_member():
    """A projection of one quantifier's columns, in order, hands back
    that quantifier's rows: as a copy, so mutating a result changes
    neither the base table nor the next execution."""
    conn = forest_connection()
    for sql in (CLOSURE_QUERY, "SELECT parent, child FROM bom"):
        prepared = conn.prepare_statement(sql, strategy="emst")
        first, _ = prepared.execute()
        expected = canonical(first.rows)
        first.rows.append((0, 0))
        first.rows.reverse()
        del first.rows[1:]
        second, _ = prepared.execute()
        assert canonical(second.rows) == expected, sql
        assert conn.database.table("bom").rows == FOREST

        execution = BatchEvaluator(
            prepared.graph, conn.database, program=prepared.program
        )
        execution.run()
        table_rows = conn.database.table("bom").rows
        selects = [
            box
            for component in prepared.program.components
            for box in component
            if box.kind == BoxKind.SELECT
        ]
        assert selects
        for box in selects:
            assert execution._materialized[id(box)] is not table_rows, box.name


# -- (d) parameter slots -----------------------------------------------------------------

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


# -- (e) re-entrancy ---------------------------------------------------------------------


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


# -- (g) a unique build side joins in one pass -------------------------------------------

MANAGERS = (
    "SELECT d.deptname, e.empname FROM department d, employee e "
    "WHERE e.empno = d.mgrno"
)


def test_a_fully_matched_unique_probe_joins_by_identity(monkeypatch):
    conn = empdept_connection()
    table = conn.database.table("department")
    assert type(conn.database.table("employee").index_on("empno")) is UniqueIndex
    prepared = conn.prepare_statement(
        MANAGERS, strategy="original", executor="batch"
    )
    seen = []
    attach = operators.HashStep.attach

    def recording(step, state, batch):
        slots = dict(batch.slots)
        sources = dict(batch.column_sources)
        out = attach(step, state, batch)
        seen.append((step.quantifier, slots, sources, out))
        return out

    monkeypatch.setattr(operators.HashStep, "attach", recording)
    result, _ = prepared.execute()
    assert canonical(result.rows) == oracle(conn, MANAGERS)
    [(joined, slots, sources, out)] = seen
    assert joined.name == "e" and list(slots) != []
    # The earlier slots' row lists and column sources are the same
    # objects, and the scan's columns still come straight from the table.
    for quantifier, rows in slots.items():
        assert out.slots[quantifier] is rows
        assert out.column_sources[quantifier] is sources[quantifier]
        ordinal = table.schema.column_ordinal("deptname")
        assert out.column(quantifier, ordinal) is table.column_data(ordinal)
    assert len(out.slots[joined]) == out.length == len(table)


def _bucketed(keys, rows):
    index = {}
    for key, row in zip(keys, rows):
        index.setdefault(key, []).append(row)
    return index


@pytest.mark.parametrize("strategy", ["original", "emst"])
@pytest.mark.parametrize("sql", [
    MANAGERS,
    # One department's mgrno + 1 names no employee: a miss.
    "SELECT d.deptname, e.empname FROM department d, employee e "
    "WHERE e.empno = d.mgrno + 1",
    ROLLUP,  # a derived build side, unique on its grouping column
])
def test_unique_probes_charge_what_bucketed_probes_charge(
    monkeypatch, sql, strategy,
):
    def run():
        conn = empdept_connection()
        result, stats = conn.prepare_statement(
            sql, strategy=strategy, executor="batch"
        ).execute()
        return canonical(result.rows), [
            stats.join_probes, stats.batch_probes, stats.batch_probe_matches,
            stats.batches, stats.rows_produced,
        ]

    unique = run()
    monkeypatch.setattr(storage, "build_index", _bucketed)
    monkeypatch.setattr(operators, "build_index", _bucketed)
    assert run() == unique


def test_a_governed_unique_probe_cancels_inside_its_loop(monkeypatch):
    keys = 3 * CHECKPOINT_INTERVAL - 100
    db = Database()
    db.create_table("t", ["k"], rows=[(k,) for k in range(keys)])
    db.create_table("u", ["k", "v"], rows=[(k, -k) for k in range(keys)])
    sql = "SELECT t.k, u.v FROM t, u WHERE u.k = t.k"
    prepared = Connection(db).prepare_statement(
        sql, strategy="original", executor="batch"
    )
    probes = []
    probe_index = operators.probe_index

    def counting(index, keys, start=0):
        probes.append((type(index), len(keys), start))
        return probe_index(index, keys, start)

    monkeypatch.setattr(operators, "probe_index", counting)
    governor = ResourceGovernor()
    token = threading.Event()
    governor.attach_cancel_token(token, "test")
    original = governor.checkpoint

    def cancelling(where):
        if probes:
            token.set()
        return original(where)

    governor.checkpoint = cancelling
    with pytest.raises(QueryCancelledError):
        BatchEvaluator(
            prepared.graph, db, join_orders=prepared.plan.join_orders,
            governor=governor,
        ).run()
    # Cancelled after the first of three chunks, before the second.
    assert probes == [(UniqueIndex, CHECKPOINT_INTERVAL, 0)]


# -- (h) an inequality join bisects a sorted column --------------------------------------

SALARY_RANK = (
    "SELECT COUNT(*) FROM employee e1, employee e2 "
    "WHERE e1.salary < e2.salary AND e1.workdept = ?"
)


def select_steps(prepared):
    """``{box name: [step, ...]}`` of the select boxes of a prepared
    query's program."""
    program = compile_program(prepared.graph, prepared.plan.join_orders)
    return {
        operator.box.name: operator.steps
        for operator in program.operators.values()
        if isinstance(operator, operators.SelectOp)
    }


def test_a_base_table_inequality_lowers_to_a_range_join():
    conn = empdept_connection()
    prepared = conn.prepare_statement(SALARY_RANK, strategy="emst")
    [steps] = [s for s in select_steps(prepared).values() if len(s) == 2]
    first, second = steps
    assert type(first) is operators.HashStep
    assert type(second) is operators.RangeStep
    assert second.quantifier.name == "e2"
    employee = conn.database.table("employee")
    assert second.ordinal == employee.schema.column_ordinal("salary")
    # e1.salary < e2.salary reads as e2.salary > e1.salary; nothing is
    # left to filter afterwards.
    assert [end for end, _, _ in second.ends] == ["lo"]
    assert second.filters == []
    result, stats = prepared.execute(["D0001"])
    oracle_rows, _ = conn.prepare_statement(
        SALARY_RANK, strategy="norewrite", executor="tuple"
    ).execute(["D0001"])
    assert result.rows == oracle_rows.rows
    # One probe of e1's index, one bisect per employee of the department.
    assert stats.batch_probes == 1 + 6


def test_rows_that_are_not_the_row_view_take_the_cross_product():
    conn = empdept_connection()
    prepared = conn.prepare_statement(SALARY_RANK, strategy="emst")

    class CopiedBaseRows(BatchEvaluator):
        def rows_for(self, box, env):
            rows = super().rows_for(box, env)
            return list(rows) if box.kind == BoxKind.BASE else rows

    state = CopiedBaseRows(
        prepared.graph, conn.database, join_orders=prepared.plan.join_orders,
        params=["D0001"], program=prepared.program,
    )
    result = state.run()
    expected, stats = prepared.execute(["D0001"])
    assert result.rows == expected.rows
    # The index probe of e1 only: no bisect, every pair compared.
    assert state.stats.batch_probes == 1
    assert state.stats.join_probes == stats.join_probes


@pytest.mark.parametrize("sql", [
    # A predicate ahead of the comparison would see pairs the range skips.
    "SELECT e1.empno, e2.empno FROM employee e1, employee e2 "
    "WHERE e1.job <> e2.job AND e1.salary < e2.salary",
    # Only a base table has a sorted column.
    "SELECT d.deptno, s.workdept FROM department d, avgMgrSal s "
    "WHERE d.mgrno < s.avgsalary",
    # Both sides of the comparison on the inner quantifier.
    "SELECT e1.empno FROM employee e1, employee e2 "
    "WHERE e2.salary < e2.empno + e1.empno",
])
def test_other_inequality_joins_stay_cross_products(sql):
    conn = empdept_connection()
    prepared = conn.prepare_statement(sql, strategy="original")
    kinds = {
        type(step) for steps in select_steps(prepared).values() for step in steps
    }
    assert operators.CrossStep in kinds
    assert operators.RangeStep not in kinds
    result, _ = prepared.execute()
    assert canonical(result.rows) == oracle(conn, sql)


def test_explain_names_the_range_join_the_batch_engine_runs():
    conn = empdept_connection()
    line = "RANGEJOIN e2 (employee, ~180 rows) ON (e1.salary < e2.salary)"
    assert line in conn.explain(SALARY_RANK)
    # The tuple engine runs the same pipeline with a nested loop there.
    tuple_text = conn.explain(SALARY_RANK, executor="tuple")
    assert "RANGEJOIN" not in tuple_text
    assert line.replace("RANGEJOIN", "NLJOIN") in tuple_text


def test_a_governed_range_join_cancels_inside_its_loop(monkeypatch):
    # Every outer row matches more than a chunk's worth of inner rows.
    inner = 3 * CHECKPOINT_INTERVAL
    db = Database()
    db.create_table("t", ["k"], rows=[(k,) for k in range(3)])
    db.create_table("u", ["v"], rows=[(v,) for v in range(inner)])
    sql = "SELECT t.k, u.v FROM t, u WHERE u.v > t.k"
    prepared = Connection(db).prepare_statement(sql, strategy="original")
    bisects = []
    bisect_right = operators.bisect_right

    def counting(values, value, lo, hi):
        bisects.append(value)
        return bisect_right(values, value, lo, hi)

    monkeypatch.setitem(
        operators._RANGE_ENDS, ">", (operators._RANGE_ENDS[">"][0], counting)
    )
    governor = ResourceGovernor()
    token = threading.Event()
    governor.attach_cancel_token(token, "test")
    original = governor.checkpoint

    def cancelling(where):
        if bisects:
            token.set()
        return original(where)

    governor.checkpoint = cancelling
    with pytest.raises(QueryCancelledError):
        BatchEvaluator(
            prepared.graph, db, join_orders=prepared.plan.join_orders,
            governor=governor,
        ).run()
    # Cancelled after the first outer row's matches, before the second
    # bisect.
    assert bisects == [0]


# -- (i) the row path compiles per execution, never per row ------------------------------
#
# Outer joins and E/A tests run one row at a time on both engines. Each of
# their predicates is compiled once — per execution on the tuple path, at
# lowering for the batch E/A step — and called per row: no interpreter,
# no compile per row.

OUTER_AND_SEMI_JOIN = (
    "SELECT p.k, q.c FROM p LEFT JOIN q ON q.a = p.a AND q.c > p.b "
    "WHERE p.a IN (SELECT r.a FROM r WHERE r.c > 0)"
)


def outer_and_semi_join_connection(size):
    db = Database()
    db.create_table(
        "p", ["k", "a", "b"], rows=[(i, i % 7, i % 5) for i in range(size)]
    )
    db.create_table("q", ["a", "c"], rows=[(i % 7, i % 4) for i in range(size)])
    db.create_table("r", ["a", "c"], rows=[(i % 9, i % 3) for i in range(size)])
    return Connection(db)


class CompileLog:
    """Every expression :func:`~repro.engine.expressions.compile_expr` is
    asked to compile (sub-expressions included), wherever a module holds
    it by name."""

    def __init__(self, monkeypatch):
        self.compiled = []
        original = expressions.compile_expr

        def recorded(expr):
            self.compiled.append(expr)
            return original(expr)

        for module in (expressions, evaluator_module, operators, vector):
            monkeypatch.setattr(module, "compile_expr", recorded)

    def take(self):
        taken, self.compiled = self.compiled, []
        return taken


def row_path_predicates(graph):
    """``(ON, E/A)`` of ``graph``: the expressions an outer join compiles
    (its residual ON predicates and the probe side of the equalities it
    hashes on) and the predicates attached to E/A quantifiers."""
    on, attached = [], []
    for box in graph.boxes():
        if box.kind == BoxKind.OUTERJOIN:
            left, right = box.quantifiers
            pairs, residual = evaluator_module.split_hashable(
                box.predicates, right, set(box.quantifiers), {left}
            )
            on.extend(residual + [probe for _, probe in pairs])
        elif box.kind == BoxKind.SELECT:
            for _, predicates in SelectPlan(box).filters:
                attached.extend(predicates)
    return on, attached


def compiled_ids(expressions_compiled):
    return {id(expr) for expr in expressions_compiled}


@pytest.mark.parametrize("executor", ["tuple", "batch"])
def test_the_row_path_compiles_per_execution_not_per_row(monkeypatch, executor):
    log = CompileLog(monkeypatch)
    counts = {}
    for size in (20, 200):
        conn = outer_and_semi_join_connection(size)
        prepared = conn.prepare_statement(
            OUTER_AND_SEMI_JOIN, strategy="original", executor=executor
        )
        log.take()
        prepared.execute()
        first = log.take()
        on, attached = row_path_predicates(prepared.graph)
        assert on and attached
        # Every ON and E/A predicate ran as a compiled closure.
        assert compiled_ids(on + attached) <= compiled_ids(first)
        result, _ = prepared.execute()
        counts[size] = len(log.take())
        assert canonical(result.rows) == oracle(conn, OUTER_AND_SEMI_JOIN)
        assert len(result.rows) > size // 2
    # Ten times the rows, the same compiles: none happens per row.
    assert counts[20] == counts[200] > 0


def test_a_second_batch_execute_compiles_no_e_or_a_predicate(monkeypatch):
    log = CompileLog(monkeypatch)
    conn = outer_and_semi_join_connection(50)
    prepared = conn.prepare_statement(
        OUTER_AND_SEMI_JOIN, strategy="original", executor="batch"
    )
    _, attached = row_path_predicates(prepared.graph)
    prepared.execute()
    assert compiled_ids(attached) <= compiled_ids(log.take())
    prepared.execute()
    assert not compiled_ids(attached) & compiled_ids(log.take())

