"""The resilience layer: resource governor, rewrite rollback + rule
quarantine, strategy fallback, and the fault-injection harness."""

from __future__ import annotations

import pytest

from repro import (
    Connection,
    Database,
    FaultPlan,
    ResiliencePolicy,
    ResourceExhaustedError,
    ResourceGovernor,
)
from repro.engine.storage import index_matches
from repro.errors import QgmError, QueryCancelledError
from repro.qgm import build_query_graph, validate_graph
from repro.qgm.clone import clone_graph, restore_graph
from repro.resilience.faults import InjectedFault
from repro.rewrite.rule import RewriteRule
from repro.sql import parse_statement

from tests.helpers import canonical
from tests.test_integration_suite import DS_QUERIES, EMP_QUERIES


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ds_conn():
    from repro.workloads.decision_support import build_decision_support_database

    conn = Connection(build_decision_support_database(scale=0.5, seed=77))
    conn.run_script(
        """
        CREATE VIEW custRev (custkey, rev, norders) AS
          SELECT o.custkey, SUM(o.totalprice), COUNT(*)
          FROM orders o GROUP BY o.custkey;
        CREATE VIEW bigParts (partkey, pname, brand) AS
          SELECT partkey, pname, brand FROM part WHERE size > 25;
        CREATE VIEW orderValue (orderkey, value) AS
          SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount))
          FROM lineitem l GROUP BY l.orderkey;
        """
    )
    return conn


@pytest.fixture(scope="module")
def emp_conn():
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    conn = Connection(
        build_empdept_database(n_departments=25, employees_per_department=6, seed=78)
    )
    conn.run_script(PAPER_VIEWS_SQL)
    return conn


@pytest.fixture
def edge_conn():
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=[(i, i + 1) for i in range(15)])
    return Connection(db)


TRANSITIVE_CLOSURE = (
    "WITH RECURSIVE tc (src, dst) AS ("
    "  SELECT src, dst FROM edge UNION "
    "  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src) "
    "SELECT src, dst FROM tc"
)


# -- acceptance: EMST failing on every firing degrades every query -------------


@pytest.mark.parametrize("index", range(len(DS_QUERIES)))
def test_emst_fault_degrades_ds_query(ds_conn, index):
    sql = DS_QUERIES[index]
    clean = canonical(ds_conn.explain_execute(sql, strategy="original").rows)
    policy = ResiliencePolicy(
        fault_plan=FaultPlan().fail_rule("emst", on_firing=None), paranoid=True
    )
    outcome = ds_conn.explain_execute(sql, strategy="emst", resilience=policy)
    assert canonical(outcome.rows) == clean
    report = outcome.resilience
    assert report is not None
    # The EMST rule either never applied to this query (no report entry) or
    # it raised, was quarantined by name and the query degraded to phase1.
    if "emst" in report.quarantined:
        assert outcome.fallback_strategy == "phase1"
        assert "InjectedFault" in report.quarantined["emst"]["reason"]


@pytest.mark.parametrize("index", range(len(EMP_QUERIES)))
def test_emst_fault_degrades_emp_query(emp_conn, index):
    sql = EMP_QUERIES[index]
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)
    policy = ResiliencePolicy(
        fault_plan=FaultPlan().fail_rule("emst", on_firing=None), paranoid=True
    )
    outcome = emp_conn.explain_execute(sql, strategy="emst", resilience=policy)
    assert canonical(outcome.rows) == clean
    if "emst" in outcome.resilience.quarantined:
        assert "emst" in outcome.quarantined_rules
        assert outcome.fallback_strategy == "phase1"


def test_emst_fault_is_reported_by_name(emp_conn):
    # The paper's query D goes through the EMST rule on this schema, so the
    # injected failure must be visible in the report, not just absorbed.
    sql = EMP_QUERIES[0]
    policy = ResiliencePolicy(fault_plan=FaultPlan().fail_rule("emst"))
    outcome = emp_conn.explain_execute(sql, strategy="emst", resilience=policy)
    assert outcome.quarantined_rules == ["emst"]
    assert outcome.fallback_strategy == "phase1"
    assert outcome.stats["rule_rollbacks"] == {"emst": 1}
    assert "quarantined emst" in outcome.resilience.describe()


@pytest.mark.parametrize("key", sorted("ABCDEFGH"))
def test_emst_fault_degrades_workload_experiment(key):
    # The Table-1 experiment queries of the workload suite (what
    # tests/test_workloads.py exercises), each with EMST forced to raise.
    from repro.workloads.experiments import EXPERIMENTS

    db, views, query = EXPERIMENTS[key].build(scale=0.1)
    conn = Connection(db)
    if views:
        conn.run_script(views)
    clean = canonical(conn.explain_execute(query, strategy="original").rows)
    policy = ResiliencePolicy(
        fault_plan=FaultPlan().fail_rule("emst", on_firing=None), paranoid=True
    )
    outcome = conn.explain_execute(query, strategy="emst", resilience=policy)
    assert canonical(outcome.rows) == clean
    if "emst" in outcome.resilience.quarantined:
        assert outcome.fallback_strategy == "phase1"


# -- acceptance: governor stops a runaway recursion ----------------------------


def test_fixpoint_round_limit_names_limit_and_component(edge_conn):
    policy = ResiliencePolicy(governor=ResourceGovernor(max_fixpoint_rounds=3))
    with pytest.raises(ResourceExhaustedError) as info:
        edge_conn.explain_execute(
            TRANSITIVE_CLOSURE, strategy="emst", resilience=policy
        )
    error = info.value
    assert error.limit == "max_fixpoint_rounds"
    assert "TC" in error.where  # the recursive component is named
    assert error.context["limit"] == "max_fixpoint_rounds"
    # The database stays reusable: same connection, new queries succeed.
    assert len(edge_conn.execute("SELECT src FROM edge").rows) == 15
    full = edge_conn.explain_execute(TRANSITIVE_CLOSURE, strategy="emst")
    assert len(full.rows) == 15 * 16 // 2


def test_governor_default_enforces_historical_round_cap(edge_conn):
    # Without any policy a default governor still guards the fixpoint.
    outcome = edge_conn.explain_execute(TRANSITIVE_CLOSURE, strategy="emst")
    assert len(outcome.rows) == 120


def test_max_materialized_rows(edge_conn):
    policy = ResiliencePolicy(governor=ResourceGovernor(max_materialized_rows=5))
    with pytest.raises(ResourceExhaustedError) as info:
        edge_conn.explain_execute(
            "SELECT src, dst FROM edge", strategy="original", resilience=policy
        )
    assert info.value.limit == "max_materialized_rows"


def test_max_correlated_invocations(emp_conn):
    sql = (
        "SELECT e.empname FROM employee e WHERE e.salary > "
        "(SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)"
    )
    policy = ResiliencePolicy(
        governor=ResourceGovernor(max_correlated_invocations=3)
    )
    with pytest.raises(ResourceExhaustedError) as info:
        emp_conn.explain_execute(sql, strategy="correlated", resilience=policy)
    assert info.value.limit == "max_correlated_invocations"


def test_deadline_tripped_by_slow_evaluation(edge_conn):
    plan = FaultPlan().slow_evaluation(on_evaluation=1, seconds=0.05)
    policy = ResiliencePolicy(
        governor=plan.governor(deadline_seconds=0.01), fault_plan=plan
    )
    with pytest.raises(ResourceExhaustedError) as info:
        edge_conn.explain_execute(
            "SELECT src FROM edge", strategy="original", resilience=policy
        )
    assert info.value.limit == "deadline_seconds"


def test_governor_budget_resets_between_queries(edge_conn):
    policy = ResiliencePolicy(governor=ResourceGovernor(max_materialized_rows=50))
    for _ in range(3):  # each query gets the full budget
        rows = edge_conn.explain_execute(
            "SELECT src FROM edge", strategy="original", resilience=policy
        ).rows
        assert len(rows) == 15


# -- rollback and quarantine ---------------------------------------------------


class _VandalRule(RewriteRule):
    """Mutates the graph, then raises: the half-done damage must vanish."""

    name = "vandal"
    phases = frozenset({1})
    priority = 1

    def apply(self, box, context):
        if box.quantifiers:
            box.quantifiers[0].parent_box = None
            raise RuntimeError("vandalism interrupted")
        return False


def test_rollback_discards_half_mutated_graph(emp_conn):
    from repro.rewrite.engine import RewriteEngine, default_rules

    sql = EMP_QUERIES[0]
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)
    policy = ResiliencePolicy()
    engine = RewriteEngine(default_rules(include_emst=True) + [_VandalRule()])
    statement = parse_statement(sql)
    from repro.optimizer.heuristic import optimize_with_heuristic

    graph = build_query_graph(statement, emp_conn.database.catalog)
    result = optimize_with_heuristic(
        graph, emp_conn.database.catalog, engine=engine, resilience=policy
    )
    validate_graph(result.graph)  # no dangling damage survived
    assert "vandal" in policy.quarantine
    from repro.engine import Evaluator

    rows = Evaluator(
        result.graph, emp_conn.database, join_orders=result.plan.join_orders
    ).run().rows
    assert canonical(rows) == clean


def test_paranoid_mode_catches_silent_corruption(emp_conn):
    sql = EMP_QUERIES[0]
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)
    policy = ResiliencePolicy(
        fault_plan=FaultPlan().corrupt_rule("merge", on_firing=1), paranoid=True
    )
    outcome = emp_conn.explain_execute(sql, strategy="emst", resilience=policy)
    assert canonical(outcome.rows) == clean
    assert "merge" in outcome.resilience.quarantined
    assert "QgmError" in outcome.resilience.quarantined["merge"]["reason"]


def test_unprotected_rules_fall_back_along_strategy_chain(
    emp_conn, monkeypatch
):
    # Only a policy snapshots rule firings. The server prepares with none,
    # so a raising rule fails the whole emst strategy there and the
    # declared chain must degrade to phase1.
    from repro.magic.emst import EmstRule
    from repro.server import QueryServer

    sql = EMP_QUERIES[0]
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)

    def failing(self, box, context):
        raise InjectedFault("injected failure in rule 'emst'")

    monkeypatch.setattr(EmstRule, "apply", failing)
    server = QueryServer(emp_conn.database)
    try:
        response = server.handle_query(sql, strategy="emst")
        stats = server.handle_stats()
    finally:
        server.shutdown()
    assert canonical(map(tuple, response["rows"])) == clean
    assert response["requested_strategy"] == "emst"
    assert response["executed_strategy"] == "phase1"
    assert stats["counters"]["fallbacks"] == 1
    assert stats["breakers"]["strategies"]["emst"]["total_failures"] == 1


def test_box_faults_never_silently_skip_a_foreign_governor():
    # Box faults fire through the plan's own governor only; a policy that
    # would run them under another governor is refused, not left inert.
    plan = FaultPlan().fail_evaluation(on_evaluation=1)
    with pytest.raises(ValueError):
        ResiliencePolicy(governor=ResourceGovernor(), fault_plan=plan)
    assert plan.fires_through(ResiliencePolicy(fault_plan=plan).governor)
    # A plan with rule faults only leaves the caller's governor alone.
    governor = ResourceGovernor()
    rule_only = FaultPlan().fail_rule("emst")
    policy = ResiliencePolicy(governor=governor, fault_plan=rule_only)
    assert policy.governor is governor


@pytest.mark.parametrize(
    "strategy, executor",
    [("original", "tuple"), ("emst", "batch"), ("correlated", "tuple")],
)
def test_box_fault_fires_on_every_engine(emp_conn, strategy, executor):
    sql = EMP_QUERIES[0]
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)
    plan = FaultPlan().fail_evaluation(on_evaluation=1)
    policy = ResiliencePolicy(fault_plan=plan)
    if strategy == "emst":
        # The batch run raises: emst fails, and the ladder's next rung
        # answers on the same engine, its evaluations after the faulted one.
        outcome = emp_conn.explain_execute(
            sql, strategy=strategy, resilience=policy, executor=executor
        )
        assert canonical(outcome.rows) == clean
        assert outcome.resilience.executed == "phase1"
        assert [name for name, _ in outcome.resilience.attempts] == ["emst"]
        assert outcome.executor == "batch"
    else:
        # ``original`` is the ladder's last rung; ``correlated`` is not on
        # the ladder at all: either way the fault reaches the caller.
        with pytest.raises(InjectedFault):
            emp_conn.explain_execute(
                sql, strategy=strategy, resilience=policy, executor=executor
            )
    assert [kind for _, _, kind in plan.injected] == ["raise"]


def test_evaluation_fault_falls_back_to_next_strategy(emp_conn):
    sql = EMP_QUERIES[0]
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)
    policy = ResiliencePolicy(
        fault_plan=FaultPlan().fail_evaluation(on_evaluation=1)
    )
    outcome = emp_conn.explain_execute(sql, strategy="emst", resilience=policy)
    assert canonical(outcome.rows) == clean
    assert outcome.resilience.executed != "emst"
    assert outcome.resilience.degraded


def test_exhaustion_does_not_fall_back_by_default(edge_conn):
    policy = ResiliencePolicy(governor=ResourceGovernor(max_fixpoint_rounds=2))
    with pytest.raises(ResourceExhaustedError):
        edge_conn.explain_execute(
            TRANSITIVE_CLOSURE, strategy="emst", resilience=policy
        )


class _CancelAtFirstCheckpoint(ResourceGovernor):
    def check_deadline(self, where):
        self.cancel("test trip")
        super().check_deadline(where)


def test_cancellation_does_not_fall_back(emp_conn, monkeypatch):
    # A cancelled query is the client's decision, not the strategy's
    # failure: it must surface after one prepare, not walk the chain.
    prepared = []
    original_prepare = Connection.prepare

    def counting(self, query, strategy="emst", resilience=None):
        prepared.append(strategy)
        return original_prepare(self, query, strategy, resilience=resilience)

    monkeypatch.setattr(Connection, "prepare", counting)
    policy = ResiliencePolicy(governor=_CancelAtFirstCheckpoint())
    with pytest.raises(QueryCancelledError):
        emp_conn.explain_execute(
            EMP_QUERIES[0], strategy="emst", resilience=policy
        )
    assert prepared == ["emst"]


def test_rollback_restores_graph_object_in_place():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 2)])
    graph = build_query_graph(
        parse_statement("SELECT a FROM t WHERE b = 2"), db.catalog
    )
    snapshot = clone_graph(graph)
    top = graph.top_box
    top.quantifiers[0].parent_box = None
    with pytest.raises(QgmError):
        validate_graph(graph)
    restore_graph(graph, snapshot)
    assert graph.top_box is not top  # boxes were swapped for the snapshot's
    validate_graph(graph)
    assert graph.top_box.box_id == top.box_id  # ...but ids are preserved


# -- fault plan determinism ----------------------------------------------------


def test_randomized_fault_plans_are_reproducible():
    from repro.resilience.chaos import RULE_NAMES

    first = FaultPlan.randomized(42, RULE_NAMES, faults=3)
    second = FaultPlan.randomized(42, RULE_NAMES, faults=3)
    assert [
        (name, sorted(fault.firings or []), fault.kind)
        for name, faults in sorted(first._rule_faults.items())
        for fault in faults
    ] == [
        (name, sorted(fault.firings or []), fault.kind)
        for name, faults in sorted(second._rule_faults.items())
        for fault in faults
    ]


def test_injected_fault_counts_firings():
    plan = FaultPlan().fail_rule("merge", on_firing=2)
    assert plan.before_apply("merge") == 1  # firing 1 passes
    with pytest.raises(InjectedFault) as info:
        plan.before_apply("merge")
    assert info.value.context["firing"] == 2
    assert plan.injected == [("merge", 2, "raise")]


# -- graph-corruption detection (validate_graph gaps) --------------------------


def _graph(db, sql):
    return build_query_graph(parse_statement(sql), db.catalog)


@pytest.fixture
def two_tables():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 10)])
    db.create_table("s", ["a", "d"], rows=[(1, 4)])
    return db


def test_validate_catches_dangling_parent_link(two_tables):
    graph = _graph(two_tables, "SELECT a FROM t WHERE b = 10")
    graph.top_box.quantifiers[0].parent_box = None
    with pytest.raises(QgmError, match="wrong parent link"):
        validate_graph(graph)


def test_validate_catches_dangling_quantifier_reference(two_tables):
    graph = _graph(two_tables, "SELECT a, b FROM t")
    # Detach the quantifier but leave the expressions referencing it.
    graph.top_box.quantifiers = []
    with pytest.raises(QgmError, match="dangling quantifier"):
        validate_graph(graph)


def test_validate_catches_missing_local_column(two_tables):
    graph = _graph(
        two_tables,
        "SELECT x.a FROM (SELECT a FROM t) x",
    )
    quantifier = graph.top_box.quantifiers[0]
    quantifier.input_box.columns = quantifier.input_box.columns[:0]
    with pytest.raises(QgmError, match="missing column"):
        validate_graph(graph)


def test_validate_catches_missing_correlated_column(two_tables):
    # The gap closed while wiring paranoid mode: a *correlated* reference
    # to a column its quantifier's input box does not produce.
    graph = _graph(
        two_tables,
        "SELECT a FROM t WHERE EXISTS (SELECT d FROM s WHERE s.a = t.b)",
    )
    from repro.qgm import expr as qe

    top_quantifier = graph.top_box.foreach_quantifiers()[0]
    corrupted = False
    for box in graph.boxes():
        if box is graph.top_box:
            continue
        for expression in box.all_expressions():
            for node in qe.walk(expression):
                if (
                    isinstance(node, qe.QColRef)
                    and node.quantifier is top_quantifier
                ):
                    node.column = "no_such_column"
                    corrupted = True
    assert corrupted
    with pytest.raises(QgmError, match="missing column"):
        validate_graph(graph)


def test_validate_catches_setop_arity_mismatch(two_tables):
    from repro.qgm.model import BoxKind

    graph = _graph(
        two_tables, "SELECT a FROM t UNION SELECT a FROM s"
    )
    for box in graph.boxes():
        if box.kind == BoxKind.UNION:
            child = box.quantifiers[0].input_box
            child.columns = child.columns + child.columns  # arity 2 now
            break
    with pytest.raises(QgmError, match="mismatched arity"):
        validate_graph(graph)


# -- satellite: encapsulated index invalidation --------------------------------


def test_invalidate_indexes_public_api():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 10), (2, 20)])
    table = db.table("t")
    index = table.index_on("a")
    assert list(index_matches(index, 1)) == [(1, 10)]
    table.rows = [(3, 30)]
    table.invalidate_indexes()
    assert list(index_matches(table.index_on("a"), 3)) == [(3, 30)]


def test_delete_and_update_refresh_indexes_via_public_api():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 10), (2, 20), (3, 30)])
    conn = Connection(db)
    db.table("t").index_on("a")  # force a stale index to exist
    conn.run_script("DELETE FROM t WHERE a = 2")
    assert sorted(conn.execute("SELECT a FROM t").rows) == [(1,), (3,)]
    assert 2 not in db.table("t").index_on("a")
    conn.run_script("UPDATE t SET a = 9 WHERE a = 3")
    assert 9 in db.table("t").index_on("a")


# -- observability -------------------------------------------------------------


def test_rule_timings_surface_in_stats_and_explain(emp_conn):
    sql = EMP_QUERIES[0]
    outcome = emp_conn.explain_execute(sql, strategy="emst")
    assert "rule_seconds" in outcome.stats
    assert outcome.stats["rule_firings"]  # something fired on this query
    for name, seconds in outcome.stats["rule_seconds"].items():
        assert seconds >= 0.0
    text = emp_conn.explain(sql, strategy="emst")
    assert "rule timings:" in text


def test_prepared_query_executes_under_policy(emp_conn):
    sql = EMP_QUERIES[0]
    policy = ResiliencePolicy(governor=ResourceGovernor())
    prepared = emp_conn.prepare_statement(sql, strategy="emst", resilience=policy)
    result, stats = prepared.execute()
    clean = canonical(emp_conn.explain_execute(sql, strategy="original").rows)
    assert canonical(result.rows) == clean


def test_a_walk_no_rung_answers_raises_the_last_error_unchanged():
    """A strategy is blamed only when a later rung answered: a walk that
    no rung answered re-raises its last error as is, with no report."""
    from repro.resilience.fallback import run_with_fallback

    tried = []
    last = ValueError("original broke too")

    def attempt(strategy):
        tried.append(strategy)
        if strategy == "original":
            raise last
        raise RuntimeError("%s broke" % strategy)

    with pytest.raises(ValueError) as caught:
        run_with_fallback("emst", attempt)
    assert caught.value is last
    assert vars(last) == {}
    assert tried == ["emst", "phase1", "original"]

    value, report = run_with_fallback(
        "emst", lambda strategy: attempt(strategy) if strategy == "emst" else 7
    )
    assert value == 7
    assert (report.requested, report.executed) == ("emst", "phase1")
    assert report.attempts == [("emst", "RuntimeError: emst broke")]


# -- circuit breakers ------------------------------------------------------------


def test_lost_half_open_trial_is_replaced_after_a_cooldown():
    """A trial that never reports back (deadline, cancellation, a crashed
    worker) must not leave the strategy demoted for ever."""
    from repro.resilience.breaker import StrategyBreakerBoard
    from repro.resilience.fallback import FallbackReport

    clock = [0.0]
    board = StrategyBreakerBoard(
        failure_threshold=1, cooldown_seconds=10, clock=lambda: clock[0]
    )
    board.record_failure("emst", ValueError("bad rewrite"))
    assert board.select("emst") == "phase1"
    clock[0] = 10.0
    assert board.select("emst") == "emst"  # the half-open trial
    # ... which ends without recording an outcome.
    assert board.select("emst") == "phase1"
    clock[0] = 15.0
    assert board.select("emst") == "phase1"  # the trial is not overdue yet
    clock[0] = 20.0
    assert board.select("emst") == "emst"  # overdue: a new trial
    assert board.select("emst") == "phase1"
    board.record(FallbackReport(requested="emst", executed="emst"))
    assert board.select("emst") == "emst"


# -- chaos: the randomized fault sweep (second pytest invocation: -m chaos) ----


@pytest.mark.chaos
def test_chaos_suite_equivalence():
    from repro.resilience.chaos import run_chaos

    failures = run_chaos(seed=7, trials=2, scale=0.25, verbose=False)
    assert failures == []
