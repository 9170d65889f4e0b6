"""FK-covered parent join elimination, decided by the redundant-join rule
from declared keys and NOT NULL alone, pinned against the chase.

For every FK-parent candidate the rule meets — in the plan-pin statements
and in the FK cases of test_equivalence — its decision must equal the
chase's verdict on the trial elimination. The edge cases (nullable FK, a
composite FK equated only in part, a parent with no key on the referenced
columns, a parent column read in another box) keep the join, and every
strategy on every executor returns what ``norewrite`` on the tuple engine
returns."""

import pytest

from repro import Connection, Database, ResiliencePolicy
from repro.analysis.equivalence import VERIFIED, EquivalenceChecker
from repro.analysis.equivalence_checks import eliminated_on_clone
from repro.analysis.lint import _workload_targets
from repro.api import EXECUTORS, STRATEGIES
from repro.catalog import ColumnDef
from repro.qgm import build_query_graph
from repro.rewrite import RewriteEngine
from repro.rewrite.redundant_join import (
    RedundantJoinRule,
    fk_matches_one_parent,
    fk_parent_joins,
)
from repro.sql import parse_statement
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from tests.helpers import canonical
from tests.test_differential_executor import CLOSURE_QUERIES
from tests.test_integration_suite import DS_QUERIES, EMP_QUERIES
from tests.test_plan_pins import DS_VIEWS_SQL, PINNED

#: Plan-pin statements in which the rule eliminates an FK parent join.
FIRING = ("ds-3", "ds-4", "ds-9", "emp-1")

#: The FK cases of test_equivalence (run through the rule alone, phase 1).
EQUIVALENCE_FK_CASES = {
    "lineitem-orders": (
        "ds",
        "SELECT l.quantity, l.extendedprice FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey",
        True,
    ),
    "parent-columns-used": (
        "ds",
        "SELECT l.quantity, o.totalprice FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey",
        False,
    ),
    "employee-department": (
        "empdept",
        "SELECT e.empno, e.salary FROM employee e, department d "
        "WHERE e.workdept = d.deptno",
        True,
    ),
}


@pytest.fixture
def fk_decisions(monkeypatch):
    """Records ``(rule decision, chase verified)`` for every FK-parent
    candidate the rule meets, at the graph state it meets it in."""
    seen = []
    original = RedundantJoinRule._apply_fk_parent

    def recording(self, box, context):
        graph = context.graph
        checker = EquivalenceChecker(graph.catalog)
        for child, parent, fk, mapping in fk_parent_joins(box, graph):
            trial = eliminated_on_clone(box, graph, child, parent, mapping)
            verdict = checker.check_boxes(box, trial)
            seen.append(
                (fk_matches_one_parent(child, parent, fk),
                 verdict.status == VERIFIED)
            )
        return original(self, box, context)

    monkeypatch.setattr(RedundantJoinRule, "_apply_fk_parent", recording)
    return seen


@pytest.fixture(scope="module")
def plan_pin_statements():
    """label -> (connection, sql) for every plan-pin statement."""
    ds = Connection(build_decision_support_database(scale=0.5, seed=77))
    ds.run_script(DS_VIEWS_SQL)
    emp = Connection(
        build_empdept_database(n_departments=40, employees_per_department=6, seed=78)
    )
    emp.run_script(PAPER_VIEWS_SQL)
    edges = Database()
    edges.create_table("edge", ["src", "dst"], rows=[(0, 1), (1, 2), (2, 0)])
    closure = Connection(edges)
    statements = {}
    for prefix, connection, queries in (
        ("ds", ds, DS_QUERIES), ("emp", emp, EMP_QUERIES),
        ("closure", closure, CLOSURE_QUERIES),
    ):
        for index, sql in enumerate(queries):
            statements["%s-%d" % (prefix, index)] = (connection, sql)
    for label, database, views_sql, sql in _workload_targets(0.05):
        connection = Connection(database)
        if views_sql:
            connection.run_script(views_sql)
        statements[label.split(":")[0]] = (connection, sql)
    return statements


PLAN_PIN_LABELS = (
    ["ds-%d" % i for i in range(len(DS_QUERIES))]
    + ["emp-%d" % i for i in range(len(EMP_QUERIES))]
    + ["closure-%d" % i for i in range(len(CLOSURE_QUERIES))]
    + ["empdept"] + ["experiment %s" % key for key in "ABCDEFGH"]
)


@pytest.mark.parametrize("label", PLAN_PIN_LABELS)
def test_plan_pin_fk_decisions_match_the_chase(
    plan_pin_statements, fk_decisions, label
):
    connection, sql = plan_pin_statements[label]
    connection.prepare(parse_statement(sql), "emst")
    for decision, verified in fk_decisions:
        assert decision == verified
    assert any(decision for decision, _ in fk_decisions) == (label in FIRING)


@pytest.fixture(scope="module")
def equivalence_databases():
    empdept = build_empdept_database(
        n_departments=6, employees_per_department=4, seed=3
    )
    return {
        "ds": build_decision_support_database(scale=0.05, seed=5),
        "empdept": empdept,
    }


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_FK_CASES))
def test_equivalence_fk_decisions_match_the_chase(
    equivalence_databases, fk_decisions, case
):
    database, sql, eliminated = EQUIVALENCE_FK_CASES[case]
    graph = build(sql, equivalence_databases[database])
    RewriteEngine([RedundantJoinRule()]).run_phase(graph, 1)
    assert len(graph.top_box.foreach_quantifiers()) == (1 if eliminated else 2)
    for decision, verified in fk_decisions:
        assert decision == verified
    assert [decision for decision, _ in fk_decisions] == (
        [True] if eliminated else []
    )


@pytest.mark.parametrize("label", FIRING)
def test_firing_statements_pass_paranoid_mode(plan_pin_statements, label):
    connection, sql = plan_pin_statements[label]
    policy = ResiliencePolicy(paranoid=True)
    prepared = connection.prepare_statement(
        sql, strategy="emst", resilience=policy, executor="batch"
    )
    context = prepared.heuristic.context
    # The same firings per phase as without the checker: nothing rolled back.
    assert prepared.heuristic.phase_firings == PINNED[label][4]
    assert not policy.quarantine.reasons
    assert not context.quarantined
    assert not any(
        "QGM601" in codes for codes in context.soundness_violations.values()
    )
    rows, _ = prepared.execute()
    oracle = connection.explain_execute(
        sql, strategy="norewrite", executor="tuple"
    ).rows
    assert canonical(rows.rows) == canonical(oracle)


# -- the cases that keep the join ---------------------------------------------


def build(sql, database):
    return build_query_graph(parse_statement(sql), database.catalog)


def edge_case_db():
    db = Database()
    db.create_table(
        "parent",
        [ColumnDef("pid", "INT"), ColumnDef("pname", "STR")],
        primary_key=["pid"],
        rows=[(1, "x"), (2, "w")],
    )
    db.create_table(
        "child",  # pid is nullable: the third row references nothing
        [ColumnDef("cid", "INT"), ColumnDef("pid", "INT"), ColumnDef("val", "INT")],
        primary_key=["cid"],
        foreign_keys=[(["pid"], "parent", None)],
        rows=[(10, 1, 100), (11, 2, 200), (12, None, 300)],
    )
    db.create_table(
        "pair",
        [ColumnDef("a", "INT"), ColumnDef("b", "INT"), ColumnDef("label", "STR")],
        primary_key=["a", "b"],
        rows=[(1, 1, "x"), (1, 2, "y"), (2, 1, "z")],
    )
    db.create_table(
        "pairref",
        [
            ColumnDef("rid", "INT"),
            ColumnDef("a", "INT", not_null=True),
            ColumnDef("b", "INT", not_null=True),
        ],
        primary_key=["rid"],
        foreign_keys=[(["a", "b"], "pair", None)],
        rows=[(1, 1, 1), (2, 1, 2), (3, 2, 1)],
    )
    # The parent is registered after its child, so the catalog never
    # checks that the referenced column is a key: it is not (tag 7 twice).
    db.create_table(
        "tagged",
        [ColumnDef("tid", "INT"), ColumnDef("tag", "INT", not_null=True)],
        primary_key=["tid"],
        foreign_keys=[(["tag"], "tag", ["tag"])],
        rows=[(1, 7), (2, 8)],
    )
    db.create_table(
        "tag",
        [ColumnDef("tag", "INT"), ColumnDef("note", "STR")],
        rows=[(7, "p"), (7, "q"), (8, "r")],
    )
    return db


EDGE_CASES = {
    "nullable-fk": (
        "SELECT c.cid, c.val FROM child c, parent p WHERE c.pid = p.pid",
        2,
    ),
    "composite-fk-half-equated": (
        "SELECT r.rid FROM pairref r, pair p WHERE r.a = p.a",
        5,
    ),
    "parent-not-unique": (
        "SELECT t.tid FROM tagged t, tag g WHERE t.tag = g.tag",
        3,
    ),
    "parent-column-read-in-another-box": (
        "SELECT c.cid FROM child c, parent p WHERE c.pid = p.pid AND "
        "EXISTS (SELECT 1 FROM pair q WHERE q.label = p.pname)",
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_keep_the_join(fk_decisions, case):
    db = edge_case_db()
    sql, _ = EDGE_CASES[case]
    graph = build(sql, db)
    RewriteEngine([RedundantJoinRule()]).run_phase(graph, 1)
    assert len(graph.top_box.foreach_quantifiers()) == 2
    assert all(decision == verified for decision, verified in fk_decisions)
    assert not any(decision for decision, _ in fk_decisions)


def test_half_equated_composite_fk_is_not_verified_either():
    db = edge_case_db()
    graph = build(EDGE_CASES["composite-fk-half-equated"][0], db)
    box = graph.top_box
    assert list(fk_parent_joins(box, graph)) == []
    child, parent = box.foreach_quantifiers()
    trial = eliminated_on_clone(box, graph, child, parent, {"a": "a", "b": "b"})
    verdict = EquivalenceChecker(db.catalog).check_boxes(box, trial)
    assert verdict.status != VERIFIED


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_agree_on_every_strategy_and_executor(case):
    sql, expected_rows = EDGE_CASES[case]
    conn = Connection(edge_case_db())
    oracle = canonical(
        conn.explain_execute(sql, strategy="norewrite", executor="tuple").rows
    )
    assert len(oracle) == expected_rows
    for strategy in STRATEGIES:
        for executor in EXECUTORS:
            rows = conn.explain_execute(
                sql, strategy=strategy, executor=executor
            ).rows
            assert canonical(rows) == oracle, (strategy, executor)


def test_nullable_fk_returns_two_of_three_child_rows():
    conn = Connection(edge_case_db())
    rows = conn.explain_execute(EDGE_CASES["nullable-fk"][0]).rows
    assert canonical(rows) == canonical([(10, 100), (11, 200)])
