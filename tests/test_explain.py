"""Physical-plan (EXPLAIN) rendering."""

from repro import Connection, Database
from repro.sql import parse_statement
from repro.qgm import build_query_graph
from repro.qgm import expr as qe
from repro.optimizer import optimize_graph
from repro.optimizer.explain import physical_plan


def plan_text(db, sql):
    graph = build_query_graph(parse_statement(sql), db.catalog)
    plan = optimize_graph(graph, db.catalog)
    return physical_plan(graph, plan, db.catalog)


def test_scan_then_hashjoin(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT e.empname FROM employee e, department d WHERE e.workdept = d.deptno",
    )
    assert "SCAN" in text
    assert "HASHJOIN" in text
    assert "RETURN SELECT" in text


def test_cross_product_shows_nljoin(empdept_db):
    text = plan_text(
        empdept_db, "SELECT e.empno FROM employee e, department d"
    )
    assert "NLJOIN" in text


def test_constant_predicate_and_distinct_shown(empdept_db):
    # A predicate over no table at all is applicable as soon as the first
    # quantifier is bound, and that is where the engines apply it.
    text = plan_text(
        empdept_db,
        "SELECT DISTINCT empname FROM employee WHERE 1 = 1",
    )
    assert "SCAN employee (employee, ~7 rows) ON (1 = 1)" in text
    assert "FILTER" not in text
    assert "DISTINCT" in text


def test_filter_shown_for_a_box_without_foreach_quantifiers(empdept_db):
    # Only a select box with nothing to join keeps its predicates for a
    # FILTER over its single (empty-binding) row.
    graph = build_query_graph(
        parse_statement("SELECT empno FROM employee"), empdept_db.catalog
    )
    box = graph.top_box
    box.quantifiers = []
    box.columns[0].expr = qe.QLiteral(value=1)
    box.predicates = [
        qe.QBinary(op="=", left=qe.QLiteral(value=1), right=qe.QLiteral(value=1))
    ]
    assert "FILTER (1 = 1)" in physical_plan(graph, None, empdept_db.catalog)


def test_constant_probe_renders_as_index_scan(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empname FROM employee WHERE workdept = 'D01'",
    )
    assert "INDEXSCAN employee" in text
    assert "HASHJOIN" not in text


def test_local_predicate_applied_at_scan(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empname FROM employee WHERE salary > 100",
    )
    assert "SCAN" in text
    assert "ON (employee.salary > 100)" in text or "ON (" in text


def test_groupby_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
    )
    assert "GROUPBY [" in text
    assert "AVG(" in text


def test_semijoin_antijoin_scalar(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empname FROM employee e WHERE workdept IN "
        "(SELECT deptno FROM department) "
        "AND NOT EXISTS (SELECT 1 FROM department d2 WHERE d2.mgrno = e.empno) "
        "AND salary > (SELECT AVG(salary) FROM employee e3)",
    )
    assert "SEMIJOIN" in text
    assert "ANTIJOIN" in text
    assert "SCALAR" in text


def test_setop_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empno FROM employee EXCEPT SELECT mgrno FROM department",
    )
    assert "EXCEPT DISTINCT" in text


def test_outerjoin_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT e.empname, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept",
    )
    assert "LEFT OUTER JOIN" in text


def test_sort_and_limit_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empno FROM employee ORDER BY empno DESC LIMIT 3",
    )
    assert "SORT #1 DESC" in text
    assert "LIMIT 3" in text


def test_fixpoint_rendering(empdept_db):
    empdept_db.create_table("edge", ["src", "dst"], rows=[(1, 2)])
    text = plan_text(
        empdept_db,
        "WITH RECURSIVE r (n) AS (SELECT dst FROM edge UNION "
        "SELECT e.dst FROM r x, edge e WHERE e.src = x.n) SELECT n FROM r",
    )
    assert "FIXPOINT" in text


def test_magic_quantifier_labelled(empdept_conn):
    text = empdept_conn.explain(
        "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        strategy="emst",
    )
    assert "physical plan:" in text
    assert "MATERIALIZE" in text


def test_correlated_explain_prints_no_compiled_program(empdept_conn):
    # CorrelatedEvaluator never runs the batch program: under this
    # strategy EXPLAIN must not show one (no MATERIALIZE, no HASHJOIN).
    text = empdept_conn.explain(
        "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        strategy="correlated",
    )
    physical = text.split("physical plan:\n")[1]
    assert physical.splitlines() == [
        "CORRELATED: each derived quantifier is re-evaluated per outer binding"
    ]


def test_row_estimates_present(empdept_db):
    text = plan_text(empdept_db, "SELECT empno FROM employee")
    assert "~7 rows" in text


def test_a_tuple_explain_shows_no_delta_first_rule_pipeline():
    """The batch program starts a linear recursive rule from its delta;
    the tuple engine joins in plan order, and its EXPLAIN says only that."""
    db = Database()
    db.create_table("bom", ["parent", "child"], rows=[(1, 2), (2, 3), (3, 4)])
    sql = (
        "WITH RECURSIVE uses (part, component) AS ("
        " SELECT parent, child FROM bom UNION"
        " SELECT u.part, b.child FROM uses u, bom b"
        " WHERE b.parent = u.component) SELECT part, component FROM uses"
    )
    conn = Connection(db)
    physical = {
        executor: conn.explain(sql, strategy="emst", executor=executor)
        .split("physical plan:\n")[1]
        .splitlines()
        for executor in ("batch", "tuple")
    }
    rule = physical["batch"].index("FIXPOINT SELECT Q_1 (~16 rows)")
    assert physical["batch"][rule + 1:rule + 3] == [
        "  SCAN u_1 (USES, ~32 rows)",
        "  HASHJOIN b (bom, ~3 rows) ON (b.parent = u_1.component)",
    ]
    assert physical["tuple"][rule:rule + 3] == [
        "FIXPOINT SELECT Q_1 (~16 rows)",
        "  JOIN b > u_1 (plan order)",
        "FIXPOINT UNION USES (~32 rows)",
    ]
    # Every other box runs the same pipeline on both executors.
    assert physical["tuple"][:rule] == physical["batch"][:rule]
    assert physical["tuple"][rule + 2:] == physical["batch"][rule + 3:]
