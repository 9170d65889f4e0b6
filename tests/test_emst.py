"""EMST tests: the paper's Example 4.1 structures, adornments, magic /
supplementary / condition-magic boxes, AMQ/NMQ handling, subquery
decorrelation and semantic preservation."""

from repro import Connection, Database
from repro.sql import parse_statement
from repro.qgm import (
    BoxKind,
    DistinctMode,
    MagicRole,
    QuantifierType,
    build_query_graph,
    validate_graph,
)
from repro.optimizer.heuristic import optimize_with_heuristic
from repro.rewrite import RewriteEngine, default_rules
from repro.optimizer import optimize_graph

from tests.helpers import run_all_strategies

QUERY_D = (
    "SELECT d.deptname, s.workdept, s.avgsalary "
    "FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"
)


def build(sql, db):
    return build_query_graph(parse_statement(sql), db.catalog)


def run_pipeline(sql, db):
    graph = build(sql, db)
    result = optimize_with_heuristic(graph, db.catalog)
    validate_graph(result.graph)
    return result


def phase2_graph(sql, db):
    """Stop after phase 2 (before cleanup), as Figure 4 lower-left."""
    graph = build(sql, db)
    engine = RewriteEngine(default_rules(include_emst=True))
    context = engine.run_phase(graph, 1)
    plan = optimize_graph(graph, db.catalog)
    engine.run_phase(graph, 2, join_orders=plan.join_orders, context=context)
    validate_graph(graph)
    return graph, context


# -- the paper's running example -------------------------------------------------


def test_query_d_phase2_creates_magic_and_supplementary(empdept_conn):
    graph, context = phase2_graph(QUERY_D, empdept_conn.database)
    roles = [b.magic_role for b in graph.boxes()]
    assert MagicRole.SUPPLEMENTARY in roles
    assert MagicRole.MAGIC in roles
    assert context.firing_counts.get("emst", 0) >= 3


def test_query_d_phase2_adornments(empdept_conn):
    graph, _ = phase2_graph(QUERY_D, empdept_conn.database)
    adornments = {
        box.name.split("^")[0]: box.adornment
        for box in graph.boxes()
        if box.adornment
    }
    # The groupby (avgMgrSal) is bound on workdept: ^bf; T1 (mgrSal merged)
    # is bound on its group-key column.
    groupbys = [b for b in graph.boxes() if b.kind == BoxKind.GROUPBY]
    assert any(b.adornment == "bf" for b in groupbys)


def test_query_d_distinct_pullup_fires_twice_in_phase2(empdept_conn):
    graph, context = phase2_graph(QUERY_D, empdept_conn.database)
    # The paper: "a distinct pullup rule is used twice in this phase".
    assert context.firing_counts.get("distinct-pullup") == 2


def test_query_d_phase3_merges_magic_boxes_away(empdept_conn):
    result = run_pipeline(QUERY_D, empdept_conn.database)
    boxes = result.graph.boxes()
    # After cleanup only the supplementary box remains special (SD3/SD4
    # are gone, merged into SD2' — Figure 5).
    magic_boxes = [b for b in boxes if b.magic_role == MagicRole.MAGIC]
    assert not magic_boxes
    supplementary = [b for b in boxes if b.magic_role == MagicRole.SUPPLEMENTARY]
    assert len(supplementary) == 1


def test_query_d_final_graph_shape_one_extra_box_one_extra_join(empdept_conn):
    """Figure 4: the final graph has exactly one extra box and one extra
    join (predicate) compared to the phase-1 graph."""
    db = empdept_conn.database
    phase1 = build(QUERY_D, db)
    engine = RewriteEngine(default_rules())
    engine.run_phase(phase1, 1)
    boxes1, quantifiers1, predicates1 = phase1.summary_counts()

    result = run_pipeline(QUERY_D, db)
    boxes3, quantifiers3, predicates3 = result.graph.summary_counts()
    assert boxes3 == boxes1 + 1
    assert predicates3 == predicates1 + 1
    # Two extra table references (the supplementary box used twice), but
    # only one extra *join*: the magic equi-join inside mgrSal.
    assert quantifiers3 == quantifiers1 + 2


def test_query_d_supplementary_shared_by_query_and_view(empdept_conn):
    result = run_pipeline(QUERY_D, empdept_conn.database)
    graph = result.graph
    supplementary = [
        b for b in graph.boxes() if b.magic_role == MagicRole.SUPPLEMENTARY
    ][0]
    consumers = [
        box
        for box in graph.boxes()
        for q in box.quantifiers
        if q.input_box is supplementary
    ]
    assert len(consumers) == 2  # the QUERY box and mgrSal's T1 (SD2')


def test_query_d_results_preserved(empdept_conn):
    run_all_strategies(empdept_conn, QUERY_D)


def test_emst_rule_fires_once_per_box(empdept_conn):
    graph, _ = phase2_graph(QUERY_D, empdept_conn.database)
    assert all(
        box.emst_done
        for box in graph.boxes()
        if box.kind != BoxKind.BASE and not box.is_special
    )


# -- magic boxes are DISTINCT until proven duplicate-free --------------------------


def test_magic_box_distinct_enforced_when_unprovable(numbers_db):
    # t.a is not unique, so the magic table over it must keep DISTINCT.
    numbers_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW sv (a, total) AS SELECT a, SUM(d) FROM s GROUP BY a"
        )
    )
    graph = build(
        "SELECT t.c, v.total FROM t, sv v WHERE v.a = t.a AND t.b = 20",
        numbers_db,
    )
    engine = RewriteEngine(default_rules(include_emst=True))
    context = engine.run_phase(graph, 1)
    plan = optimize_graph(graph, numbers_db.catalog)
    engine.run_phase(graph, 2, join_orders=plan.join_orders, context=context)
    magic = [b for b in graph.boxes() if b.magic_role == MagicRole.MAGIC]
    assert magic
    # The root magic box (built over the non-unique t.a) must keep its
    # DISTINCT; boxes *derived* from an enforcing magic box may legally
    # relax theirs (their input is already duplicate-free).
    assert any(b.distinct == DistinctMode.ENFORCE for b in magic)
    from repro.qgm.facts.keyflow import is_duplicate_free

    for box in magic:
        if box.distinct != DistinctMode.ENFORCE:
            assert is_duplicate_free(box, ignore_enforce=True)


# -- local predicates are pushed via the adorned copy ------------------------------


def test_local_constant_predicate_pushed_into_shared_view_copy(empdept_conn):
    db = empdept_conn.database
    sql = (
        "SELECT a.workdept, b.avgsalary FROM avgMgrSal a, avgMgrSal b "
        "WHERE a.workdept = 'D1' AND b.workdept = 'D2' "
        "AND a.avgsalary = b.avgsalary"
    )
    result = run_pipeline(sql, db)
    conn = Connection(db)
    run_all_strategies(conn, sql)


# -- conditions (c adornments, ground magic) -----------------------------------------


def test_condition_magic_uses_semi_join(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW pay (empno, workdept, salary) AS "
            "SELECT empno, workdept, salary FROM employee"
        )
    )
    sql = (
        "SELECT d.deptno, p.empno FROM department d, pay p "
        "WHERE p.salary > d.mgrno * 10 AND d.deptname = 'Planning'"
    )
    graph = build(sql, empdept_db)
    engine = RewriteEngine(default_rules(include_emst=True))
    context = engine.run_phase(graph, 1)
    plan = optimize_graph(graph, empdept_db.catalog)
    engine.run_phase(graph, 2, join_orders=plan.join_orders, context=context)
    validate_graph(graph)
    condition_magic = [
        b for b in graph.boxes() if b.magic_role == MagicRole.CONDITION_MAGIC
    ]
    if condition_magic:  # view may have been merged in phase 1 instead
        consumers = [
            q
            for box in graph.boxes()
            for q in box.quantifiers
            if q.input_box in condition_magic
        ]
        assert all(q.qtype == QuantifierType.EXISTENTIAL for q in consumers)


def test_condition_magic_preserves_results(empdept_db):
    # Use a derived table that phase 1 cannot merge (DISTINCT on non-key),
    # forcing the condition to travel via a condition-magic-box.
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW dsal (workdept, salary) AS "
            "SELECT DISTINCT workdept, salary FROM employee"
        )
    )
    sql = (
        "SELECT d.deptno, p.salary FROM department d, dsal p "
        "WHERE p.salary > d.mgrno * 100 AND d.deptname = 'Planning'"
    )
    run_all_strategies(Connection(empdept_db), sql)


# -- duplicates through magic ----------------------------------------------------------


def test_duplicate_preservation_through_magic():
    """Magic restriction must not change multiplicities (the [MPR90]
    requirement): the view output is a bag."""
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 10), (1, 10), (2, 20)])
    db.create_table("k", ["a"], primary_key=["a"], rows=[(1,), (3,)])
    db.catalog.add_view(
        parse_statement("CREATE VIEW v AS SELECT a, b FROM t")
    )
    sql = "SELECT v.a, v.b FROM k, v WHERE v.a = k.a"
    rows = run_all_strategies(Connection(db), sql)
    assert rows == [(1, 10), (1, 10)]


def test_duplicate_bindings_do_not_duplicate_view_rows():
    """The magic table is DISTINCT: duplicate outer bindings must not
    multiply the restricted view's contribution to the semi side."""
    db = Database()
    db.create_table("outer1", ["a"], rows=[(1,), (1,)])  # duplicate bindings
    db.create_table("t", ["a", "b"], rows=[(1, 10), (2, 20)])
    db.catalog.add_view(
        parse_statement(
            "CREATE VIEW v (a, total) AS SELECT a, SUM(b) FROM t GROUP BY a"
        )
    )
    sql = "SELECT o.a, v.total FROM outer1 o, v WHERE v.a = o.a"
    rows = run_all_strategies(Connection(db), sql)
    assert rows == [(1, 10), (1, 10)]  # once per outer row, same total


# -- NMQ set operations -------------------------------------------------------------------


def test_magic_through_union(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW u (x) AS "
            "SELECT a FROM (SELECT a, b FROM t) AS p "
            "UNION ALL SELECT a FROM (SELECT a, d FROM s) AS q"
        )
    )
    sql = "SELECT k.a, u.x FROM (SELECT a FROM s WHERE d = 100) AS k, u WHERE u.x = k.a"
    rows = run_all_strategies(Connection(numbers_db), sql)
    # a=1 appears in both branches of the UNION ALL view.
    assert rows == [(1, 1), (1, 1)]


def test_magic_through_except(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW ex (x) AS "
            "SELECT a FROM (SELECT a, b FROM t) AS p "
            "EXCEPT SELECT a FROM (SELECT a, d FROM s) AS q"
        )
    )
    sql = "SELECT t2.a FROM (SELECT a FROM t WHERE b = 40) AS t2, ex WHERE ex.x = t2.a"
    rows = run_all_strategies(Connection(numbers_db), sql)
    assert rows == [(4,)]


# -- subquery decorrelation ------------------------------------------------------------------


def test_exists_subquery_decorrelated(empdept_db):
    sql = (
        "SELECT empname FROM employee e WHERE EXISTS "
        "(SELECT deptno FROM department d WHERE d.mgrno = e.empno)"
    )
    # On the tiny fixture the cost model may prefer the correlated plan
    # (the heuristic is free to reject EMST); use a larger database so
    # decorrelation clearly wins.
    from repro.workloads.empdept import build_empdept_database

    big = build_empdept_database(n_departments=50, employees_per_department=20)
    result = run_pipeline(sql.replace("empname", "empname"), big)
    assert result.used_emst
    # After EMST the subquery box must no longer be correlated.
    for box in result.graph.boxes():
        assert not box.correlated_quantifiers() or box is result.graph.top_box
    rows = run_all_strategies(Connection(empdept_db), sql)
    assert len(rows) == 3


def test_correlated_aggregate_in_subquery(empdept_db):
    sql = (
        "SELECT empname FROM employee e WHERE EXISTS ("
        "SELECT workdept FROM employee e2 WHERE e2.workdept = e.workdept "
        "GROUP BY workdept HAVING AVG(salary) > 150)"
    )
    run_all_strategies(Connection(empdept_db), sql)


def test_in_subquery_with_correlation(empdept_db):
    sql = (
        "SELECT empname FROM employee e WHERE e.workdept IN "
        "(SELECT d.deptno FROM department d WHERE d.mgrno < e.empno + 100)"
    )
    run_all_strategies(Connection(empdept_db), sql)


def test_not_in_is_never_magic_restricted(empdept_db):
    sql = (
        "SELECT empname FROM employee WHERE workdept NOT IN "
        "(SELECT deptno FROM department WHERE deptname = 'HR')"
    )
    result = run_pipeline(sql, empdept_db)
    anti = [
        q
        for box in result.graph.boxes()
        for q in box.quantifiers
        if q.qtype == QuantifierType.ANTI
    ]
    assert anti
    for quantifier in anti:
        assert not any(q.is_magic for q in quantifier.input_box.quantifiers)
    run_all_strategies(Connection(empdept_db), sql)


def test_not_exists_decorrelated(empdept_db):
    sql = (
        "SELECT empname FROM employee e WHERE NOT EXISTS "
        "(SELECT deptno FROM department d WHERE d.mgrno = e.empno)"
    )
    rows = run_all_strategies(Connection(empdept_db), sql)
    assert len(rows) == 4


# -- shared adorned copies (union magic) --------------------------------------------------------


def test_two_consumers_share_adorned_copy_with_union_magic(empdept_conn):
    db = empdept_conn.database
    sql = (
        "SELECT d1.deptname, s1.avgsalary "
        "FROM department d1, avgMgrSal s1, department d2, avgMgrSal s2 "
        "WHERE d1.deptno = s1.workdept AND d2.deptno = s2.workdept "
        "AND d1.deptname = 'Planning' AND d2.deptname = 'Ops' "
        "AND s1.avgsalary < s2.avgsalary"
    )
    rows = run_all_strategies(Connection(db), sql)
    assert rows  # Planning manager avg (100) < Ops manager avg (300)


# -- the heuristic guarantee ------------------------------------------------------------------------


def test_heuristic_cannot_degrade(empdept_conn):
    result = run_pipeline(QUERY_D, empdept_conn.database)
    assert result.plan.total_cost <= result.cost_without_emst


def test_heuristic_optimizer_invoked_exactly_twice(empdept_conn):
    result = run_pipeline(QUERY_D, empdept_conn.database)
    assert result.optimizer_invocations == 2


def test_heuristic_falls_back_when_emst_useless(empdept_db):
    # A query with no binding opportunities: EMST cannot improve it.
    sql = "SELECT empno FROM employee"
    graph = build(sql, empdept_db)
    result = optimize_with_heuristic(graph, empdept_db.catalog)
    assert result.cost_with_emst >= 0
    rows = Connection(empdept_db).execute(sql, strategy="emst").rows
    assert len(rows) == 7


def test_emst_only_active_in_phase_two(empdept_conn):
    result = run_pipeline(QUERY_D, empdept_conn.database)
    assert "emst" not in result.phase_firings.get(1, {})
    assert result.phase_firings.get(2, {}).get("emst", 0) > 0
    assert "emst" not in result.phase_firings.get(3, {})
