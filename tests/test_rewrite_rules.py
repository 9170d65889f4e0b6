"""Rewrite rule tests: merge, predicate pushdown, projection pruning,
redundant-join elimination, distinct pullup — each checked structurally
*and* for semantic preservation (results unchanged)."""

from repro import Connection
from repro.sql import parse_statement
from repro.qgm import (
    BoxKind,
    DistinctMode,
    build_query_graph,
    validate_graph,
)
from repro.rewrite import RewriteEngine, default_rules
from repro.rewrite.distinct import DistinctPullupRule
from repro.rewrite.merge import MergeRule
from repro.rewrite.projection import ProjectionPruneRule
from repro.rewrite.pushdown import PredicatePushdownRule
from repro.rewrite.redundant_join import RedundantJoinRule

from tests.helpers import canonical


def build(sql, db):
    return build_query_graph(parse_statement(sql), db.catalog)


def rewrite_with(graph, rules, phase=1):
    engine = RewriteEngine(rules)
    context = engine.run_phase(graph, phase)
    validate_graph(graph)
    return context


def results_match(db, sql, rules):
    """Results are identical before and after applying ``rules``."""
    from repro.engine import Evaluator

    before = Evaluator(build(sql, db), db).run().rows
    graph = build(sql, db)
    rewrite_with(graph, rules)
    after = Evaluator(graph, db).run().rows
    assert canonical(before) == canonical(after)
    return graph


# -- merge ------------------------------------------------------------------------


def test_merge_folds_view_into_consumer(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW highpaid AS SELECT empno, salary FROM employee "
            "WHERE salary > 150"
        )
    )
    graph = results_match(
        empdept_db, "SELECT empno FROM highpaid WHERE empno < 5", [MergeRule()]
    )
    # The view box is gone: the top box references the base table directly.
    assert graph.top_box.quantifiers[0].input_box.kind == BoxKind.BASE
    assert len(graph.top_box.predicates) == 2


def test_merge_fires_twice_on_query_d(empdept_conn):
    graph = build(
        "SELECT d.deptname, s.workdept, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        empdept_conn.database,
    )
    context = rewrite_with(graph, [MergeRule()])
    # The paper's Example 3.1: AVGMGRSAL merges into QUERY and MGRSAL into T1.
    assert context.firing_counts.get("merge") == 2


def test_merge_skips_shared_views(empdept_conn):
    graph = build(
        "SELECT a.workdept FROM avgMgrSal a, avgMgrSal b WHERE a.workdept = b.workdept",
        empdept_conn.database,
    )
    boxes_before = len(graph.boxes())
    rewrite_with(graph, [MergeRule()])
    # The shared view's select boxes cannot merge upward (two consumers).
    shared = [b for b in graph.boxes() if b.kind == BoxKind.GROUPBY]
    assert len(shared) == 1
    assert len(graph.boxes()) <= boxes_before


def test_merge_respects_enforced_distinct(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement("CREATE VIEW dv AS SELECT DISTINCT a FROM t")
    )
    graph = results_match(numbers_db, "SELECT a FROM dv", [MergeRule()])
    # 'a' is not a key of t, so DISTINCT is load-bearing: no merge.
    child = graph.top_box.quantifiers[0].input_box
    assert child.kind == BoxKind.SELECT
    assert child.distinct == DistinctMode.ENFORCE


def test_merge_allows_distinct_when_parent_enforces(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement("CREATE VIEW dv AS SELECT DISTINCT a FROM t")
    )
    graph = results_match(numbers_db, "SELECT DISTINCT a FROM dv", [MergeRule()])
    assert graph.top_box.quantifiers[0].input_box.kind == BoxKind.BASE


def test_merge_carries_subquery_quantifiers(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW managers AS SELECT empno, empname FROM employee e "
            "WHERE EXISTS (SELECT deptno FROM department d WHERE d.mgrno = e.empno)"
        )
    )
    graph = results_match(
        empdept_db, "SELECT empname FROM managers", [MergeRule()]
    )
    assert graph.top_box.subquery_quantifiers()


def test_merging_away_the_binding_set_resets_the_adornment():
    # Phase 3 folds the magic boxes of a division-wide AVG over avgMgrSal
    # into T1; the restriction is then a join with every department, which
    # redundant-join drops. T1's letters go with the binding set, so
    # paranoid mode records no QGM501, and the rows stay the oracle's.
    from repro import ResiliencePolicy
    from repro.analysis import analyze_graph
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    from tests.test_integration_suite import EMP_QUERIES

    conn = Connection(
        build_empdept_database(
            n_departments=60, employees_per_department=7, seed=78
        )
    )
    conn.run_script(PAPER_VIEWS_SQL)
    sql = EMP_QUERIES[1]
    outcome = conn.explain_execute(
        sql, resilience=ResiliencePolicy(paranoid=True)
    )
    assert outcome.fallback_strategy == "emst"
    assert not outcome.stats.get("soundness_violations")
    assert outcome.stats["rule_firings"]["redundant-join"] == 1
    diagnostics = analyze_graph(outcome.graph, conn.database.catalog)
    assert "QGM501" not in {d.code for d in diagnostics}
    adornments = {box.name: box.adornment for box in outcome.graph.boxes()}
    assert adornments["T1"] == "ff"
    assert adornments["T2"] == "bf"  # still bound by its consumer's join
    oracle = conn.explain_execute(sql, strategy="norewrite", executor="tuple")
    assert canonical(outcome.rows) == canonical(oracle.rows)


# -- predicate pushdown ------------------------------------------------------------


def test_pushdown_moves_local_predicate_into_view(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW pay AS SELECT empno, workdept, salary FROM employee"
        )
    )
    graph = results_match(
        empdept_db,
        "SELECT empno FROM pay WHERE salary > 150",
        [PredicatePushdownRule()],
    )
    assert not graph.top_box.predicates
    child = graph.top_box.quantifiers[0].input_box
    assert len(child.predicates) == 1


def test_pushdown_through_groupby_on_key_only(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW stats (dept, avgsal) AS "
            "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept"
        )
    )
    graph = results_match(
        empdept_db,
        "SELECT dept FROM stats WHERE dept = 'D1'",
        [PredicatePushdownRule()],
    )
    assert not graph.top_box.predicates  # pushed below the groupby


def test_pushdown_blocked_on_aggregate_column(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW stats (dept, avgsal) AS "
            "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept"
        )
    )
    graph = results_match(
        empdept_db,
        "SELECT dept FROM stats WHERE avgsal > 100",
        [PredicatePushdownRule()],
    )
    # The predicate may move into the view's HAVING box but never below
    # the groupby: the T1 box under the groupby gains no predicate.
    groupby = [b for b in graph.boxes() if b.kind == BoxKind.GROUPBY][0]
    t1 = groupby.quantifiers[0].input_box
    assert not t1.predicates


def test_pushdown_into_union_branches(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW u (x) AS SELECT a FROM t UNION ALL SELECT a FROM s"
        )
    )
    graph = results_match(
        numbers_db, "SELECT x FROM u WHERE x = 2", [PredicatePushdownRule()]
    )
    # Base-table branches block the push (nothing below to accept it):
    # the predicate stays put but results are unchanged either way.
    validate_graph(graph)


def test_pushdown_does_not_touch_join_predicates(empdept_conn):
    graph = build(
        "SELECT d.deptname FROM department d, avgMgrSal s WHERE d.deptno = s.workdept",
        empdept_conn.database,
    )
    before = len(graph.top_box.predicates)
    rewrite_with(graph, [PredicatePushdownRule()])
    assert len(graph.top_box.predicates) == before


def test_pushdown_skips_correlated_predicates(empdept_db):
    graph = build(
        "SELECT empname FROM employee e WHERE EXISTS "
        "(SELECT deptno FROM department d WHERE d.mgrno = e.empno)",
        empdept_db,
    )
    sub_box = graph.top_box.subquery_quantifiers()[0].input_box
    before = list(sub_box.predicates)
    rewrite_with(graph, [PredicatePushdownRule()])
    assert len(sub_box.predicates) == len(before)


# -- projection pruning --------------------------------------------------------------


def test_projection_prunes_unused_view_columns(empdept_db):
    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW wide AS SELECT empno, empname, workdept, salary FROM employee"
        )
    )
    graph = results_match(
        empdept_db, "SELECT empno FROM wide", [ProjectionPruneRule()]
    )
    child = graph.top_box.quantifiers[0].input_box
    assert child.column_names == ["empno"]


def test_projection_prune_keeps_the_adornment_one_letter_per_column(empdept_db):
    # An adorned box pruned in phase 3 keeps the letters of the columns it
    # keeps, in order (QGM401 checks the arity under paranoid mode).
    from repro.magic.adornment import Adornment

    empdept_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW wide AS SELECT empno, empname, workdept, salary FROM employee"
        )
    )
    graph = build("SELECT empno, salary FROM wide", empdept_db)
    child = graph.top_box.quantifiers[0].input_box
    child.adornment = Adornment("bfcf")
    rewrite_with(graph, [ProjectionPruneRule()], phase=3)
    assert child.column_names == ["empno", "salary"]
    assert child.adornment == "bf"


def test_projection_keeps_columns_under_distinct(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement("CREATE VIEW dv AS SELECT DISTINCT a, c FROM t")
    )
    graph = results_match(
        numbers_db, "SELECT a FROM dv", [ProjectionPruneRule()]
    )
    child = graph.top_box.quantifiers[0].input_box
    assert len(child.columns) == 2  # pruning under DISTINCT changes semantics


def test_projection_never_prunes_setop_children(numbers_db):
    numbers_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW u (x) AS "
            "SELECT a FROM (SELECT a, b FROM t) AS p "
            "UNION ALL SELECT a FROM (SELECT a, d FROM s) AS q"
        )
    )
    results_match(numbers_db, "SELECT x FROM u", [ProjectionPruneRule()])


# -- redundant join elimination ---------------------------------------------------------


def test_redundant_self_join_on_key_eliminated(empdept_db):
    graph = results_match(
        empdept_db,
        "SELECT d1.deptname FROM department d1, department d2 "
        "WHERE d1.deptno = d2.deptno AND d2.deptname = 'Planning'",
        [RedundantJoinRule()],
    )
    assert len(graph.top_box.foreach_quantifiers()) == 1


def test_self_join_on_non_key_kept(empdept_db):
    graph = results_match(
        empdept_db,
        "SELECT e1.empno FROM employee e1, employee e2 "
        "WHERE e1.workdept = e2.workdept",
        [RedundantJoinRule()],
    )
    assert len(graph.top_box.foreach_quantifiers()) == 2


# -- distinct pullup -----------------------------------------------------------------------


def test_distinct_pullup_on_provably_unique(empdept_db):
    graph = build("SELECT DISTINCT deptno, deptname FROM department", empdept_db)
    context = rewrite_with(graph, [DistinctPullupRule()])
    assert context.firing_counts.get("distinct-pullup") == 1
    assert graph.top_box.distinct == DistinctMode.PERMIT


def test_distinct_pullup_keeps_needed_distinct(empdept_db):
    graph = build("SELECT DISTINCT workdept FROM employee", empdept_db)
    rewrite_with(graph, [DistinctPullupRule()])
    assert graph.top_box.distinct == DistinctMode.ENFORCE


# -- engine control --------------------------------------------------------------------------


def test_engine_reaches_fixpoint_with_all_rules(empdept_conn):
    graph = build(
        "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        empdept_conn.database,
    )
    context = rewrite_with(graph, default_rules())
    assert context.firing_counts


def test_engine_records_firings_per_rule(empdept_conn):
    graph = build(
        "SELECT workdept FROM avgMgrSal", empdept_conn.database
    )
    context = rewrite_with(graph, default_rules())
    assert all(isinstance(v, int) and v > 0 for v in context.firing_counts.values())


def test_custom_rule_can_be_added(empdept_db):
    from repro.rewrite.rule import RewriteRule

    class Marker(RewriteRule):
        name = "marker"
        phases = frozenset({1})

        def apply(self, box, context):
            if "marked" in box.properties:
                return False
            box.properties["marked"] = True
            return True

    graph = build("SELECT empno FROM employee", empdept_db)
    context = RewriteEngine([Marker()]).run_phase(graph, 1)
    assert context.firing_counts["marker"] == len(graph.boxes())
