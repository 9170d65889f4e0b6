"""QGM infrastructure: strata, keys, cloning, validation, rendering."""

import pytest

from repro.errors import QgmError
from repro.sql import parse_statement
from repro.qgm import (
    BoxKind,
    build_query_graph,
    graph_summary,
    render_dot,
    render_text,
    validate_graph,
)
from repro.qgm.clone import clone_box
from repro.qgm.facts.keyflow import is_duplicate_free, solve_box_keys
from repro.qgm.stratum import assign_strata, is_recursive, reduced_dependency_graph


def build(sql, db):
    return build_query_graph(parse_statement(sql), db.catalog)


# -- strata ---------------------------------------------------------------------


def test_base_tables_stratum_zero(empdept_db):
    graph = build("SELECT empno FROM employee", empdept_db)
    strata = assign_strata(graph)
    base = graph.top_box.quantifiers[0].input_box
    assert strata[id(base)] == 0
    assert strata[id(graph.top_box)] == 1


def test_view_chain_strata(empdept_conn):
    graph = build(
        "SELECT workdept FROM avgMgrSal",
        empdept_conn.database,
    )
    strata = assign_strata(graph)
    values = sorted(set(strata.values()))
    assert values[0] == 0
    assert len(values) >= 4  # base, mgrSal, T1, groupby, having, top


def test_recursive_component_shares_stratum(empdept_db):
    empdept_db.create_table("edge", ["src", "dst"], rows=[(1, 2)])
    graph = build(
        "WITH RECURSIVE r (n) AS ("
        "SELECT dst FROM edge UNION SELECT e.dst FROM r x, edge e WHERE e.src = x.n) "
        "SELECT n FROM r",
        empdept_db,
    )
    assert is_recursive(graph)
    strata = assign_strata(graph)
    components, component_of = reduced_dependency_graph(graph)
    cyclic = [c for c in components if len(c) > 1]
    assert cyclic
    cycle_strata = {strata[id(b)] for b in cyclic[0]}
    assert len(cycle_strata) == 1


def test_nonrecursive_graph_reported(empdept_db):
    graph = build("SELECT empno FROM employee", empdept_db)
    assert not is_recursive(graph)


# -- keys / duplicate freeness -----------------------------------------------------


def test_base_table_key_derived(empdept_db):
    graph = build("SELECT deptno, deptname FROM department", empdept_db)
    base = graph.top_box.quantifiers[0].input_box
    assert frozenset({"deptno"}) in solve_box_keys(base)


def test_select_box_key_through_projection(empdept_db):
    graph = build("SELECT deptno, deptname FROM department", empdept_db)
    assert frozenset({"deptno"}) in solve_box_keys(graph.top_box)
    assert is_duplicate_free(graph.top_box)


def test_projection_without_key_is_not_duplicate_free(empdept_db):
    graph = build("SELECT deptname FROM department", empdept_db)
    assert not is_duplicate_free(graph.top_box)


def test_distinct_box_is_duplicate_free(empdept_db):
    graph = build("SELECT DISTINCT workdept FROM employee", empdept_db)
    assert is_duplicate_free(graph.top_box)
    assert not is_duplicate_free(graph.top_box, ignore_enforce=True)


def test_groupby_keys(empdept_db):
    graph = build(
        "SELECT workdept, COUNT(*) AS n FROM employee GROUP BY workdept",
        empdept_db,
    )
    groupby = graph.top_box.quantifiers[0].input_box
    assert frozenset({"gk0"}) in solve_box_keys(groupby)


def test_join_on_full_key_preserves_other_side_key(empdept_db):
    # employee joined to department on department's primary key: empno stays
    # a key of the join.
    graph = build(
        "SELECT e.empno, d.deptno FROM employee e, department d "
        "WHERE d.deptno = e.workdept",
        empdept_db,
    )
    keys = solve_box_keys(graph.top_box)
    assert frozenset({"empno"}) in keys


def test_join_without_key_equation_has_composite_key(empdept_db):
    graph = build(
        "SELECT e.empno, d.deptno FROM employee e, department d",
        empdept_db,
    )
    keys = solve_box_keys(graph.top_box)
    assert frozenset({"empno", "deptno"}) in keys


# -- clone ------------------------------------------------------------------------


def test_clone_shares_uncorrelated_children(empdept_conn):
    graph = build("SELECT workdept FROM avgMgrSal", empdept_conn.database)
    view_box = graph.top_box.quantifiers[0].input_box
    copy, quantifier_map = clone_box(graph, view_box)
    assert copy is not view_box
    assert copy.name == view_box.name
    # The copy's quantifier points at the same (shared) child.
    assert copy.quantifiers[0].input_box is view_box.quantifiers[0].input_box
    assert view_box.quantifiers[0] in quantifier_map


def test_clone_remaps_expressions(empdept_db):
    graph = build(
        "SELECT empno FROM employee WHERE salary > 100", empdept_db
    )
    copy, _ = clone_box(graph, graph.top_box)
    from repro.qgm import expr as qe

    for predicate in copy.predicates:
        for ref in qe.column_refs(predicate):
            assert ref.quantifier in copy.quantifiers


def test_clone_deep_copies_correlated_subquery(empdept_db):
    graph = build(
        "SELECT empname FROM employee e WHERE EXISTS "
        "(SELECT deptno FROM department d WHERE d.mgrno = e.empno)",
        empdept_db,
    )
    copy, _ = clone_box(graph, graph.top_box)
    original_sub = graph.top_box.subquery_quantifiers()[0].input_box
    copied_sub = copy.subquery_quantifiers()[0].input_box
    assert copied_sub is not original_sub
    # The copied subquery correlates to the *copied* outer quantifier.
    correlated = copied_sub.correlated_quantifiers()
    assert correlated[0] in copy.quantifiers


def test_clone_recursive_box_clones_whole_cycle(empdept_db):
    empdept_db.create_table("edge", ["src", "dst"], rows=[(1, 2)])
    graph = build(
        "WITH RECURSIVE r (n) AS ("
        "SELECT dst FROM edge UNION SELECT e.dst FROM r x, edge e WHERE e.src = x.n) "
        "SELECT n FROM r",
        empdept_db,
    )
    union = graph.top_box.quantifiers[0].input_box
    assert union.kind == BoxKind.UNION
    copy, _ = clone_box(graph, union)
    # The copy's recursive branch must reference the copy, not the original.
    recursive_targets = [
        q.input_box
        for branch_q in copy.quantifiers
        for q in branch_q.input_box.quantifiers
    ]
    assert copy in recursive_targets
    assert union not in recursive_targets


# -- validation ---------------------------------------------------------------------


def test_validate_accepts_builder_output(empdept_conn):
    graph = build(
        "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept",
        empdept_conn.database,
    )
    assert validate_graph(graph)


def test_validate_rejects_dangling_reference(empdept_db):
    graph = build("SELECT empno FROM employee", empdept_db)
    from repro.qgm.model import Box, OutputColumn, Quantifier, QuantifierType
    from repro.qgm import expr as qe

    stray_base = Box(kind=BoxKind.BASE, name="STRAY", columns=[OutputColumn(name="x")])
    stray = Quantifier(name="zz", qtype=QuantifierType.FOREACH, input_box=stray_base)
    graph.top_box.predicates.append(
        qe.QBinary(op="=", left=stray.ref("x"), right=qe.QLiteral(1))
    )
    with pytest.raises(QgmError):
        validate_graph(graph)


def test_validate_rejects_bad_distinct_mode(empdept_db):
    graph = build("SELECT empno FROM employee", empdept_db)
    graph.top_box.distinct = "BOGUS"
    with pytest.raises(QgmError):
        validate_graph(graph)


def test_validate_rejects_groupby_with_predicates(empdept_db):
    graph = build(
        "SELECT workdept, COUNT(*) FROM employee GROUP BY workdept", empdept_db
    )
    groupby = graph.top_box.quantifiers[0].input_box
    from repro.qgm import expr as qe

    groupby.predicates.append(qe.QLiteral(True))
    with pytest.raises(QgmError):
        validate_graph(graph)


# -- rendering -------------------------------------------------------------------------


def test_render_text_mentions_boxes(empdept_conn):
    graph = build("SELECT workdept FROM avgMgrSal", empdept_conn.database)
    text = render_text(graph)
    assert "GROUPBY" in text
    assert "BASE EMPLOYEE" in text
    assert "(shared)" not in text or True


def test_render_dot_is_valid_dotish(empdept_db):
    graph = build("SELECT empno FROM employee", empdept_db)
    dot = render_dot(graph)
    assert dot.startswith("digraph qgm {")
    assert dot.rstrip().endswith("}")
    assert "EMPLOYEE" in dot


def test_graph_summary_counts(empdept_conn):
    graph = build(
        "SELECT d.deptname FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept",
        empdept_conn.database,
    )
    summary = graph_summary(graph)
    assert "boxes=" in summary
    assert "quantifiers=" in summary
