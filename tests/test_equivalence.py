"""The chase-based equivalence subsystem: canonicalization, dependencies,
the chase, verdicts, FOREIGN KEY DDL surface, the generalized
redundant-join rule, and the translation-validation acceptance criteria
(unsound firings are refuted and quarantined; the shipped workloads
produce zero REFUTED verdicts)."""

from __future__ import annotations

import pytest

from repro import Connection, Database, ResiliencePolicy
from repro.analysis import analyze_graph
from repro.analysis.equivalence import (
    REFUTED,
    UNKNOWN,
    VERIFIED,
    CannotCanonicalize,
    ChaseBudget,
    EquivalenceChecker,
    Reason,
    canonicalize_graph,
    chase,
    dependencies_from_catalog,
)
from repro.catalog import ColumnDef
from repro.engine import Evaluator
from repro.errors import CatalogError
from repro.qgm import BoxKind, build_query_graph, validate_graph
from repro.rewrite import RewriteEngine
from repro.rewrite.redundant_join import RedundantJoinRule
from repro.rewrite.rule import RewriteRule
from repro.sql import parse_script, parse_statement, to_sql
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from tests.helpers import canonical


@pytest.fixture
def empdept():
    db = build_empdept_database(
        n_departments=6, employees_per_department=4, seed=3
    )
    for view in parse_script(PAPER_VIEWS_SQL).views:
        db.catalog.add_view(view)
    return db


@pytest.fixture
def ds():
    return build_decision_support_database(scale=0.05, seed=5)


def build(sql, db):
    return build_query_graph(parse_statement(sql), db.catalog)


def verdict_between(db, left_sql, right_sql, budget=None):
    checker = EquivalenceChecker(db.catalog, budget=budget)
    return checker.check_graphs(build(left_sql, db), build(right_sql, db))


def rows_of(graph, db):
    return Evaluator(graph, db).run().rows


# -- canonicalization ---------------------------------------------------------


def test_select_canonicalizes_to_one_disjunct(empdept):
    graph = build(
        "SELECT e.empno, d.deptname FROM employee e, department d "
        "WHERE e.workdept = d.deptno AND e.salary > 50000",
        empdept,
    )
    query = canonicalize_graph(graph)
    assert len(query.disjuncts) == 1
    assert query.arity == 2
    tableau = query.disjuncts[0]
    assert {a.relation for a in tableau.atoms} == {"employee", "department"}
    # The range predicate is an interpreted comparison, not a builtin.
    assert not tableau.has_builtins()
    assert tableau.comparisons


def test_union_canonicalizes_per_input(empdept):
    graph = build(
        "SELECT d.deptno FROM department d WHERE d.deptname = 'Planning' "
        "UNION SELECT e.workdept FROM employee e",
        empdept,
    )
    query = canonicalize_graph(graph)
    assert len(query.disjuncts) == 2
    assert query.duplicate_free  # UNION deduplicates


def test_groupby_canonicalizes_to_a_derived_atom(empdept):
    graph = build(
        "SELECT e.workdept, AVG(e.salary) FROM employee e "
        "GROUP BY e.workdept",
        empdept,
    )
    query = canonicalize_graph(graph)
    assert len(query.disjuncts) == 1
    tableau = query.disjuncts[0]
    assert len(tableau.derived) == 1
    (spec,) = tableau.derived.values()
    assert spec.group_arity == 1
    kinds = [output[0] for output in spec.outputs]
    assert kinds == ["key", "agg"]
    assert {a.relation for a in spec.core.atoms} == {"employee"}


def test_limit_is_out_of_fragment(empdept):
    graph = build("SELECT e.empno FROM employee e", empdept)
    graph.limit = 5
    with pytest.raises(CannotCanonicalize):
        canonicalize_graph(graph)


def test_view_expansion_inlines_into_the_tableau(empdept):
    graph = build("SELECT m.empname FROM mgrSal m", empdept)
    query = canonicalize_graph(graph)
    assert {a.relation for a in query.disjuncts[0].atoms} == {
        "employee",
        "department",
    }


# -- dependencies -------------------------------------------------------------


def test_dependencies_from_empdept_catalog(empdept):
    deps = dependencies_from_catalog(empdept.catalog)
    # department: deptno (PK) and mgrno (UNIQUE, NOT NULL); employee: empno.
    assert {fd.determinant for fd in deps.fds["department"]} == {(0,), (2,)}
    assert len(deps.fds["employee"]) == 1
    # employee.workdept -> department.deptno is NOT NULL, so it proves.
    assert [ind.parent for ind in deps.inds["employee"]] == ["department"]
    assert not deps.repair_inds


def test_nullable_fk_is_repair_only():
    db = Database()
    db.create_table(
        "p", [ColumnDef("pid", "INT")], primary_key=["pid"]
    )
    db.create_table(
        "c",
        [ColumnDef("cid", "INT"), ColumnDef("pid", "INT")],  # pid nullable
        primary_key=["cid"],
        foreign_keys=[(["pid"], "p", None)],
    )
    deps = dependencies_from_catalog(db.catalog)
    assert "c" not in deps.inds
    assert [ind.parent for ind in deps.repair_inds["c"]] == ["p"]


# -- the chase ----------------------------------------------------------------


def test_chase_unifies_key_equated_self_join(empdept):
    graph = build(
        "SELECT d1.deptname FROM department d1, department d2 "
        "WHERE d1.deptno = d2.deptno",
        empdept,
    )
    tableau = canonicalize_graph(graph).disjuncts[0]
    assert len(tableau.atoms) == 2
    deps = dependencies_from_catalog(empdept.catalog)
    chased = chase(tableau, deps)
    assert len(chased.atoms) == 1  # the key FD merged the two copies
    assert chased.bag_exact  # merging keyed rows is bag-sound


def test_chase_adds_fk_parent_as_existential(empdept):
    # Head must not pin employee's key, or the anchoring analysis would
    # (correctly) demote the employee atom itself to existential.
    graph = build("SELECT e.empname FROM employee e", empdept)
    tableau = canonicalize_graph(graph).disjuncts[0]
    deps = dependencies_from_catalog(empdept.catalog)
    chased = chase(tableau, deps)
    by_relation = {a.relation: a for a in chased.atoms}
    assert not by_relation["employee"].existential
    assert by_relation["department"].existential


def test_chase_demotes_atom_whose_key_is_in_the_head(empdept):
    # One row per distinct empno: multiplicity is pinned by the head, so
    # the atom is safely existential for bag comparisons.
    graph = build("SELECT e.empno FROM employee e", empdept)
    tableau = canonicalize_graph(graph).disjuncts[0]
    deps = dependencies_from_catalog(empdept.catalog)
    chased = chase(tableau, deps)
    by_relation = {a.relation: a for a in chased.atoms}
    assert by_relation["employee"].existential


def test_chase_budget_marks_incomplete(ds):
    graph = build(
        "SELECT l.quantity FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey",
        ds,
    )
    tableau = canonicalize_graph(graph).disjuncts[0]
    deps = dependencies_from_catalog(ds.catalog)
    chased = chase(tableau, deps, ChaseBudget(max_steps=1))
    assert not chased.chase_complete


# -- verdicts -----------------------------------------------------------------


def test_identical_queries_are_bag_verified(empdept):
    sql = (
        "SELECT e.empno, e.salary FROM employee e, department d "
        "WHERE e.workdept = d.deptno AND e.salary > 40000"
    )
    verdict = verdict_between(empdept, sql, sql)
    assert verdict.status == VERIFIED
    assert verdict.bag


def test_contradictory_queries_are_provably_empty(empdept):
    sql = (
        "SELECT d.deptname FROM department d "
        "WHERE d.deptno = 'D0001' AND d.deptno = 'D0002'"
    )
    verdict = verdict_between(empdept, sql, sql)
    assert verdict.status == VERIFIED
    assert "empty" in verdict.reason


def test_fk_covered_parent_join_is_bag_verified(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno, e.salary FROM employee e, department d "
        "WHERE e.workdept = d.deptno",
        "SELECT e.empno, e.salary FROM employee e",
    )
    assert verdict.status == VERIFIED
    assert verdict.bag


def test_fk_chain_join_is_bag_verified(ds):
    verdict = verdict_between(
        ds,
        "SELECT l.quantity FROM lineitem l, orders o, customer c "
        "WHERE l.orderkey = o.orderkey AND o.custkey = c.custkey",
        "SELECT l.quantity FROM lineitem l",
    )
    assert verdict.status == VERIFIED
    assert verdict.bag


def test_dropping_a_filter_is_refuted_with_counterexample(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e WHERE e.salary = 100000",
        "SELECT e.empno FROM employee e",
    )
    assert verdict.status == REFUTED
    counterexample = verdict.counterexample
    assert counterexample["missing_from"] == "left"
    assert counterexample["tables"]["employee"]
    # The frozen database satisfies the declared FK: every employee's
    # workdept appears as a department deptno.
    departments = {row[0] for row in counterexample["tables"]["department"]}
    for row in counterexample["tables"]["employee"]:
        assert row[2] in departments


def test_projection_swap_is_refuted(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno, e.salary FROM employee e",
        "SELECT e.salary, e.empno FROM employee e",
    )
    assert verdict.status == REFUTED


def test_non_key_self_join_drop_is_unknown(empdept):
    # Set-equivalent, but the self-join multiplies multiplicities, so
    # neither VERIFIED nor REFUTED is sound.
    verdict = verdict_between(
        empdept,
        "SELECT e1.workdept FROM employee e1, employee e2 "
        "WHERE e1.workdept = e2.workdept",
        "SELECT e.workdept FROM employee e",
    )
    assert verdict.status == UNKNOWN


def test_distinct_makes_self_join_drop_set_verified(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT DISTINCT e1.workdept FROM employee e1, employee e2 "
        "WHERE e1.workdept = e2.workdept",
        "SELECT DISTINCT e.workdept FROM employee e",
    )
    assert verdict.status == VERIFIED
    assert not verdict.bag  # set equality of duplicate-free queries


def test_union_is_order_insensitive(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT d.deptno FROM department d WHERE d.deptname = 'Planning' "
        "UNION SELECT e.workdept FROM employee e",
        "SELECT e.workdept FROM employee e "
        "UNION SELECT d.deptno FROM department d WHERE d.deptname = 'Planning'",
    )
    assert verdict.status == VERIFIED


def test_identical_aggregates_verify(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.workdept, AVG(e.salary) FROM employee e GROUP BY e.workdept",
        "SELECT e.workdept, AVG(e.salary) FROM employee e GROUP BY e.workdept",
    )
    assert verdict.status == VERIFIED


def test_differing_aggregates_stay_unknown_not_refuted(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.workdept, AVG(e.salary) FROM employee e GROUP BY e.workdept",
        "SELECT e.workdept, AVG(e.salary) FROM employee e "
        "WHERE e.job = 'clerk' GROUP BY e.workdept",
    )
    assert verdict.status == UNKNOWN
    assert verdict.reason_code == Reason.UNPROVEN_AGGREGATE


def test_exhausted_hom_budget_yields_unknown(empdept):
    sql = (
        "SELECT e1.empno FROM employee e1, employee e2, employee e3 "
        "WHERE e1.workdept = e2.workdept AND e2.workdept = e3.workdept"
    )
    verdict = verdict_between(
        empdept, sql, sql, budget=ChaseBudget(max_hom_nodes=1)
    )
    assert verdict.status == UNKNOWN
    assert "budget" in verdict.reason


def test_implied_equality_via_key_fd(empdept):
    graph = build(
        "SELECT e1.empno FROM employee e1, employee e2 "
        "WHERE e1.empno = e2.empno AND e1.empname = e2.empname",
        empdept,
    )
    box = graph.top_box
    checker = EquivalenceChecker(empdept.catalog)
    implied = [p for p in box.predicates if checker.implied_equality(box, p)]
    # empno = empno pins the row, so empname = empname is implied — and
    # vice versa is NOT (empname is no key).
    assert len(implied) == 1


def test_checker_counts_verdicts(empdept):
    checker = EquivalenceChecker(empdept.catalog)
    sql = "SELECT e.empno FROM employee e"
    checker.check_graphs(build(sql, empdept), build(sql, empdept))
    assert checker.counts[VERIFIED] == 1
    assert checker.seconds >= 0.0


# -- interpreted comparisons --------------------------------------------------


def test_implied_comparison_conjunct_is_verified(empdept):
    # salary > 100 entails salary > 50, so the extra conjunct is noise.
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e WHERE e.salary > 100",
        "SELECT e.empno FROM employee e "
        "WHERE e.salary > 100 AND e.salary > 50",
    )
    assert verdict.status == VERIFIED
    assert verdict.bag


def test_between_matches_its_desugared_bounds(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e "
        "WHERE e.salary BETWEEN 40000 AND 60000",
        "SELECT e.empno FROM employee e "
        "WHERE e.salary >= 40000 AND e.salary <= 60000",
    )
    assert verdict.status == VERIFIED


def test_in_list_is_order_insensitive(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e WHERE e.job IN ('clerk', 'mgr')",
        "SELECT e.empno FROM employee e WHERE e.job IN ('mgr', 'clerk')",
    )
    assert verdict.status == VERIFIED


def test_contradictory_ranges_verify_as_empty(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e "
        "WHERE e.salary > 100 AND e.salary < 50",
        "SELECT e.empno FROM employee e WHERE e.salary < 0 AND e.salary > 0",
    )
    assert verdict.status == VERIFIED
    assert verdict.reason_code == Reason.VERIFIED_EMPTY


def test_strict_vs_inclusive_bound_is_unknown_not_refuted(empdept):
    # x > 100 ⊆ x >= 100 but not conversely; refutation must not fire
    # either (the frozen counterexample cannot honor interpreted facts).
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e WHERE e.salary > 100",
        "SELECT e.empno FROM employee e WHERE e.salary >= 100",
    )
    assert verdict.status == UNKNOWN
    assert verdict.reason_code == Reason.UNPROVEN_CONTAINMENT


# -- outer-join canonicalization ----------------------------------------------


def test_null_rejected_left_join_verifies_against_inner(empdept):
    # The WHERE filter rejects NULL-padded rows, so the LEFT JOIN is an
    # inner join and both graphs canonicalize to the same tableau.
    verdict = verdict_between(
        empdept,
        "SELECT e.empno, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept "
        "WHERE d.budget > 1000",
        "SELECT e.empno, d.deptname FROM employee e, department d "
        "WHERE d.deptno = e.workdept AND d.budget > 1000",
    )
    assert verdict.status == VERIFIED
    assert verdict.bag


def test_preserved_left_join_expands_into_two_disjuncts(empdept):
    graph = build(
        "SELECT e.empno, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept",
        empdept,
    )
    query = canonicalize_graph(graph)
    assert len(query.disjuncts) == 2
    # One disjunct joins both sides; the anti disjunct pads the right
    # side with NULL constants and carries the no-match marker builtin.
    joined = [t for t in query.disjuncts if len(t.atoms) == 2]
    padded = [t for t in query.disjuncts if len(t.atoms) == 1]
    assert len(joined) == 1 and len(padded) == 1
    assert any("NOMATCH" in b.skeleton for b in padded[0].builtins)


def test_identical_left_joins_verify_via_disjunct_matching(empdept):
    sql = (
        "SELECT e.empno, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept"
    )
    verdict = verdict_between(empdept, sql, sql)
    assert verdict.status == VERIFIED
    assert verdict.reason_code == Reason.VERIFIED_DISJUNCTS


def test_outer_join_expansion_past_budget_is_out_of_fragment(empdept):
    from repro.analysis.equivalence import canonicalize_box

    graph = build(
        "SELECT e.empno, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept",
        empdept,
    )
    with pytest.raises(CannotCanonicalize) as exc:
        canonicalize_box(graph.top_box, max_disjuncts=1)
    assert exc.value.code == Reason.FRAGMENT_OUTERJOIN


def test_null_rejected_left_join_agrees_with_inner_on_execution(empdept):
    # Not just symbolic: the verdict above matches the engine's rows.
    left = build(
        "SELECT e.empno, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept "
        "WHERE d.budget > 1000",
        empdept,
    )
    inner = build(
        "SELECT e.empno, d.deptname FROM employee e, department d "
        "WHERE d.deptno = e.workdept AND d.budget > 1000",
        empdept,
    )
    assert sorted(rows_of(left, empdept), key=repr) == sorted(
        rows_of(inner, empdept), key=repr
    )


# -- reason codes -------------------------------------------------------------


def test_all_reason_codes_are_unique_and_namespaced():
    from repro.analysis.equivalence import ALL_REASON_CODES

    assert len(set(ALL_REASON_CODES)) == len(ALL_REASON_CODES)
    prefixes = {code.split(":")[0] for code in ALL_REASON_CODES}
    assert prefixes == {"fragment", "budget", "unproven", "verified", "refuted"}


def test_arity_mismatch_is_refuted_with_code(empdept):
    verdict = verdict_between(
        empdept,
        "SELECT e.empno FROM employee e",
        "SELECT e.empno, e.salary FROM employee e",
    )
    assert verdict.status == REFUTED
    assert verdict.reason_code == Reason.REFUTED_ARITY


def test_identical_queries_report_bag_isomorphic_code(empdept):
    sql = "SELECT e.empno FROM employee e WHERE e.salary > 40000"
    verdict = verdict_between(empdept, sql, sql)
    assert verdict.reason_code == Reason.VERIFIED_ISO
    assert verdict.describe().endswith("[%s]" % Reason.VERIFIED_ISO)


def test_set_equality_and_multiplicity_codes(empdept):
    distinct_pair = (
        "SELECT DISTINCT e1.workdept FROM employee e1, employee e2 "
        "WHERE e1.workdept = e2.workdept",
        "SELECT DISTINCT e.workdept FROM employee e",
    )
    verdict = verdict_between(empdept, *distinct_pair)
    assert verdict.reason_code == Reason.VERIFIED_SET
    bag_pair = (distinct_pair[0].replace("DISTINCT ", ""),
                distinct_pair[1].replace("DISTINCT ", ""))
    verdict = verdict_between(empdept, *bag_pair)
    assert verdict.status == UNKNOWN
    assert verdict.reason_code == Reason.UNPROVEN_MULTIPLICITY


def test_hom_budget_reason_code(empdept):
    sql = (
        "SELECT e1.empno FROM employee e1, employee e2, employee e3 "
        "WHERE e1.workdept = e2.workdept AND e2.workdept = e3.workdept"
    )
    verdict = verdict_between(
        empdept, sql, sql, budget=ChaseBudget(max_hom_nodes=1)
    )
    assert verdict.reason_code == Reason.BUDGET_HOM


def test_fragment_codes_from_canonicalization(empdept):
    from repro.qgm.model import MagicRole

    def code_of(graph):
        with pytest.raises(CannotCanonicalize) as exc:
            canonicalize_graph(graph)
        return exc.value.code

    limited = build("SELECT e.empno FROM employee e", empdept)
    limited.limit = 5
    assert code_of(limited) == Reason.FRAGMENT_LIMIT

    assert code_of(build(
        "SELECT e.empno FROM employee e "
        "INTERSECT SELECT e2.empno FROM employee e2",
        empdept,
    )) == Reason.FRAGMENT_SETOP

    # EXISTS becomes an existential quantifier and stays in fragment;
    # NOT EXISTS (an ANTI quantifier) does not.
    canonicalize_graph(build(
        "SELECT e.empno FROM employee e WHERE EXISTS "
        "(SELECT d.deptno FROM department d WHERE d.deptno = e.workdept)",
        empdept,
    ))
    assert code_of(build(
        "SELECT e.empno FROM employee e WHERE NOT EXISTS "
        "(SELECT d.deptno FROM department d WHERE d.deptno = e.workdept)",
        empdept,
    )) == Reason.FRAGMENT_SUBQUERY

    magic = build("SELECT e.empno FROM employee e", empdept)
    magic.top_box.magic_role = MagicRole.MAGIC
    assert code_of(magic) == Reason.FRAGMENT_MAGIC


def test_allow_special_admits_magic_boxes(empdept):
    from repro.analysis.equivalence import canonicalize_box
    from repro.qgm.model import MagicRole

    graph = build("SELECT e.empno FROM employee e", empdept)
    graph.top_box.magic_role = MagicRole.MAGIC
    query = canonicalize_box(graph.top_box, allow_special=True)
    assert len(query.disjuncts) == 1


def test_union_width_past_budget_is_out_of_fragment(empdept):
    from repro.analysis.equivalence import canonicalize_box

    graph = build(
        "SELECT e.empno FROM employee e "
        "UNION SELECT d.mgrno FROM department d",
        empdept,
    )
    union = next(b for b in graph.boxes() if b.kind == BoxKind.UNION)
    with pytest.raises(CannotCanonicalize) as exc:
        canonicalize_box(union, max_disjuncts=1)
    assert exc.value.code == Reason.FRAGMENT_UNION


def test_checker_reports_fragment_code_in_verdict(empdept):
    checker = EquivalenceChecker(empdept.catalog)
    before = build("SELECT e.empno FROM employee e", empdept)
    after = build("SELECT e.empno FROM employee e", empdept)
    before.limit = 5
    after.limit = 5
    verdict = checker.check_graphs(before, after)
    assert verdict.status == UNKNOWN
    assert verdict.reason_code == Reason.FRAGMENT_LIMIT
    assert "before side" in verdict.detail


def test_scoped_validation_detects_unchanged_graphs(empdept):
    from repro.analysis.equivalence import scoped_verdict

    checker = EquivalenceChecker(empdept.catalog)
    sql = "SELECT e.empno FROM employee e WHERE e.salary > 40000"
    verdict = scoped_verdict(
        checker, build(sql, empdept), build(sql, empdept)
    )
    assert verdict is not None
    assert verdict.status == VERIFIED
    assert verdict.reason_code == Reason.VERIFIED_UNCHANGED
    assert verdict.bag


# -- FOREIGN KEY DDL surface --------------------------------------------------

FK_DDL = (
    "CREATE TABLE child (cid INT NOT NULL, pid INT NOT NULL, tag STR, "
    "PRIMARY KEY (cid), UNIQUE (tag), "
    "FOREIGN KEY (pid) REFERENCES parent (pid))"
)


def test_create_table_parses_foreign_key_and_unique():
    statement = parse_statement(FK_DDL)
    assert statement.primary_key == ["cid"]
    assert [list(key) for key in statement.unique_keys] == [["tag"]]
    (fk,) = statement.foreign_keys
    assert list(fk.columns) == ["pid"]
    assert fk.ref_table == "parent"
    assert list(fk.ref_columns) == ["pid"]


def test_create_table_foreign_key_round_trips_through_printer():
    rendered = to_sql(parse_statement(FK_DDL))
    assert "FOREIGN KEY (pid) REFERENCES parent (pid)" in rendered
    assert "UNIQUE (tag)" in rendered
    again = to_sql(parse_statement(rendered))
    assert again == rendered


def test_connection_ddl_declares_foreign_key():
    connection = Connection(Database())
    connection.run_script(
        "CREATE TABLE parent (pid INT NOT NULL, PRIMARY KEY (pid));" + FK_DDL
    )
    schema = connection.database.catalog.table("child")
    (fk,) = schema.foreign_keys
    assert fk.ref_table == "parent"
    deps = dependencies_from_catalog(connection.database.catalog)
    assert [ind.parent for ind in deps.inds["child"]] == ["parent"]


def test_catalog_rejects_fk_to_non_key_columns():
    db = Database()
    db.create_table("p", [ColumnDef("pid", "INT"), ColumnDef("x", "INT")])
    with pytest.raises(CatalogError):
        db.create_table(
            "c",
            [ColumnDef("cid", "INT"), ColumnDef("pid", "INT")],
            foreign_keys=[(["pid"], "p", ["x"])],
        )


def test_foreign_key_arity_mismatch_rejected():
    from repro.catalog import ForeignKey

    with pytest.raises(CatalogError):
        ForeignKey(("a", "b"), "p", ("x",))


# -- the generalized redundant-join rule --------------------------------------


def run_redundant_join(graph):
    engine = RewriteEngine([RedundantJoinRule()])
    context = engine.run_phase(graph, 1)
    validate_graph(graph)
    return context


def test_same_table_distinct_base_boxes_eliminated(empdept):
    # Satellite: the syntactic tier must match two *distinct* BASE boxes
    # over one stored table, not just one shared box object.
    import copy

    sql = (
        "SELECT d1.deptname FROM department d1, department d2 "
        "WHERE d1.deptno = d2.deptno AND d2.deptname = 'Planning'"
    )
    before = rows_of(build(sql, empdept), empdept)
    graph = build(sql, empdept)
    second = graph.top_box.foreach_quantifiers()[1]
    first = graph.top_box.foreach_quantifiers()[0]
    assert first.input_box is second.input_box  # builder shares base boxes
    second.input_box = copy.deepcopy(second.input_box)
    run_redundant_join(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 1
    assert canonical(rows_of(graph, empdept)) == canonical(before)


def _qgm602_quantifiers(graph, db):
    report = analyze_graph(graph, catalog=db.catalog)
    return {
        d.quantifier
        for d in report
        if d.code == "QGM602" and d.box == graph.top_box.name
    }


def test_view_self_join_eliminated_by_chase(empdept):
    # Query-D shape: the same view referenced twice, joined on a key of
    # the underlying table. The builder shares one expansion box between
    # the two quantifiers. The key fixpoint derives no key for the mgrSal
    # expansion, so the rewrite keeps both quantifiers; only the chase
    # proves the join redundant, and QGM602 reports it.
    sql = (
        "SELECT m1.empname, m2.salary FROM mgrSal m1, mgrSal m2 "
        "WHERE m1.empno = m2.empno"
    )
    graph = build(sql, empdept)
    context = run_redundant_join(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 2
    assert "redundant-join" not in context.firing_counts
    assert _qgm602_quantifiers(graph, empdept) == {"m1", "m2"}


def test_view_self_join_with_distinct_expansion_boxes(empdept):
    # The same shape with the sharing physically broken: two *distinct*
    # view-expansion SELECT boxes, matched through their base-table
    # footprint rather than object identity.
    import copy

    sql = (
        "SELECT m1.empname, m2.salary FROM mgrSal m1, mgrSal m2 "
        "WHERE m1.empno = m2.empno"
    )
    graph = build(sql, empdept)
    first, second = graph.top_box.foreach_quantifiers()
    assert first.input_box is second.input_box  # builder shares the box
    second.input_box = copy.deepcopy(second.input_box)
    run_redundant_join(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 2
    assert _qgm602_quantifiers(graph, empdept) == {"m1", "m2"}


def test_fk_covered_parent_join_eliminated(ds):
    sql = (
        "SELECT l.quantity, l.extendedprice FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey"
    )
    before = rows_of(build(sql, ds), ds)
    assert before  # the join actually produces rows at this scale
    graph = build(sql, ds)
    run_redundant_join(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 1
    assert {q.input_box.table_name for q in graph.top_box.quantifiers} == {
        "lineitem"
    }
    assert canonical(rows_of(graph, ds)) == canonical(before)


def test_parent_join_kept_when_parent_columns_are_used(ds):
    sql = (
        "SELECT l.quantity, o.totalprice FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey"
    )
    graph = build(sql, ds)
    run_redundant_join(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 2


def test_non_key_self_join_still_kept(empdept):
    sql = (
        "SELECT e1.empno FROM employee e1, employee e2 "
        "WHERE e1.workdept = e2.workdept"
    )
    graph = build(sql, empdept)
    run_redundant_join(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 2


# -- translation validation: acceptance ---------------------------------------


class DropPredicateRule(RewriteRule):
    """An intentionally unsound rule: silently deletes a predicate."""

    name = "drop-predicate"
    phases = frozenset({1})
    priority = 10

    def applies_to(self, box, context):
        return (
            box.kind == BoxKind.SELECT
            and not box.is_special
            and bool(box.predicates)
        )

    def apply(self, box, context):
        box.predicates = box.predicates[:-1]
        return True


def test_unsound_rule_is_refuted_and_quarantined(empdept):
    sql = "SELECT e.empno FROM employee e WHERE e.salary = 100000"
    before = rows_of(build(sql, empdept), empdept)
    graph = build(sql, empdept)
    policy = ResiliencePolicy(paranoid=True)
    policy.begin_query()
    engine = RewriteEngine([DropPredicateRule()])
    context = engine.run_phase(graph, 1, resilience=policy)
    # The firing was refuted, rolled back, and the rule quarantined.
    assert "drop-predicate" in policy.quarantine
    assert "QGM601" in context.soundness_violations["drop-predicate"]
    refuted = context.equivalence_verdicts["drop-predicate"]["REFUTED"]
    assert sum(refuted.values()) == 1
    assert set(refuted) == {Reason.REFUTED_COUNTEREXAMPLE}
    assert len(graph.top_box.predicates) == 1  # the rollback restored it
    assert canonical(rows_of(graph, empdept)) == canonical(before)


def test_sound_rules_never_refuted_under_paranoid(empdept):
    connection = Connection(empdept)
    policy = ResiliencePolicy(paranoid=True)
    outcome = connection.explain_execute(
        "SELECT m1.empname, m2.salary FROM mgrSal m1, mgrSal m2 "
        "WHERE m1.empno = m2.empno",
        strategy="emst",
        resilience=policy,
    )
    verdicts = outcome.stats.get("equivalence_verdicts", {})
    assert verdicts  # paranoid mode validated the firings
    for statuses in verdicts.values():
        assert not statuses.get(REFUTED)
    # Pre-existing structural diagnostics may quarantine other rules
    # (e.g. QGM401 adornment arity from projection pruning); translation
    # validation itself must not be the cause of any quarantine.
    violations = outcome.stats.get("soundness_violations", {})
    for codes in violations.values():
        assert "QGM601" not in codes


def test_workload_sweep_has_zero_refutations(tmp_path, capsys):
    # One sweep exercises the whole CLI surface: zero REFUTED firings,
    # the --min-verified coverage gate, and the --json breakdown.
    import json

    from repro.analysis.equivalence import ALL_REASON_CODES
    from repro.analysis.translation_validate import main

    out = tmp_path / "sweep.json"
    status = main(["--json", str(out), "--min-verified", "25"])
    assert status == 0, capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["totals"]["REFUTED"] == 0
    assert payload["totals"]["VERIFIED"] >= 25
    assert payload["queries"]
    valid = set(ALL_REASON_CODES) | {"unspecified"}
    for statuses in payload["rule_reason_histogram"].values():
        for codes in statuses.values():
            assert set(codes) <= valid
    # An unreachable floor trips the coverage gate.
    assert main(["--min-verified", "10000"]) == 1
