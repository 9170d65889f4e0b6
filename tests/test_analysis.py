"""The static-analysis subsystem: one table-driven case per diagnostic
code, the lint CLI, the api hook, and rewrite-soundness attribution."""

from __future__ import annotations

import re

import pytest

from repro import Connection, Database, FaultPlan, ResiliencePolicy
from repro.analysis import (
    CODES,
    AnalysisReport,
    Analyzer,
    Severity,
    SoundnessChecker,
    analyze_graph,
    soundness_passes,
)
from repro.analysis.dataflow_checks import DataflowPass
from repro.analysis.deadcode import DeadCodePass
from repro.analysis.magic_checks import MagicWellFormednessPass
from repro.analysis.structural import StructuralPass
from repro.analysis.typecheck import TypeCheckPass
from repro.catalog import ColumnDef
from repro.errors import QgmError
from repro.qgm import BoxKind, build_query_graph, validate_graph
from repro.qgm import expr as qe
from repro.qgm.model import Box, MagicRole, Quantifier, QuantifierType
from repro.qgm.stratum import reduced_dependency_graph
from repro.rewrite.rule import RuleContext
from repro.sql import parse_statement


@pytest.fixture
def typed_db():
    """A small schema with declared column types (the type pass is silent
    on untyped schemas)."""
    db = Database()
    db.create_table(
        "emp",
        [
            ColumnDef("empno", "INT"),
            ColumnDef("empname", "STR"),
            ColumnDef("workdept", "STR"),
            ColumnDef("salary", "INT"),
        ],
        primary_key=["empno"],
        rows=[(1, "a", "D1", 100), (2, "b", "D2", 200)],
    )
    db.create_table(
        "dept",
        [
            ColumnDef("deptno", "STR"),
            ColumnDef("deptname", "STR"),
            ColumnDef("mgrno", "INT"),
        ],
        primary_key=["deptno"],
        rows=[("D1", "Planning", 1), ("D2", "Ops", 2)],
    )
    db.create_table(
        "edge",
        [ColumnDef("src", "INT"), ColumnDef("dst", "INT")],
        rows=[(1, 2), (2, 3)],
    )
    return db


def build(sql, db):
    return build_query_graph(parse_statement(sql), db.catalog)


def structural(graph):
    return Analyzer([StructuralPass()]).analyze(graph)


def union_box(graph):
    return next(b for b in graph.boxes() if b.kind == BoxKind.UNION)


def groupby_box(graph):
    return next(b for b in graph.boxes() if b.kind == BoxKind.GROUPBY)


def recursive_graph(db):
    graph = build(
        "WITH RECURSIVE r (n) AS ("
        "SELECT e.dst FROM edge e "
        "UNION SELECT e2.dst FROM r x, edge e2 WHERE e2.src = x.n) "
        "SELECT n FROM r",
        db,
    )
    components, _ = reduced_dependency_graph(graph)
    cyclic = next(c for c in components if len(c) > 1)
    return graph, cyclic


# -- the case table: one corruption recipe per diagnostic code ---------------
#
# Each case returns the AnalysisReport produced by analyzing a graph that
# exhibits exactly that defect; the shared test asserts the code fired with
# the registered severity and a box-bearing location (plus any extra
# expectations the case declares).

CASES = {}


def case(code, severity, **expect):
    def register(fn):
        assert code not in CASES, code
        CASES[code] = (severity, expect, fn)
        return fn

    return register


@case("QGM101", Severity.ERROR, box="Q")
def _bad_distinct(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.distinct = "BOGUS"
    return structural(graph)


@case("QGM102", Severity.ERROR, quantifier="e")
def _wrong_parent(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.quantifiers[0].parent_box = None
    return structural(graph)


@case("QGM103", Severity.ERROR, box="Q")
def _unreachable_input(db):
    # Unreachable through graph.boxes() means the traversal itself would
    # visit the box, so this check is driven through the public per-box
    # entry point with a restricted universe.
    graph = build("SELECT e.empno FROM emp e", db)
    box = graph.top_box
    report = AnalysisReport()
    StructuralPass().check_box(box, set(), set(box.quantifiers), report)
    return report


@case("QGM104", Severity.ERROR, quantifier="e")
def _bad_qtype(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.quantifiers[0].qtype = "BOGUS"
    return structural(graph)


@case("QGM105", Severity.ERROR, box="Q")
def _duplicate_names(db):
    graph = build(
        "SELECT e.empno FROM emp e, dept d WHERE e.workdept = d.deptno", db
    )
    graph.top_box.quantifiers[1].name = "e"
    return structural(graph)


@case("QGM106", Severity.ERROR)
def _base_with_quantifier(db):
    graph = build(
        "SELECT e.empno FROM emp e, dept d WHERE e.workdept = d.deptno", db
    )
    base_e = graph.top_box.quantifiers[0].input_box
    base_d = graph.top_box.quantifiers[1].input_box
    base_e.add_quantifier(
        Quantifier(name="zz", qtype=QuantifierType.FOREACH, input_box=base_d)
    )
    return structural(graph)


@case("QGM107", Severity.ERROR)
def _base_without_schema(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.quantifiers[0].input_box.schema = None
    return structural(graph)


GROUP_SQL = "SELECT e.workdept, AVG(e.salary) FROM emp e GROUP BY e.workdept"


@case("QGM108", Severity.ERROR)
def _groupby_two_inputs(db):
    graph = build(GROUP_SQL, db)
    box = groupby_box(graph)
    other = graph.top_box.quantifiers[0].input_box
    box.add_quantifier(
        Quantifier(name="zz", qtype=QuantifierType.FOREACH, input_box=other)
    )
    return structural(graph)


@case("QGM109", Severity.ERROR)
def _groupby_predicates(db):
    graph = build(GROUP_SQL, db)
    groupby_box(graph).predicates.append(qe.QLiteral(True))
    return structural(graph)


@case("QGM110", Severity.ERROR)
def _groupby_missing_expr(db):
    graph = build(GROUP_SQL, db)
    groupby_box(graph).columns[0].expr = None
    return structural(graph)


@case("QGM111", Severity.ERROR)
def _groupby_non_key_column(db):
    graph = build(GROUP_SQL, db)
    groupby_box(graph).columns[0].expr = qe.QLiteral(1)
    return structural(graph)


UNION_SQL = "SELECT e.empno FROM emp e UNION SELECT d.mgrno FROM dept d"


@case("QGM112", Severity.ERROR)
def _setop_predicates(db):
    graph = build(UNION_SQL, db)
    union_box(graph).predicates.append(qe.QLiteral(True))
    return structural(graph)


@case("QGM113", Severity.ERROR)
def _setop_no_inputs(db):
    graph = build(UNION_SQL, db)
    union_box(graph).quantifiers = []
    return structural(graph)


@case("QGM114", Severity.ERROR)
def _setop_existential_input(db):
    graph = build(UNION_SQL, db)
    union_box(graph).quantifiers[0].qtype = QuantifierType.EXISTENTIAL
    return structural(graph)


@case("QGM115", Severity.ERROR)
def _setop_arity_mismatch(db):
    graph = build(UNION_SQL, db)
    box = union_box(graph)
    box.quantifiers[1].input_box.columns.pop()
    report = structural(graph)
    # Satellite check: the offending *input* is named, not just the box.
    finding = report.by_code("QGM115")[0]
    assert finding.quantifier == box.quantifiers[1].name
    assert "mismatched arity" in finding.message
    return report


@case("QGM116", Severity.ERROR)
def _setop_column_with_expr(db):
    graph = build(UNION_SQL, db)
    union_box(graph).columns[0].expr = qe.QLiteral(1)
    return structural(graph)


OUTER_SQL = "SELECT e.empno, d.deptname FROM emp e LEFT JOIN dept d ON d.deptno = e.workdept"


def outerjoin_box(graph):
    return next(b for b in graph.boxes() if b.kind == BoxKind.OUTERJOIN)


@case("QGM117", Severity.ERROR)
def _outerjoin_one_input(db):
    graph = build(OUTER_SQL, db)
    outerjoin_box(graph).quantifiers.pop()
    return structural(graph)


@case("QGM118", Severity.ERROR)
def _outerjoin_existential(db):
    graph = build(OUTER_SQL, db)
    outerjoin_box(graph).quantifiers[1].qtype = QuantifierType.EXISTENTIAL
    return structural(graph)


@case("QGM119", Severity.ERROR)
def _outerjoin_missing_expr(db):
    graph = build(OUTER_SQL, db)
    outerjoin_box(graph).columns[0].expr = None
    return structural(graph)


@case("QGM120", Severity.ERROR, box="Q")
def _select_missing_expr(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.columns[0].expr = None
    return structural(graph)


@case("QGM121", Severity.ERROR, quantifier="zz")
def _dangling_quantifier(db):
    graph = build("SELECT e.empno FROM emp e", db)
    from repro.qgm.model import OutputColumn

    stray_base = Box(
        kind=BoxKind.BASE, name="STRAY", columns=[OutputColumn(name="x")]
    )
    stray = Quantifier(
        name="zz", qtype=QuantifierType.FOREACH, input_box=stray_base
    )
    graph.top_box.predicates.append(
        qe.QBinary(op="=", left=stray.ref("x"), right=qe.QLiteral(1))
    )
    return structural(graph)


@case("QGM122", Severity.ERROR, column="nosuch")
def _missing_column(db):
    graph = build("SELECT e.empno FROM emp e", db)
    quantifier = graph.top_box.quantifiers[0]
    graph.top_box.predicates.append(
        qe.QBinary(op="=", left=quantifier.ref("nosuch"), right=qe.QLiteral(1))
    )
    return structural(graph)


@case("QGM123", Severity.ERROR, box="Q")
def _aggregate_outside_groupby(db):
    graph = build("SELECT e.empno FROM emp e", db)
    quantifier = graph.top_box.quantifiers[0]
    graph.top_box.predicates.append(
        qe.QBinary(
            op=">",
            left=qe.QAggregate(func="SUM", arg=quantifier.ref("salary")),
            right=qe.QLiteral(1),
        )
    )
    return structural(graph)


@case("QGM199", Severity.ERROR, box="Q")
def _crash_guard(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.columns = None  # iterating this crashes the select check
    return structural(graph)


def typecheck(graph, db):
    return analyze_graph(graph, catalog=db.catalog, passes=[TypeCheckPass()])


@case("QGM201", Severity.ERROR, box="Q")
def _incompatible_comparison(db):
    graph = build("SELECT e.empno FROM emp e WHERE e.empname > 5", db)
    return typecheck(graph, db)


@case("QGM202", Severity.ERROR)
def _sum_over_string(db):
    graph = build(
        "SELECT e.workdept, SUM(e.empname) FROM emp e GROUP BY e.workdept", db
    )
    return typecheck(graph, db)


@case("QGM203", Severity.ERROR)
def _setop_type_mismatch(db):
    graph = build(
        "SELECT e.empno FROM emp e UNION SELECT d.deptno FROM dept d", db
    )
    return typecheck(graph, db)


@case("QGM204", Severity.ERROR, box="Q")
def _string_arithmetic(db):
    graph = build("SELECT e.empname + 1 FROM emp e", db)
    return typecheck(graph, db)


@case("QGM205", Severity.WARNING, box="Q")
def _numeric_like(db):
    graph = build("SELECT e.empno FROM emp e WHERE e.salary LIKE 'x%'", db)
    return typecheck(graph, db)


@case("QGM301", Severity.WARNING, box="DEAD")
def _magic_only_box(db):
    graph = build("SELECT e.empno FROM emp e", db)
    dead = Box(kind=BoxKind.SELECT, name="DEAD", columns=[])
    graph.top_box.linked_magic.append(dead)
    return analyze_graph(graph, catalog=db.catalog, passes=[DeadCodePass()])


@case("QGM302", Severity.INFO, box="V", column="b")
def _unused_output_column(db):
    connection = Connection(db)
    connection.run_script(
        "CREATE VIEW v (a, b) AS SELECT empno, empname FROM emp"
    )
    graph = build("SELECT x.a FROM v x", db)
    return analyze_graph(graph, catalog=db.catalog, passes=[DeadCodePass()])


def magic(graph, db):
    return analyze_graph(
        graph, catalog=db.catalog, passes=[MagicWellFormednessPass()]
    )


@case("QGM401", Severity.ERROR, box="Q")
def _adornment_arity(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.adornment = "bf"  # one output column
    return magic(graph, db)


@case("QGM402", Severity.ERROR, box="Q")
def _adornment_alphabet(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.adornment = "x"
    return magic(graph, db)


@case("QGM403", Severity.WARNING, box="Q")
def _magic_without_distinct(db):
    graph = build("SELECT e.empname FROM emp e", db)  # empname is no key
    graph.top_box.magic_role = MagicRole.MAGIC
    return magic(graph, db)


@case("QGM404", Severity.ERROR)
def _magic_into_nmq(db):
    graph = build(GROUP_SQL, db)
    groupby_box(graph).quantifiers[0].is_magic = True
    return magic(graph, db)


@case("QGM405", Severity.WARNING, box="Q")
def _unregistered_kind(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.kind = "MYSTERY"
    return magic(graph, db)


@case("QGM406", Severity.ERROR)
def _aggregate_in_recursion(db):
    graph, cyclic = recursive_graph(db)
    box = next(b for b in cyclic if b.kind == BoxKind.SELECT)
    box.kind = BoxKind.GROUPBY
    return magic(graph, db)


@case("QGM407", Severity.ERROR)
def _negation_in_recursion(db):
    graph, cyclic = recursive_graph(db)
    members = {id(b) for b in cyclic}
    box, quantifier = next(
        (b, q)
        for b in cyclic
        for q in b.quantifiers
        if id(q.input_box) in members
    )
    quantifier.qtype = QuantifierType.ANTI
    return magic(graph, db)


def dataflow(graph, db):
    return analyze_graph(graph, catalog=db.catalog, passes=[DataflowPass()])


@case("QGM501", Severity.WARNING, box="Q", column="empno")
def _unjustified_adornment(db):
    # Claims empno is bound, but nothing restricts it: no magic link, no
    # consumer predicate, no binding-propagation path.
    graph = build("SELECT e.empno, e.empname FROM emp e", db)
    graph.top_box.adornment = "bf"
    return dataflow(graph, db)


@case("QGM502", Severity.INFO, box="Q")
def _redundant_distinct(db):
    # empno is the primary key, so the output is duplicate-free without
    # the enforcement.
    graph = build("SELECT DISTINCT e.empno, e.empname FROM emp e", db)
    return dataflow(graph, db)


@case("QGM503", Severity.WARNING, box="Q", column="empno")
def _always_null_column(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.columns[0].expr = qe.QLiteral(None)
    return dataflow(graph, db)


def fk_db():
    """Parent/child tables with a NOT NULL foreign key — the shape the
    chase-based equivalence pass reasons about."""
    db = Database()
    db.create_table(
        "parent",
        [ColumnDef("pid", "INT"), ColumnDef("payload", "STR")],
        primary_key=["pid"],
        rows=[(1, "a"), (2, "b")],
    )
    db.create_table(
        "child",
        [
            ColumnDef("cid", "INT"),
            ColumnDef("pid", "INT", not_null=True),
            ColumnDef("val", "INT"),
        ],
        primary_key=["cid"],
        foreign_keys=[(["pid"], "parent", None)],
        rows=[(10, 1, 100), (11, 2, 200)],
    )
    return db


def equivalence(graph, db):
    from repro.analysis.equivalence_checks import EquivalencePass

    return analyze_graph(graph, catalog=db.catalog, passes=[EquivalencePass()])


@case("QGM601", Severity.ERROR, box="Q", rule="evil")
def _chase_refuted_firing(db):
    from repro.qgm.clone import clone_graph

    graph = build("SELECT e.empno FROM emp e WHERE e.salary = 100", db)
    before = clone_graph(graph)
    checker = SoundnessChecker(graph)
    graph.top_box.predicates = []  # an unsound "rewrite": drop the filter
    with pytest.raises(QgmError):
        checker.after_firing(graph, "evil", before=before)
    report = AnalysisReport()
    report.extend(checker.attributed["evil"])
    return report


@case("QGM602", Severity.WARNING, box="Q", quantifier="p")
def _semantically_redundant_join(db):
    db = fk_db()
    graph = build(
        "SELECT c.val FROM child c, parent p WHERE c.pid = p.pid", db
    )
    return equivalence(graph, db)


@case("QGM603", Severity.INFO, box="Q")
def _implied_equality(db):
    # e.empno = e2.empno pins one emp row (empno is the key), so the
    # second equality is implied by the FD empno -> empname.
    graph = build(
        "SELECT e.empno FROM emp e, emp e2 "
        "WHERE e.empno = e2.empno AND e.empname = e2.empname",
        db,
    )
    return equivalence(graph, db)


@case("QGM604", Severity.WARNING, box="Q")
def _contradictory_predicates(db):
    graph = build(
        "SELECT e.empno FROM emp e WHERE e.salary > 100 AND e.salary < 50",
        db,
    )
    return Analyzer([DeadCodePass()]).analyze(graph)


@case("QGM605", Severity.INFO, box="Q")
def _implied_comparison(db):
    # salary >= 200 subsumes salary > 100: the weaker bound is redundant.
    graph = build(
        "SELECT e.empno FROM emp e "
        "WHERE e.salary > 100 AND e.salary >= 200",
        db,
    )
    return equivalence(graph, db)


def test_every_registered_code_has_a_case():
    assert set(CASES) == set(CODES)


@pytest.mark.parametrize("code", sorted(CASES))
def test_diagnostic_case(code, typed_db):
    severity, expect, builder = CASES[code]
    report = builder(typed_db)
    findings = report.by_code(code)
    assert findings, "expected %s, got %s" % (code, report.codes())
    finding = findings[0]
    assert finding.severity == severity
    assert finding.box is not None
    assert finding.location.startswith("box ")
    assert finding.render().startswith("%s %s [box " % (severity, code))
    for attribute, value in expect.items():
        assert getattr(finding, attribute) == value


# -- framework behaviour ------------------------------------------------------


def test_clean_graph_produces_empty_report(typed_db):
    graph = build(
        "SELECT e.empno, d.deptname FROM emp e, dept d "
        "WHERE e.workdept = d.deptno AND e.salary > 100",
        typed_db,
    )
    report = analyze_graph(graph, catalog=typed_db.catalog)
    assert not report.has_errors
    assert report.summary().startswith("0 error(s)")
    assert set(report.pass_seconds) == {
        "structural", "typecheck", "deadcode", "magic", "dataflow",
        "equivalence",
    }


def test_one_run_collects_multiple_distinct_codes(typed_db):
    graph = build("SELECT e.empno FROM emp e WHERE e.empname > 5", typed_db)
    graph.top_box.distinct = "BOGUS"
    report = analyze_graph(graph, catalog=typed_db.catalog)
    assert {"QGM101", "QGM201"} <= set(report.codes())
    ranks = [Severity.rank(d.severity) for d in report.sorted()]
    assert ranks == sorted(ranks)


def test_emit_rejects_unregistered_codes():
    with pytest.raises(ValueError):
        StructuralPass().emit(
            AnalysisReport(), "QGM999", Severity.ERROR, "nope"
        )


def test_validate_graph_wrapper_raises_with_code(typed_db):
    graph = build("SELECT e.empno FROM emp e", typed_db)
    assert validate_graph(graph)
    graph.top_box.distinct = "BOGUS"
    with pytest.raises(QgmError) as excinfo:
        validate_graph(graph)
    assert excinfo.value.context["code"] == "QGM101"
    assert "box" in excinfo.value.context["location"]


def test_untyped_schema_stays_silent():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, "x")])
    graph = build("SELECT t.a FROM t t WHERE t.b > 5", db)
    report = analyze_graph(graph, catalog=db.catalog, passes=[TypeCheckPass()])
    assert not report.diagnostics


def test_docs_table_matches_registry():
    import os

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "docs",
        "diagnostics.md",
    )
    with open(path) as handle:
        text = handle.read()
    documented = set(re.findall(r"^\| (QGM\d{3}) \|", text, flags=re.M))
    assert documented == set(CODES)


# -- soundness checker --------------------------------------------------------


def test_soundness_checker_attributes_new_error(typed_db):
    graph = build("SELECT e.empno FROM emp e", typed_db)
    checker = SoundnessChecker(graph)
    context = RuleContext(graph)
    graph.top_box.quantifiers[0].parent_box = None
    with pytest.raises(QgmError) as excinfo:
        checker.after_firing(graph, "merge", context)
    assert excinfo.value.context["rule"] == "merge"
    assert "QGM102" in excinfo.value.context["codes"]
    assert context.soundness_violations == {"merge": ["QGM102"]}
    assert context.observability()["soundness_violations"] == {
        "merge": ["QGM102"]
    }
    assert checker.attributed["merge"][0].rule == "merge"


def test_soundness_checker_ignores_preexisting_problems(typed_db):
    graph = build("SELECT e.empno FROM emp e", typed_db)
    graph.top_box.quantifiers[0].parent_box = None  # broken *before* baseline
    checker = SoundnessChecker(graph)
    assert checker.after_firing(graph, "merge", RuleContext(graph)) == []
    assert checker.attributed == {}


def test_soundness_checker_absorbs_new_warnings(typed_db):
    graph = build("SELECT e.empname FROM emp e", typed_db)
    checker = SoundnessChecker(graph)
    graph.top_box.magic_role = MagicRole.MAGIC  # introduces QGM403 (warning)
    fresh = checker.after_firing(graph, "distinct_pullup", RuleContext(graph))
    assert [d.code for d in fresh] == ["QGM403"]
    assert fresh[0].rule == "distinct_pullup"
    # Absorbed into the baseline: the next diff is clean.
    assert checker.after_firing(graph, "merge", RuleContext(graph)) == []


def test_soundness_passes_exclude_deadcode_and_types():
    names = {p.name for p in soundness_passes()}
    assert names == {"structural", "magic", "dataflow", "equivalence"}
    shallow = next(p for p in soundness_passes() if p.name == "equivalence")
    assert shallow.deep is False


# -- end-to-end: paranoid mode attributes chaos corruption to its rule --------


@pytest.fixture
def paper_conn():
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    connection = Connection(
        build_empdept_database(
            n_departments=10, employees_per_department=4, seed=11
        )
    )
    connection.run_script(PAPER_VIEWS_SQL)
    return connection


PAPER_SQL = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"
)


def test_corrupting_rule_is_attributed_in_outcome_stats(paper_conn):
    from tests.helpers import canonical

    clean = canonical(
        paper_conn.explain_execute(PAPER_SQL, strategy="original").rows
    )
    policy = ResiliencePolicy(
        fault_plan=FaultPlan().corrupt_rule("merge", on_firing=1),
        paranoid=True,
    )
    outcome = paper_conn.explain_execute(
        PAPER_SQL, strategy="emst", resilience=policy
    )
    assert canonical(outcome.rows) == clean
    assert "merge" in outcome.resilience.quarantined
    violations = outcome.stats["soundness_violations"]
    assert violations["merge"], violations
    assert all(code in CODES for code in violations["merge"])


def test_analyze_graph_reports_on_the_executed_graph(paper_conn):
    outcome = paper_conn.explain_execute(PAPER_SQL, strategy="emst")
    report = analyze_graph(outcome.graph, catalog=paper_conn.database.catalog)
    assert isinstance(report, AnalysisReport)
    assert not report.has_errors
    assert report.counts()["error"] == 0


# -- the lint CLI -------------------------------------------------------------


BROKEN_SQL = """
CREATE TABLE people (id INT, name VARCHAR, height FLOAT);
SELECT p.name FROM people p WHERE p.name > 5 AND p.height LIKE 'x%';
SELECT p.name + 1 FROM people p;
"""

CLEAN_SQL = """
CREATE TABLE people (id INT, name VARCHAR, height FLOAT);
SELECT p.name FROM people p WHERE p.id > 5;
"""


def test_lint_cli_broken_file_reports_codes_and_exits_1(tmp_path, capsys):
    from repro.analysis import lint

    path = tmp_path / "broken.sql"
    path.write_text(BROKEN_SQL)
    status = lint.main([str(path)])
    output = capsys.readouterr().out
    assert status == 1
    fired = set(re.findall(r"QGM\d{3}", output))
    assert {"QGM201", "QGM204"} <= fired
    assert len(fired) >= 2
    assert "[box " in output  # diagnostics carry box locations


def test_lint_cli_clean_file_exits_0(tmp_path, capsys):
    from repro.analysis import lint

    path = tmp_path / "clean.sql"
    path.write_text(CLEAN_SQL)
    status = lint.main([str(path)])
    output = capsys.readouterr().out
    assert status == 0
    assert "0 error(s)" in output


def test_lint_cli_strict_promotes_warnings(tmp_path, capsys):
    from repro.analysis import lint

    path = tmp_path / "warn.sql"
    path.write_text(
        "CREATE TABLE t (a INT);"
        "SELECT t.a FROM t t WHERE t.a LIKE 'x%'"  # QGM205, warning only
    )
    assert lint.main([str(path)]) == 0
    capsys.readouterr()
    assert lint.main(["--strict", str(path)]) == 1


def test_lint_cli_unreadable_file_exits_2(tmp_path, capsys):
    from repro.analysis import lint

    assert lint.main([str(tmp_path / "missing.sql")]) == 2


def test_shipped_workloads_lint_clean():
    from repro.analysis.lint import lint_workloads

    results = lint_workloads(scale=0.02, rewritten=True)
    assert len(results) >= 18  # A-H + empdept, built and rewritten
    for label, report in results:
        assert not report.has_errors, "%s: %s" % (label, report.render())
        assert not report.warnings, "%s: %s" % (label, report.render())
