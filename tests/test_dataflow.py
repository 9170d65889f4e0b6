"""The interbox dataflow engine: fixpoint solving, the three analyses
(keys, nullability, bindings), the key fixpoint's one-box entry points,
the optimizer/magic consumers of the facts, and the end-to-end
acceptance on recursive magic workloads."""

import pytest

from repro import Connection, Database
from repro.analysis.bindflow import solve_bindings
from repro.catalog import ColumnDef
from repro.engine import Evaluator
from repro.optimizer import CardinalityEstimator
from repro.optimizer.heuristic import optimize_with_heuristic
from repro.qgm import BoxKind, build_query_graph
from repro.qgm import expr as qe
from repro.qgm.facts.keyflow import is_duplicate_free, solve_box_keys, solve_keys
from repro.qgm.facts.nullflow import solve_nullability
from repro.qgm.model import (
    Box,
    DistinctMode,
    MagicRole,
    OutputColumn,
)
from repro.sql import parse_script, parse_statement

from tests.helpers import canonical


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "emp",
        [
            ColumnDef("empno", "INT", not_null=True),
            ColumnDef("empname", "STR"),
            ColumnDef("workdept", "STR", not_null=True),
            ColumnDef("salary", "INT"),
        ],
        primary_key=["empno"],
        rows=[
            (1, "a", "D1", 100),
            (2, None, "D1", None),
            (3, "c", "D2", 300),
        ],
    )
    database.create_table(
        "dept",
        [
            ColumnDef("deptno", "STR", not_null=True),
            ColumnDef("deptname", "STR"),
        ],
        primary_key=["deptno"],
        rows=[("D1", "Planning"), ("D2", None)],
    )
    database.create_table(
        "edge",
        ["src", "dst"],
        rows=[(1, 2), (2, 3), (3, 4)],
    )
    return database


def build(sql, db):
    return build_query_graph(parse_statement(sql), db.catalog)


# ---------------------------------------------------------------------------
# Key analysis
# ---------------------------------------------------------------------------


def test_primary_key_survives_select(db):
    graph = build("SELECT e.empno, e.empname FROM emp e", db)
    assert frozenset({"empno"}) in solve_box_keys(graph.top_box)


def test_zero_foreach_select_yields_at_most_one_row():
    seed = Box(
        kind=BoxKind.SELECT,
        name="SEED",
        columns=[OutputColumn(name="c", expr=qe.QLiteral(5))],
    )
    assert solve_box_keys(seed) == [frozenset()]
    assert is_duplicate_free(seed)


def test_intersect_inherits_keys_of_either_input(db):
    # Left branch (empname) carries no key; the right branch's primary key
    # still makes the intersection duplicate-free positionally.
    graph = build(
        "SELECT e.empname FROM emp e "
        "INTERSECT SELECT d.deptno FROM dept d",
        db,
    )
    intersect = next(
        b for b in graph.boxes() if b.kind == BoxKind.INTERSECT
    )
    own = intersect.columns[0].name.lower()
    assert frozenset({own}) in solve_box_keys(intersect)


def test_mutually_determined_quantifiers_claim_no_key():
    # s1 and s2 determine each other; at most one may be eliminated, so
    # the box must NOT inherit t's key (each t row appears once per s row).
    db = Database()
    db.create_table("s", ["a"], primary_key=["a"], rows=[(1,), (2,)])
    db.create_table("t", ["x"], primary_key=["x"], rows=[(7,)])
    graph = build(
        "SELECT t.x FROM s s1, s s2, t t WHERE s1.a = s2.a", db
    )
    keys = solve_box_keys(graph.top_box)
    assert frozenset({"x"}) not in keys
    # And empirically: x really does repeat in the output.
    rows = Evaluator(graph, db).run().rows
    assert sorted(rows) == [(7,), (7,)]


def test_determined_quantifier_with_free_support_is_eliminated():
    db = Database()
    db.create_table("s", ["a"], primary_key=["a"], rows=[(1,), (2,)])
    db.create_table("t", ["x"], primary_key=["x"], rows=[(1,), (5,)])
    graph = build("SELECT t.x FROM s s, t t WHERE s.a = t.x", db)
    assert frozenset({"x"}) in solve_box_keys(graph.top_box)


def test_keys_derive_through_recursive_cycle(db):
    # The historical derivation bailed out on any cyclic box; the fixpoint
    # still produces facts for every member of the recursive component.
    graph = build_query_graph(
        parse_script(
            "WITH RECURSIVE reach (n) AS ("
            "  SELECT dst FROM edge WHERE src = 1 "
            "  UNION "
            "  SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
            "SELECT n FROM reach"
        ).queries[0],
        db.catalog,
    )
    facts = solve_keys(graph.top_box)
    boxes = graph.boxes()
    assert all(id(box) in facts for box in boxes)
    union = next(b for b in boxes if b.kind == BoxKind.UNION)
    # UNION (distinct) enforces: the full column set is a key, and the
    # single-column select above it inherits it.
    assert frozenset({"n"}) in solve_box_keys(union)
    assert frozenset({"n"}) in solve_box_keys(graph.top_box)
    assert is_duplicate_free(union)


def test_ignore_enforce_separates_structural_from_enforced(db):
    graph = build("SELECT DISTINCT e.empname FROM emp e", db)
    assert solve_box_keys(graph.top_box)  # the enforcement is a key
    assert not solve_box_keys(graph.top_box, ignore_enforce=True)
    graph = build("SELECT DISTINCT e.empno FROM emp e", db)
    assert solve_box_keys(graph.top_box, ignore_enforce=True)  # PK: structural


# ---------------------------------------------------------------------------
# Nullability analysis
# ---------------------------------------------------------------------------


def top_nullfact(graph):
    return solve_nullability(graph.top_box)[id(graph.top_box)]


def test_declared_not_null_propagates(db):
    graph = build("SELECT e.empno, e.empname, e.workdept FROM emp e", db)
    fact = top_nullfact(graph)
    assert {"empno", "workdept"} <= set(fact.notnull)
    assert "empname" not in fact.notnull


def test_comparison_rejects_nulls(db):
    graph = build("SELECT e.salary FROM emp e WHERE e.salary > 50", db)
    assert "salary" in top_nullfact(graph).notnull
    # Under a mask (IS NULL) the reference does not reject NULLs.
    graph = build("SELECT e.salary FROM emp e WHERE e.salary IS NULL", db)
    assert "salary" not in top_nullfact(graph).notnull


def test_null_literal_is_allnull(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.columns[0].expr = qe.QLiteral(None)
    fact = top_nullfact(graph)
    assert "empno" in fact.allnull


def test_outerjoin_masks_null_extended_side(db):
    graph = build(
        "SELECT d.deptno, e.workdept FROM dept d "
        "LEFT OUTER JOIN emp e ON e.workdept = d.deptno",
        db,
    )
    fact = top_nullfact(graph)
    assert "deptno" in fact.notnull  # preserved side keeps its proof
    assert "workdept" not in fact.notnull  # null-extended side loses it


def test_count_is_not_null_sum_needs_groups(db):
    graph = build(
        "SELECT e.workdept, COUNT(*), SUM(e.empno) FROM emp e "
        "GROUP BY e.workdept",
        db,
    )
    groupby = next(b for b in graph.boxes() if b.kind == BoxKind.GROUPBY)
    fact = solve_nullability(graph.top_box)[id(groupby)]
    names = [c.name.lower() for c in groupby.columns]
    assert names[0] in fact.notnull  # group key over NOT NULL column
    assert names[1] in fact.notnull  # COUNT never returns NULL
    assert names[2] in fact.notnull  # SUM over NOT NULL arg, grouped
    # Global aggregation: SUM may be NULL on an empty input.
    graph = build("SELECT SUM(e.empno) FROM emp e", db)
    groupby = next(b for b in graph.boxes() if b.kind == BoxKind.GROUPBY)
    fact = solve_nullability(graph.top_box)[id(groupby)]
    assert groupby.columns[0].name.lower() not in fact.notnull


def test_union_intersects_branch_proofs(db):
    graph = build(
        "SELECT e.empno FROM emp e UNION SELECT e2.salary FROM emp e2", db
    )
    union = next(b for b in graph.boxes() if b.kind == BoxKind.UNION)
    fact = solve_nullability(graph.top_box)[id(union)]
    # empno is NOT NULL but salary is nullable: the union column is not
    # provably NOT NULL.
    assert union.columns[0].name.lower() not in fact.notnull


# ---------------------------------------------------------------------------
# Binding analysis
# ---------------------------------------------------------------------------


def test_magic_box_columns_are_bound(db):
    graph = build("SELECT e.workdept FROM emp e", db)
    graph.top_box.magic_role = MagicRole.MAGIC
    fact = solve_bindings(graph.top_box)[id(graph.top_box)]
    assert fact == frozenset({"workdept"})


def test_equality_to_magic_column_grounds_output(db):
    graph = build(
        "SELECT e.empno, e.workdept, e.empname FROM emp e, dept d "
        "WHERE e.workdept = d.deptno",
        db,
    )
    top = graph.top_box
    dept_quantifier = next(
        q for q in top.quantifiers if q.input_box.name.lower() == "dept"
    )
    dept_quantifier.is_magic = True
    fact = solve_bindings(top)[id(top)]
    assert "workdept" in fact  # equated to a magic column
    assert "empno" not in fact
    assert "empname" not in fact


def test_constants_are_trivially_bound(db):
    graph = build("SELECT e.empno FROM emp e", db)
    graph.top_box.columns[0].expr = qe.QLiteral(42)
    fact = solve_bindings(graph.top_box)[id(graph.top_box)]
    assert "empno" in fact


def test_adornments_on_rewritten_workloads_all_justified():
    # The acceptance bar: every adornment adorn.py produced on the stock
    # workloads verifies clean under the binding audit.
    from repro.analysis.lint import lint_workloads

    results = lint_workloads(scale=0.02, rewritten=True)
    assert results
    for label, report in results:
        unjustified = report.by_code("QGM501")
        assert not unjustified, "%s: %s" % (
            label,
            [d.render() for d in unjustified],
        )


# ---------------------------------------------------------------------------
# Consumers: cardinality estimator
# ---------------------------------------------------------------------------


def test_estimator_pins_key_column_distinct_to_rows(db):
    graph = build("SELECT e.empno, e.empname FROM emp e", db)
    estimator = CardinalityEstimator(db.catalog)
    top = graph.top_box
    rows = estimator.rows(top)
    assert estimator.column(top, "empno").distinct == pytest.approx(rows)


def test_estimator_decides_is_null_over_not_null_column(db):
    estimator = CardinalityEstimator(db.catalog)
    graph = build("SELECT e.empno FROM emp e WHERE e.workdept IS NULL", db)
    predicate = graph.top_box.predicates[0]
    assert estimator.selectivity(predicate) == 0.0
    graph = build(
        "SELECT e.empno FROM emp e WHERE e.workdept IS NOT NULL", db
    )
    predicate = graph.top_box.predicates[0]
    assert estimator.selectivity(predicate) == 1.0
    # Nullable column: still the guess, not a decision.
    graph = build("SELECT e.empno FROM emp e WHERE e.empname IS NULL", db)
    assert estimator.selectivity(graph.top_box.predicates[0]) == 0.1


def test_estimator_skips_shrink_for_redundant_enforcement(db):
    estimator = CardinalityEstimator(db.catalog)
    keyed = build("SELECT DISTINCT e.empno FROM emp e", db)
    unkeyed = build("SELECT DISTINCT e.empname FROM emp e", db)
    assert estimator.rows(keyed.top_box) == pytest.approx(3.0)
    assert estimator.rows(unkeyed.top_box) == pytest.approx(3.0 * 0.9)


# ---------------------------------------------------------------------------
# Consumers: magic relaxation sweep
# ---------------------------------------------------------------------------


def test_relax_sweep_drops_provable_enforcement_only(db):
    from repro.magic.magic_boxes import relax_proven_duplicate_free

    graph = build("SELECT e.empno, e.empname FROM emp e", db)
    provable = graph.top_box
    provable.magic_role = MagicRole.MAGIC
    provable.distinct = DistinctMode.ENFORCE

    unprovable = build("SELECT e.empname FROM emp e", db)
    unprovable.top_box.magic_role = MagicRole.MAGIC
    unprovable.top_box.distinct = DistinctMode.ENFORCE
    regular = build("SELECT e.empname FROM emp e", db)
    regular.top_box.distinct = DistinctMode.ENFORCE

    relaxed = relax_proven_duplicate_free(graph)
    assert relaxed == [provable]
    assert provable.distinct == DistinctMode.PERMIT

    assert relax_proven_duplicate_free(unprovable) == []
    assert unprovable.top_box.distinct == DistinctMode.ENFORCE
    # Regular boxes are the distinct-pullup rule's business, not the
    # magic sweep's.
    assert relax_proven_duplicate_free(regular) == []
    assert regular.top_box.distinct == DistinctMode.ENFORCE


# ---------------------------------------------------------------------------
# Acceptance: recursive magic workloads shed proven-redundant DISTINCT
# ---------------------------------------------------------------------------


CLOSURE_BOUND = (
    "WITH RECURSIVE path (src, dst) AS ("
    "  SELECT src, dst FROM edge "
    "  UNION "
    "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst) "
    "SELECT dst FROM path WHERE src = 0 ORDER BY dst"
)


def _chain_db(n_chains=10, depth=5):
    rows = []
    for chain in range(n_chains):
        base = chain * (depth + 1)
        for hop in range(depth):
            rows.append((base + hop, base + hop + 1))
    database = Database()
    database.create_table("edge", ["src", "dst"], rows=rows)
    return database


def test_recursive_magic_sheds_proven_distinct_with_identical_rows():
    database = _chain_db()
    statement = parse_script(CLOSURE_BOUND).queries[0]

    baseline_graph = build_query_graph(statement, database.catalog)
    baseline_rows = Evaluator(baseline_graph, database).run().rows

    graph = build_query_graph(statement, database.catalog)
    result = optimize_with_heuristic(graph, database.catalog)
    assert result.used_emst

    permitted = [
        box
        for box in result.graph.boxes()
        if box.magic_role != MagicRole.REGULAR
        and box.distinct == DistinctMode.PERMIT
    ]
    # At least one magic-side box shed its DISTINCT thanks to the
    # duplicate-freeness proof (the historical prover bailed out here
    # because the magic boxes sit on a recursive cycle).
    assert permitted, [
        (b.name, b.magic_role, b.distinct) for b in result.graph.boxes()
    ]

    rows = Evaluator(
        result.graph, database, join_orders=result.join_orders
    ).run().rows
    assert canonical(rows) == canonical(baseline_rows)


def test_recursive_magic_agrees_through_connection():
    database = _chain_db()
    connection = Connection(database)
    reference = canonical(
        connection.explain_execute(CLOSURE_BOUND, strategy="original").rows
    )
    outcome = connection.explain_execute(CLOSURE_BOUND, strategy="emst")
    assert canonical(outcome.rows) == reference
