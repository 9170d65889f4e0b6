"""Clone machinery: the structural whole-graph copy (``clone_graph``),
``clone_box`` options (deep_derived, keep_linked_magic, selector predicate
carrying), and supplementary-box construction mechanics."""

import pytest

from repro import Connection, Database
from repro.sql import parse_statement
from repro.qgm import BoxKind, build_query_graph, render_text, validate_graph
from repro.qgm import expr as qe
from repro.qgm.clone import clone_box, clone_graph, restore_graph


def view_graph():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 2)])
    db.catalog.add_view(
        parse_statement(
            "CREATE VIEW v (a, n) AS SELECT a, COUNT(*) FROM t GROUP BY a"
        )
    )
    graph = build_query_graph(
        parse_statement("SELECT v1.n FROM v v1 WHERE v1.a = 1"), db.catalog
    )
    return db, graph


def test_shallow_clone_shares_derived_children():
    db, graph = view_graph()
    view_box = graph.top_box.quantifiers[0].input_box  # the HAVING box
    copy, _ = clone_box(graph, view_box)
    assert copy.quantifiers[0].input_box is view_box.quantifiers[0].input_box


def test_deep_derived_clone_copies_whole_chain():
    db, graph = view_graph()
    view_box = graph.top_box.quantifiers[0].input_box
    copy, _ = clone_box(graph, view_box, deep_derived=True)
    original_groupby = view_box.quantifiers[0].input_box
    copied_groupby = copy.quantifiers[0].input_box
    assert copied_groupby is not original_groupby
    assert copied_groupby.kind == BoxKind.GROUPBY
    # Base tables stay shared even in deep clones.
    original_t1 = original_groupby.quantifiers[0].input_box
    copied_t1 = copied_groupby.quantifiers[0].input_box
    assert copied_t1 is not original_t1
    assert (
        copied_t1.quantifiers[0].input_box
        is original_t1.quantifiers[0].input_box
    )


def test_clone_names_are_fresh_quantifiers():
    db, graph = view_graph()
    view_box = graph.top_box.quantifiers[0].input_box
    copy, quantifier_map = clone_box(graph, view_box, deep_derived=True)
    original_names = {q.name for q in view_box.quantifiers}
    copied_names = {q.name for q in copy.quantifiers}
    assert not (original_names & copied_names)
    assert all(old is not new for old, new in quantifier_map.items())


def test_clone_keeps_linked_magic_when_asked():
    db, graph = view_graph()
    view_box = graph.top_box.quantifiers[0].input_box
    marker = graph.new_box(BoxKind.SELECT, "MARKER")
    view_box.linked_magic.append(marker)
    with_links, _ = clone_box(graph, view_box, keep_linked_magic=True)
    without_links, _ = clone_box(graph, view_box)
    assert marker in with_links.linked_magic
    assert not without_links.linked_magic


def test_clone_carries_selector_predicates():
    from repro.qgm import expr as qe

    db = Database()
    db.create_table("t", ["g", "v"], rows=[(1, 5)])
    graph = build_query_graph(
        parse_statement(
            "SELECT g FROM t o WHERE v > (SELECT AVG(v) FROM t i WHERE i.g = o.g)"
        ),
        db.catalog,
    )
    from repro.optimizer.heuristic import optimize_with_heuristic

    # Decorrelate (sets selector predicates), then clone the top box of
    # the chosen graph: the selectors must survive.
    result = optimize_with_heuristic(graph, db.catalog)
    chosen = result.graph
    scalars = [
        q
        for box in chosen.boxes()
        for q in box.quantifiers
        if q.qtype == "S" and q.selector_predicates
    ]
    if scalars:  # EMST may be rejected on a 1-row table; only check if not
        top = chosen.top_box
        copy, quantifier_map = clone_box(chosen, top)
        copied_scalars = [
            q for q in copy.quantifiers if q.qtype == "S"
        ]
        assert copied_scalars
        assert copied_scalars[0].selector_predicates
        for predicate in copied_scalars[0].selector_predicates:
            for ref in qe.column_refs(predicate):
                assert ref.quantifier not in top.quantifiers


def test_supplementary_box_outputs_only_referenced_columns():
    from repro.magic.magic_boxes import build_supplementary_box
    from repro.rewrite.rule import RuleContext

    db = Database()
    db.create_table(
        "wide", ["a", "b", "c", "d"], rows=[(1, 2, 3, 4)]
    )
    db.create_table("s", ["a"], rows=[(1,)])
    graph = build_query_graph(
        parse_statement(
            "SELECT w.b FROM wide w, s WHERE w.a = s.a AND w.c = 3"
        ),
        db.catalog,
    )
    box = graph.top_box
    prefix = [box.quantifier("w")]
    context = RuleContext(graph, phase=2)
    over = build_supplementary_box(graph, box, prefix, context)
    supplementary = over.input_box
    validate_graph(graph)
    names = {c.name.lower() for c in supplementary.columns}
    # b (output), a (join pred) are referenced; c's predicate moved inside;
    # d is referenced nowhere and must not be exposed.
    assert "d" not in names
    assert {"a", "b"} <= names
    # The moved local predicate lives in the supplementary box now.
    assert any("c" in str(p) for p in supplementary.predicates)


# -- clone_graph: the structural snapshot ----------------------------------------


@pytest.fixture
def phase2_graph():
    """A query over the paper's views after rewrite phase 2: an adorned
    copy in the cache, magic links on NMQ (groupby) boxes, a correlated
    scalar subquery."""
    from repro.optimizer.plan import optimize_graph
    from repro.rewrite.engine import RewriteEngine, default_rules
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    from tests.test_integration_suite import EMP_QUERIES

    db = build_empdept_database(n_departments=6, employees_per_department=4)
    Connection(db).run_script(PAPER_VIEWS_SQL)
    graph = build_query_graph(parse_statement(EMP_QUERIES[5]), db.catalog)
    engine = RewriteEngine(default_rules(include_emst=True))
    context = engine.run_phase(graph, 1)
    plan = optimize_graph(graph, db.catalog)
    engine.run_phase(graph, 2, join_orders=plan.join_orders, context=context)
    assert graph.adorned_copies
    assert any(box.linked_magic for box in graph.boxes())
    return graph


def _all_boxes(graph):
    boxes = {id(box): box for box in graph.boxes()}
    for box in list(graph._base_boxes.values()) + list(graph.adorned_copies.values()):
        boxes.setdefault(id(box), box)
    return list(boxes.values())


def _objects(graph):
    """ids of every Box, Quantifier and QColRef the graph holds."""
    ids = set()
    for box in _all_boxes(graph):
        ids.add(id(box))
        for quantifier in box.quantifiers:
            ids.add(id(quantifier))
        for expression in box.all_expressions():
            ids.update(id(ref) for ref in qe.column_refs(expression))
    return ids


def test_clone_graph_shares_no_box_quantifier_or_column_ref(phase2_graph):
    copy = clone_graph(phase2_graph)
    assert not _objects(phase2_graph) & _objects(copy)
    # ... and every reference of the copy points into the copy.
    copied_quantifiers = {
        id(q) for box in _all_boxes(copy) for q in box.quantifiers
    }
    for box in _all_boxes(copy):
        for expression in box.all_expressions():
            for ref in qe.column_refs(expression):
                assert id(ref.quantifier) in copied_quantifiers


def test_clone_graph_shares_catalog_and_schemas(phase2_graph):
    copy = clone_graph(phase2_graph)
    assert copy.catalog is phase2_graph.catalog
    originals = {box.box_id: box for box in _all_boxes(phase2_graph)}
    base_boxes = [box for box in _all_boxes(copy) if box.kind == BoxKind.BASE]
    assert base_boxes
    for box in base_boxes:
        assert box.schema is not None
        assert box.schema is originals[box.box_id].schema


def test_clone_graph_renders_identically_with_the_same_box_ids(phase2_graph):
    copy = clone_graph(phase2_graph)
    assert render_text(copy) == render_text(phase2_graph)
    assert [b.box_id for b in copy.boxes()] == [
        b.box_id for b in phase2_graph.boxes()
    ]
    validate_graph(copy)


def test_clone_graph_remaps_the_bookkeeping_maps(phase2_graph):
    copy = clone_graph(phase2_graph)
    original = {id(box) for box in _all_boxes(phase2_graph)}
    original_reachable = {id(box) for box in phase2_graph.boxes()}
    copy_reachable = {id(box) for box in copy.boxes()}
    for name in ("adorned_copies", "_base_boxes"):
        originals, copies = getattr(phase2_graph, name), getattr(copy, name)
        assert list(copies) == list(originals)
        for key, box in copies.items():
            assert id(box) not in original
            assert box.box_id == originals[key].box_id
            # A map entry the graph uses is the very box the copy uses.
            assert (id(box) in copy_reachable) == (
                id(originals[key]) in original_reachable
            )


def test_mutating_the_clone_leaves_the_original_alone(phase2_graph):
    before = render_text(phase2_graph)
    copy = clone_graph(phase2_graph)
    for box in copy.boxes():
        box.predicates.clear()
        box.linked_magic.clear()
        box.name += "_x"
        for quantifier in box.quantifiers:
            quantifier.name += "_x"
        if box.columns:
            box.columns[0].name = "mutated"
    copy.top_box.quantifiers.pop()
    copy.adorned_copies.clear()
    assert render_text(phase2_graph) == before
    assert phase2_graph.adorned_copies
    validate_graph(phase2_graph)


def test_restore_graph_round_trips_a_clone(phase2_graph):
    from repro.optimizer.plan import optimize_graph

    before = render_text(phase2_graph)
    cost = optimize_graph(phase2_graph).total_cost
    restore_graph(phase2_graph, clone_graph(phase2_graph))
    assert render_text(phase2_graph) == before
    assert optimize_graph(phase2_graph).total_cost == cost
    validate_graph(phase2_graph)
