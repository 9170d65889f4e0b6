"""The §3.2 heuristic module: phase control, snapshot fallback, the
exhaustive strawman."""

import pytest

from repro import Connection, Database
from repro.sql import parse_statement
from repro.qgm import build_query_graph, validate_graph
from repro.engine import Evaluator
from repro.optimizer.heuristic import (
    optimize_exhaustive_emst,
    optimize_with_heuristic,
)

from tests.helpers import canonical


@pytest.fixture
def chain_db():
    db = Database()
    db.create_table(
        "a", ["id", "fk"], primary_key=["id"], rows=[(i, i % 7) for i in range(60)]
    )
    db.create_table(
        "b", ["id", "fk"], primary_key=["id"], rows=[(i, i % 5) for i in range(7)]
    )
    db.create_table(
        "c", ["id", "tag"], primary_key=["id"], rows=[(i, "t%d" % i) for i in range(5)]
    )
    db.catalog.add_view(
        parse_statement(
            "CREATE VIEW stats (fk, n) AS SELECT fk, COUNT(*) FROM a GROUP BY fk"
        )
    )
    return db


QUERY = (
    "SELECT c.tag, v.n FROM c, b, stats v "
    "WHERE b.fk = c.id AND v.fk = b.id AND c.tag = 't3'"
)


def test_heuristic_runs_both_plan_passes(chain_db):
    graph = build_query_graph(parse_statement(QUERY), chain_db.catalog)
    result = optimize_with_heuristic(graph, chain_db.catalog)
    assert result.optimizer_invocations == 2
    assert set(result.phase_firings) == {1, 2, 3}
    validate_graph(result.graph)


def test_heuristic_without_emst_single_pass(chain_db):
    graph = build_query_graph(parse_statement(QUERY), chain_db.catalog)
    result = optimize_with_heuristic(graph, chain_db.catalog, use_emst=False)
    assert result.optimizer_invocations == 1
    assert not result.used_emst
    assert result.cost_with_emst == float("inf")


def test_snapshot_fallback_is_executable(chain_db):
    """When the heuristic rejects EMST, the snapshot graph it falls back to
    must be intact and runnable: the structural copy taken after phase 1
    shares only the catalog, schemas and literals with the graph phases 2
    and 3 go on to rewrite, so their mutations cannot reach it."""
    graph = build_query_graph(parse_statement(QUERY), chain_db.catalog)
    result = optimize_with_heuristic(graph, chain_db.catalog)
    # Whatever was chosen, both captured graphs must execute identically.
    chosen = Evaluator(
        result.graph, chain_db, join_orders=result.join_orders
    ).run()
    fallback = Evaluator(
        result.graph_without_emst,
        chain_db,
        join_orders=result.plan_without_emst.join_orders,
    ).run()
    assert canonical(chosen.rows) == canonical(fallback.rows)


def test_exhaustive_strawman_counts_invocations(chain_db):
    graph = build_query_graph(parse_statement(QUERY), chain_db.catalog)
    result, invocations = optimize_exhaustive_emst(graph, chain_db.catalog)
    # 1 baseline pass + one per permutation of the top box's 3 quantifiers.
    assert invocations == 1 + 6
    validate_graph(result.graph)
    rows = Evaluator(result.graph, chain_db, join_orders=result.join_orders).run()
    conn = Connection(chain_db, executor="tuple")
    reference = conn.explain_execute(QUERY, strategy="original").rows
    assert canonical(rows.rows) == canonical(reference)


def test_phase_firings_are_deltas(chain_db):
    graph = build_query_graph(parse_statement(QUERY), chain_db.catalog)
    result = optimize_with_heuristic(graph, chain_db.catalog)
    for phase, firings in result.phase_firings.items():
        assert all(count > 0 for count in firings.values())
    assert "emst" not in result.phase_firings[1]
    assert "emst" not in result.phase_firings[3]


def test_heuristic_mutation_isolation(chain_db):
    """The caller's graph object is the one mutated; the snapshot is
    separate (no aliasing between the two)."""
    graph = build_query_graph(parse_statement(QUERY), chain_db.catalog)
    result = optimize_with_heuristic(graph, chain_db.catalog)
    chosen_ids = {id(b) for b in result.graph.boxes()}
    snapshot_ids = {id(b) for b in result.graph_without_emst.boxes()}
    assert not (chosen_ids & snapshot_ids) or result.graph is result.graph_without_emst
