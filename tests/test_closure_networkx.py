"""Recursive-query results verified against networkx as an independent
reference implementation (random graphs, property-based).

Every query runs on both executors under both the Original and the EMST
strategy: the batch engine's fixpoint (delta-first rules) and the tuple
engine's (plan-order rules) each meet the same oracle. The edge lists
carry cycles, self-loops and repeated edges, so each fixpoint revisits
facts it already knows; its output must still hold every row once.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Connection, Database


edges_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=30,
)

ENGINES = [
    (executor, strategy)
    for executor in ("tuple", "batch")
    for strategy in ("original", "emst")
]


def closure_sql(source):
    return (
        "WITH RECURSIVE reach (n) AS ("
        "  SELECT dst FROM edge WHERE src = %d "
        "  UNION "
        "  SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
        "SELECT n FROM reach" % source
    )


def build_db(edges, table="edge", columns=("src", "dst")):
    db = Database()
    db.create_table(table, list(columns), rows=edges)
    return db


def assert_answers(db, sql, expected):
    """``sql`` gives exactly the row set ``expected``, without duplicates,
    on every executor and strategy."""
    conn = Connection(db)
    for executor, strategy in ENGINES:
        rows = conn.execute(sql, strategy=strategy, executor=executor).rows
        assert len(rows) == len(set(rows)), (executor, strategy, rows)
        assert set(rows) == expected, (executor, strategy)


def reachable_from(graph, source):
    """The nodes a path of one or more edges leads to from ``source``."""
    if not graph.has_node(source):
        return set()
    expected = set(nx.descendants(graph, source))
    # SQL semantics: a self-loop makes the source reachable from itself.
    if graph.has_edge(source, source) or any(
        source in nx.descendants(graph, succ) for succ in graph.successors(source)
    ):
        expected.add(source)
    return expected


@given(edges_strategy, st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_reachability_matches_networkx(edges, source):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(13))
    graph.add_edges_from(edges)
    assert_answers(
        build_db(edges),
        closure_sql(source),
        {(n,) for n in reachable_from(graph, source)},
    )


@given(edges_strategy, st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_emst_closure_matches_networkx(edges, source):
    # Only the edges' own nodes: a source outside them reaches nothing.
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    assert_answers(
        build_db(edges),
        closure_sql(source),
        {(n,) for n in reachable_from(graph, source)},
    )


@given(edges_strategy)
@settings(max_examples=25, deadline=None)
def test_full_closure_matches_networkx(edges):
    sql = (
        "WITH RECURSIVE path (src, dst) AS ("
        "  SELECT src, dst FROM edge "
        "  UNION "
        "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst) "
        "SELECT src, dst FROM path"
    )
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    expected = {
        (node, reached)
        for node in graph.nodes
        for reached in reachable_from(graph, node)
    }
    assert_answers(build_db(edges), sql, expected)


@given(edges_strategy)
@settings(max_examples=25, deadline=None)
def test_same_generation_matches_networkx(edges):
    """The same-generation rule of ``tests/test_recursion.py``: the
    recursive quantifier sits between two base-table joins, so the batch
    engine's delta-first order differs from the plan's on both sides."""
    sql = (
        "WITH RECURSIVE sg (x, y) AS ("
        "  SELECT p1.child, p2.child FROM par p1, par p2 "
        "  WHERE p1.parent = p2.parent AND p1.child <> p2.child "
        "  UNION "
        "  SELECT p1.child, p2.child FROM par p1, sg s, par p2 "
        "  WHERE p1.parent = s.x AND s.y = p2.parent) "
        "SELECT x, y FROM sg"
    )
    # Edges run child -> parent. In the tensor product a pair (x, y)
    # steps to (a, b) when a is x's parent and b is y's, so the pairs of
    # one generation are those from which some sibling pair is reachable.
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    siblings = {
        (x, y)
        for x, a in edges
        for y, b in edges
        if a == b and x != y
    }
    pairs = nx.tensor_product(graph, graph)
    expected = set(siblings)
    for pair in siblings:
        expected |= nx.ancestors(pairs, pair)
    assert_answers(
        build_db(edges, table="par", columns=("child", "parent")),
        sql,
        expected,
    )
