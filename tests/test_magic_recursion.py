"""Recursive magic: the transformation that motivated magic sets in the
first place — restricting a fixpoint to the bindings of interest."""

from repro import Connection, Database
from repro.sql import parse_script
from repro.qgm import build_query_graph, validate_graph
from repro.qgm.model import BoxKind, MagicRole
from repro.optimizer.heuristic import optimize_with_heuristic
from repro.engine import Evaluator

from tests.helpers import canonical


def chain_db(n_chains=40, depth=6):
    """Disjoint chains: closure of everything is big, closure of one chain
    is small."""
    rows = []
    for chain in range(n_chains):
        base = chain * (depth + 1)
        for hop in range(depth):
            rows.append((base + hop, base + hop + 1))
    db = Database()
    db.create_table("edge", ["src", "dst"], rows=rows)
    return db


REACH = (
    "WITH RECURSIVE reach (n) AS ("
    "  SELECT dst FROM edge WHERE src = 0 "
    "  UNION "
    "  SELECT e.dst FROM reach r, edge e WHERE e.src = r.n) "
    "SELECT n FROM reach ORDER BY n"
)

CLOSURE_BOUND = (
    "WITH RECURSIVE path (src, dst) AS ("
    "  SELECT src, dst FROM edge "
    "  UNION "
    "  SELECT p.src, e.dst FROM path p, edge e WHERE e.src = p.dst) "
    "SELECT dst FROM path WHERE src = 0 ORDER BY dst"
)


def run(db, sql, strategy):
    graph = build_query_graph(parse_script(sql).queries[0], db.catalog)
    if strategy == "emst":
        result = optimize_with_heuristic(graph, db.catalog)
        graph = result.graph
        orders = result.join_orders
    else:
        from repro.optimizer import optimize_graph

        orders = optimize_graph(graph, db.catalog).join_orders
    validate_graph(graph)
    evaluator = Evaluator(graph, db, join_orders=orders)
    rows = evaluator.run().rows
    return rows, evaluator.stats


def test_bound_closure_magic_restricts_fixpoint():
    db = chain_db()
    original_rows, original_stats = run(db, CLOSURE_BOUND, "original")
    emst_rows, emst_stats = run(db, CLOSURE_BOUND, "emst")
    assert canonical(original_rows) == canonical(emst_rows)
    # The original computes the closure of every chain; magic only chain 0.
    assert emst_stats.rows_produced * 5 < original_stats.rows_produced


def test_magic_seed_becomes_constant_contribution():
    db = chain_db(n_chains=5, depth=3)
    graph = build_query_graph(
        parse_script(CLOSURE_BOUND).queries[0], db.catalog
    )
    result = optimize_with_heuristic(graph, db.catalog)
    assert result.used_emst
    magic_unions = [
        b
        for b in result.graph.boxes()
        if b.is_magic_box and b.kind == BoxKind.UNION
    ]
    assert magic_unions, "the recursive magic table must be a union"
    # One branch is the constant seed (a select box with no quantifiers).
    seeds = [
        branch.input_box
        for union in magic_unions
        for branch in union.quantifiers
        if not branch.input_box.quantifiers
    ]
    assert seeds


def test_recursive_magic_graph_is_cyclic_through_magic():
    db = chain_db(n_chains=5, depth=3)
    graph = build_query_graph(
        parse_script(CLOSURE_BOUND).queries[0], db.catalog
    )
    result = optimize_with_heuristic(graph, db.catalog)
    from repro.qgm.stratum import reduced_dependency_graph

    components, _ = reduced_dependency_graph(result.graph)
    cyclic = [c for c in components if len(c) > 1]
    assert cyclic  # recursion survives the transformation


def test_seeded_reach_all_strategies_agree():
    db = chain_db(n_chains=10, depth=4)
    conn = Connection(db)
    original = conn.explain_execute(REACH, strategy="original").rows
    emst = conn.explain_execute(REACH, strategy="emst").rows
    assert canonical(original) == canonical(emst)
    assert len(original) == 4


def test_same_generation_bound_query():
    db = Database()
    rows = []
    # A binary tree of depth 5: sg pairs explode without magic.
    for parent in range(1, 32):
        rows.append((2 * parent, parent))
        rows.append((2 * parent + 1, parent))
    db.create_table("par", ["child", "parent"], rows=rows)
    sql = (
        "WITH RECURSIVE sg (x, y) AS ("
        "  SELECT p1.child, p2.child FROM par p1, par p2 "
        "  WHERE p1.parent = p2.parent AND p1.child <> p2.child "
        "  UNION "
        "  SELECT c1.child, c2.child FROM par c1, sg s, par c2 "
        "  WHERE c1.parent = s.x AND s.y = c2.parent) "
        "SELECT y FROM sg WHERE x = 40 ORDER BY y"
    )
    conn = Connection(db)
    original = conn.explain_execute(sql, strategy="original")
    emst = conn.explain_execute(sql, strategy="emst")
    assert canonical(original.rows) == canonical(emst.rows)
    # 40's generation: all other nodes at depth 5 except itself.
    assert len(original.rows) == 31


def test_dead_boxes_do_not_pollute_magic():
    """Regression: after EMST clones a recursive cycle, the original
    (now unreachable) branches appear later in the same rewrite sweep;
    processing them used to add *unrestricted* contributions to the shared
    magic union, destroying the restriction."""
    from repro.qgm.model import MagicRole

    db = Database()
    db.create_table(
        "assign", ["dst", "src"], rows=[(i + 1, i) for i in range(30)]
    )
    db.create_table("newfact", ["var", "obj"], rows=[(0, 100), (15, 200)])
    sql = (
        "WITH RECURSIVE pt (var, obj) AS ("
        "  SELECT var, obj FROM newfact "
        "  UNION "
        "  SELECT a.dst, p.obj FROM assign a, pt p WHERE p.var = a.src) "
        "SELECT obj FROM pt WHERE var = 5 ORDER BY obj"
    )
    graph = build_query_graph(parse_script(sql).queries[0], db.catalog)
    result = optimize_with_heuristic(graph, db.catalog)
    assert result.used_emst
    # Every branch of every magic union must be restricted: no branch may
    # scan the full assign table without a magic quantifier or selection.
    for box in result.graph.boxes():
        if not box.is_magic_box or box.kind != BoxKind.UNION:
            continue
        for branch_q in box.quantifiers:
            branch = branch_q.input_box
            if not branch.quantifiers:
                continue  # the constant seed
            restricted = (
                bool(branch.predicates)
                or any(q.is_magic for q in branch.quantifiers)
                or any(
                    q.input_box.magic_role != MagicRole.REGULAR
                    for q in branch.quantifiers
                )
            )
            assert restricted, "unrestricted magic branch %s" % branch.name
    rows = Evaluator(result.graph, db, join_orders=result.join_orders).run()
    assert rows.rows == [(100,)]
