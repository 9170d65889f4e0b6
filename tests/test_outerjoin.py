"""LEFT OUTER JOIN: parsing, QGM construction, execution semantics under
every strategy, and magic restriction of the preserved side."""

import pytest

from repro import Connection, Database
from repro.errors import NotSupportedError
from repro.sql import parse_statement, to_sql
from repro.qgm import BoxKind, build_query_graph, validate_graph

from tests.helpers import canonical, run_all_strategies


@pytest.fixture
def oj_db():
    db = Database()
    db.create_table(
        "t", ["a", "b"], primary_key=["a"], rows=[(1, 10), (2, 20), (3, 30)]
    )
    db.create_table(
        "s", ["a", "d"], rows=[(1, 100), (1, 101), (4, 400), (None, 500)]
    )
    db.create_table(
        "u", ["a", "e"], primary_key=["a"], rows=[(1, "x"), (3, "z")]
    )
    return db


# -- parsing -------------------------------------------------------------------


def test_parse_left_join_variants():
    for text in (
        "SELECT t.a FROM t LEFT JOIN s ON s.a = t.a",
        "SELECT t.a FROM t LEFT OUTER JOIN s ON s.a = t.a",
    ):
        statement = parse_statement(text)
        join = statement.body.from_tables[0]
        assert join.kind == "LEFT"


def test_parse_inner_join():
    statement = parse_statement("SELECT t.a FROM t INNER JOIN s ON s.a = t.a")
    assert statement.body.from_tables[0].kind == "INNER"
    statement = parse_statement("SELECT t.a FROM t JOIN s ON s.a = t.a")
    assert statement.body.from_tables[0].kind == "INNER"


def test_parse_join_chain_left_associative():
    statement = parse_statement(
        "SELECT t.a FROM t LEFT JOIN s ON s.a = t.a LEFT JOIN u ON u.a = t.a"
    )
    outer = statement.body.from_tables[0]
    assert outer.kind == "LEFT"
    assert outer.left.kind == "LEFT"


def test_join_round_trips_through_printer():
    text = "SELECT t.a, s.d FROM t LEFT OUTER JOIN s ON s.a = t.a WHERE t.a > 1"
    printed = to_sql(parse_statement(text))
    assert "LEFT OUTER JOIN" in printed
    assert to_sql(parse_statement(printed)) == printed


# -- QGM construction ---------------------------------------------------------------


def test_left_join_builds_outerjoin_box(oj_db):
    graph = build_query_graph(
        parse_statement("SELECT t.a, s.d FROM t LEFT JOIN s ON s.a = t.a"),
        oj_db.catalog,
    )
    validate_graph(graph)
    oj = graph.top_box.quantifiers[0].input_box
    assert oj.kind == BoxKind.OUTERJOIN
    assert len(oj.quantifiers) == 2
    assert oj.predicates  # the ON condition


def test_inner_join_flattens_into_select_box(oj_db):
    graph = build_query_graph(
        parse_statement("SELECT t.a, s.d FROM t JOIN s ON s.a = t.a"),
        oj_db.catalog,
    )
    validate_graph(graph)
    assert len(graph.top_box.foreach_quantifiers()) == 2
    assert len(graph.top_box.predicates) == 1


def test_name_collision_across_join_sides_uniquified(oj_db):
    graph = build_query_graph(
        parse_statement("SELECT t.a, s.a FROM t LEFT JOIN s ON s.a = t.a"),
        oj_db.catalog,
    )
    oj = graph.top_box.quantifiers[0].input_box
    names = [c.name.lower() for c in oj.columns]
    assert len(names) == len(set(names))


def test_inner_join_as_left_operand_rejected(oj_db):
    with pytest.raises(NotSupportedError):
        build_query_graph(
            parse_statement(
                "SELECT t.a FROM t JOIN s ON s.a = t.a LEFT JOIN u ON u.a = t.a"
            ),
            oj_db.catalog,
        )


# -- execution semantics ----------------------------------------------------------------


def test_left_join_null_padding(oj_db):
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn, "SELECT t.a, s.d FROM t LEFT JOIN s ON s.a = t.a"
    )
    assert rows == canonical(
        [(1, 100), (1, 101), (2, None), (3, None)]
    )


def test_left_join_on_condition_does_not_filter_preserved(oj_db):
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn,
        "SELECT t.a, s.d FROM t LEFT JOIN s ON s.a = t.a AND s.d > 100",
    )
    assert rows == canonical([(1, 101), (2, None), (3, None)])


def test_where_after_left_join_filters_result(oj_db):
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn,
        "SELECT t.a FROM t LEFT JOIN s ON s.a = t.a WHERE s.d IS NULL",
    )
    assert rows == canonical([(2,), (3,)])


def test_left_join_chain(oj_db):
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn,
        "SELECT t.a, s.d, u.e FROM t LEFT JOIN s ON s.a = t.a "
        "LEFT JOIN u ON u.a = t.a",
    )
    assert rows == canonical(
        [(1, 100, "x"), (1, 101, "x"), (2, None, None), (3, None, "z")]
    )


def test_inner_join_matches_comma_syntax(oj_db):
    conn = Connection(oj_db)
    joined = run_all_strategies(
        conn, "SELECT t.a, s.d FROM t JOIN s ON s.a = t.a"
    )
    comma = run_all_strategies(
        conn, "SELECT t.a, s.d FROM t, s WHERE s.a = t.a"
    )
    assert joined == comma


def test_left_join_null_key_never_matches(oj_db):
    # s has a NULL key row; it must never match, and t rows never pair
    # with it through equality.
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn, "SELECT t.a, s.d FROM t LEFT JOIN s ON s.a = t.a"
    )
    assert (1, 500) not in rows


def test_left_join_with_aggregation_above(oj_db):
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn,
        "SELECT t.a, COUNT(s.d) AS n FROM t LEFT JOIN s ON s.a = t.a "
        "GROUP BY t.a",
    )
    assert rows == canonical([(1, 2), (2, 0), (3, 0)])


def test_left_join_derived_table(oj_db):
    conn = Connection(oj_db)
    rows = run_all_strategies(
        conn,
        "SELECT t.a, x.total FROM t LEFT JOIN "
        "(SELECT a, SUM(d) AS total FROM s GROUP BY a) AS x ON x.a = t.a",
    )
    assert rows == canonical([(1, 201), (2, None), (3, None)])


# -- magic through the outer join --------------------------------------------------------


def test_magic_restricts_preserved_side(oj_db):
    # The preserved side is a *derived* table, so the magic restriction has
    # somewhere to land (stored tables take no magic).
    oj_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW tv (a, b, d) AS "
            "SELECT tt.a, tt.b, s.d FROM "
            "(SELECT a, b FROM t WHERE b >= 10) AS tt "
            "LEFT JOIN s ON s.a = tt.a"
        )
    )
    sql = "SELECT u.e, v.b, v.d FROM u, tv v WHERE v.a = u.a"
    conn = Connection(oj_db)
    rows = run_all_strategies(conn, sql)
    assert rows == canonical([("x", 10, 100), ("x", 10, 101), ("z", 30, None)])

    from repro.rewrite import RewriteEngine, default_rules
    from repro.optimizer import optimize_graph

    graph = build_query_graph(parse_statement(sql), oj_db.catalog)
    engine = RewriteEngine(default_rules(include_emst=True))
    context = engine.run_phase(graph, 1)
    plan = optimize_graph(graph, oj_db.catalog)
    engine.run_phase(graph, 2, join_orders=plan.join_orders, context=context)
    validate_graph(graph)
    oj_boxes = [b for b in graph.boxes() if b.kind == BoxKind.OUTERJOIN]
    assert oj_boxes
    left_child = oj_boxes[0].quantifiers[0].input_box
    # The preserved side got a magic quantifier; the NULL-padded side not.
    assert any(q.is_magic for q in left_child.quantifiers)
    right_child = oj_boxes[0].quantifiers[1].input_box
    assert right_child.kind == BoxKind.BASE


def test_outerjoin_never_restricts_null_padded_side(oj_db):
    oj_db.catalog.add_view(
        parse_statement(
            "CREATE VIEW tv (a, b, d) AS "
            "SELECT t.a, t.b, s.d FROM t LEFT JOIN s ON s.a = t.a"
        )
    )
    # The binding lands on d — a right-side column; EMST must not restrict.
    sql = "SELECT v.a FROM u, tv v WHERE v.d = u.a * 100"
    conn = Connection(oj_db)
    run_all_strategies(conn, sql)
