"""Property-based tests (hypothesis).

The central property is the paper's correctness contract: for *any* query
in the supported dialect, the EMST-transformed plan and the correlated
execution strategy return exactly the rows of the unoptimized query.
Random databases and random queries exercise the whole pipeline.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Connection, Database
from repro.engine.expressions import sql_and, sql_not, sql_or
from repro.sql import parse_statement, to_sql

from tests.helpers import canonical

# ---------------------------------------------------------------------------
# Three-valued logic laws
# ---------------------------------------------------------------------------

tristate = st.sampled_from([True, False, None])


@given(tristate, tristate)
def test_and_commutative(a, b):
    assert sql_and(a, b) is sql_and(b, a)


@given(tristate, tristate)
def test_or_commutative(a, b):
    assert sql_or(a, b) is sql_or(b, a)


@given(tristate, tristate, tristate)
def test_and_associative(a, b, c):
    assert sql_and(sql_and(a, b), c) is sql_and(a, sql_and(b, c))


@given(tristate, tristate)
def test_de_morgan(a, b):
    assert sql_not(sql_and(a, b)) is sql_or(sql_not(a), sql_not(b))
    assert sql_not(sql_or(a, b)) is sql_and(sql_not(a), sql_not(b))


@given(tristate)
def test_double_negation(a):
    assert sql_not(sql_not(a)) is a


# ---------------------------------------------------------------------------
# Aggregates against reference implementations
# ---------------------------------------------------------------------------

values = st.lists(st.one_of(st.integers(-50, 50), st.none()), max_size=30)


@given(values)
def test_sum_matches_reference(xs):
    from repro.engine.aggregates import make_accumulator

    acc = make_accumulator("SUM")
    for x in xs:
        acc.add(x)
    non_null = [x for x in xs if x is not None]
    assert acc.result() == (sum(non_null) if non_null else None)


@given(values)
def test_count_and_avg_match_reference(xs):
    from repro.engine.aggregates import make_accumulator

    count = make_accumulator("COUNT")
    avg = make_accumulator("AVG")
    for x in xs:
        count.add(x)
        avg.add(x)
    non_null = [x for x in xs if x is not None]
    assert count.result() == len(non_null)
    if non_null:
        assert abs(avg.result() - sum(non_null) / len(non_null)) < 1e-9
    else:
        assert avg.result() is None


@given(values)
def test_min_max_match_reference(xs):
    from repro.engine.aggregates import make_accumulator

    low = make_accumulator("MIN")
    high = make_accumulator("MAX")
    for x in xs:
        low.add(x)
        high.add(x)
    non_null = [x for x in xs if x is not None]
    assert low.result() == (min(non_null) if non_null else None)
    assert high.result() == (max(non_null) if non_null else None)


# ---------------------------------------------------------------------------
# LIKE against a reference implementation
# ---------------------------------------------------------------------------


@given(
    st.text(alphabet="ab%_", max_size=6),
    st.text(alphabet="ab", max_size=6),
)
def test_like_agrees_with_fnmatch_style_reference(pattern, value):
    import re

    from repro.engine.expressions import like_match

    regex = "^" + "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    ) + "$"
    expected = re.match(regex, value, re.DOTALL) is not None
    assert like_match(value, pattern) is expected


# ---------------------------------------------------------------------------
# Printer round-trip on generated queries
# ---------------------------------------------------------------------------

_columns_t = ["a", "b", "c"]
_columns_s = ["a", "d"]


@st.composite
def simple_queries(draw):
    """Generate SQL text for a random single-block query over t and s."""
    use_join = draw(st.booleans())
    where_parts = []
    ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.sampled_from(["t.a", "t.b"]))
        where_parts.append(
            "%s %s %d" % (column, draw(ops), draw(st.integers(-5, 5)))
        )
    if use_join:
        where_parts.append("t.a %s s.a" % draw(st.sampled_from(["=", "="])))
    group = draw(st.booleans())
    if group:
        select = "t.a, COUNT(*) AS n, SUM(t.b) AS total"
        tail = " GROUP BY t.a"
        if draw(st.booleans()):
            tail += " HAVING COUNT(*) >= %d" % draw(st.integers(0, 2))
    else:
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        select = distinct + ("t.a, s.d" if use_join else "t.a, t.b")
        tail = ""
    from_clause = "t, s" if use_join else "t"
    where = (" WHERE " + " AND ".join(where_parts)) if where_parts else ""
    return "SELECT %s FROM %s%s%s" % (select, from_clause, where, tail)


@given(simple_queries())
@settings(max_examples=60, deadline=None)
def test_printer_round_trip_random_queries(sql):
    printed = to_sql(parse_statement(sql))
    assert to_sql(parse_statement(printed)) == printed


# ---------------------------------------------------------------------------
# Strategy equivalence on random data and random queries
# ---------------------------------------------------------------------------

rows_t = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.one_of(st.integers(0, 5), st.none()),
        st.sampled_from(["x", "y", None]),
    ),
    max_size=12,
)
rows_s = st.lists(
    st.tuples(st.one_of(st.integers(0, 5), st.none()), st.integers(0, 9)),
    max_size=8,
)


def _database(t_rows, s_rows):
    db = Database()
    db.create_table("t", ["a", "b", "c"], rows=t_rows)
    db.create_table("s", ["a", "d"], rows=s_rows)
    return db


@given(rows_t, rows_s, simple_queries())
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_strategies_agree_on_random_queries(t_rows, s_rows, sql):
    db = _database(t_rows, s_rows)
    conn = Connection(db)
    # The oracle: norewrite on the tuple engine.
    reference = canonical(
        conn.explain_execute(sql, strategy="norewrite", executor="tuple").rows
    )
    for strategy in ("original", "correlated", "emst"):
        rows = canonical(conn.explain_execute(sql, strategy=strategy).rows)
        assert rows == reference, "%s disagrees on %s" % (strategy, sql)


@given(rows_t, rows_s)
@settings(max_examples=25, deadline=None)
def test_strategies_agree_on_view_query(t_rows, s_rows):
    db = _database(t_rows, s_rows)
    db.catalog.add_view(
        parse_statement(
            "CREATE VIEW v (a, total) AS SELECT a, SUM(b) FROM t GROUP BY a"
        )
    )
    sql = "SELECT s.d, v.total FROM s, v WHERE v.a = s.a AND s.d > 2"
    conn = Connection(db)
    reference = None
    for strategy in ("original", "correlated", "emst"):
        rows = canonical(conn.explain_execute(sql, strategy=strategy).rows)
        if reference is None:
            reference = rows
        else:
            assert rows == reference


@given(rows_t, rows_s)
@settings(max_examples=25, deadline=None)
def test_strategies_agree_on_subquery_predicates(t_rows, s_rows):
    db = _database(t_rows, s_rows)
    conn = Connection(db)
    for sql in (
        "SELECT a FROM t WHERE a IN (SELECT a FROM s WHERE d > 3)",
        "SELECT a FROM t WHERE a NOT IN (SELECT a FROM s)",
        "SELECT a, b FROM t WHERE EXISTS (SELECT d FROM s WHERE s.a = t.a)",
        "SELECT a FROM t WHERE NOT EXISTS (SELECT d FROM s WHERE s.a = t.a AND s.d > t.a)",
    ):
        reference = None
        for strategy in ("original", "correlated", "emst"):
            rows = canonical(conn.explain_execute(sql, strategy=strategy).rows)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, "%s disagrees on %s" % (strategy, sql)


# ---------------------------------------------------------------------------
# Key derivation soundness: a derived key is really unique in the output
# ---------------------------------------------------------------------------


@given(rows_s)
@settings(max_examples=30, deadline=None)
def test_derived_keys_are_sound(s_rows):
    # Deduplicate on 'a' to make it a genuine primary key.
    seen = set()
    unique_rows = []
    for row in s_rows:
        if row[0] is not None and row[0] not in seen:
            seen.add(row[0])
            unique_rows.append(row)
    db = Database()
    db.create_table("s", ["a", "d"], primary_key=["a"], rows=unique_rows)
    from repro.qgm import build_query_graph
    from repro.qgm.facts.keyflow import solve_box_keys
    from repro.engine import Evaluator

    graph = build_query_graph(
        parse_statement("SELECT a, d FROM s WHERE d >= 0"), db.catalog
    )
    keys = solve_box_keys(graph.top_box)
    result = Evaluator(graph, db).run()
    for key in keys:
        ordinals = [
            i for i, name in enumerate(result.columns) if name.lower() in key
        ]
        projected = [tuple(row[i] for i in ordinals) for row in result.rows]
        assert len(projected) == len(set(projected)), (
            "derived key %s is violated" % sorted(key)
        )


# ---------------------------------------------------------------------------
# Set operations against multiset reference
# ---------------------------------------------------------------------------

small_lists = st.lists(st.integers(0, 3), max_size=8)


@given(small_lists, small_lists)
@settings(max_examples=40, deadline=None)
def test_except_all_matches_multiset_reference(left, right):
    from collections import Counter

    db = Database()
    db.create_table("l", ["a"], rows=[(x,) for x in left])
    db.create_table("r", ["a"], rows=[(x,) for x in right])
    rows = (
        Connection(db)
        .explain_execute("SELECT a FROM l EXCEPT ALL SELECT a FROM r")
        .rows
    )
    expected = Counter(left) - Counter(right)
    assert Counter(x for (x,) in rows) == expected


@given(small_lists, small_lists)
@settings(max_examples=40, deadline=None)
def test_intersect_all_matches_multiset_reference(left, right):
    from collections import Counter

    db = Database()
    db.create_table("l", ["a"], rows=[(x,) for x in left])
    db.create_table("r", ["a"], rows=[(x,) for x in right])
    rows = (
        Connection(db)
        .explain_execute("SELECT a FROM l INTERSECT ALL SELECT a FROM r")
        .rows
    )
    expected = Counter(left) & Counter(right)
    assert Counter(x for (x,) in rows) == expected
