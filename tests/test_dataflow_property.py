"""Property-based verification of the dataflow facts (hypothesis).

Random queries run against the stock workload schemas; every fact the
fixpoint analyses claim about the top box is then checked *empirically*
against the rows the evaluator actually produced:

* a derived key must have no duplicate projections;
* a column proven NOT NULL must hold no NULL;
* a column proven all-NULL must hold only NULLs;
* a box proven duplicate-free (ignoring enforcement) must produce no
  duplicate rows even when the enforcement is stripped.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Evaluator
from repro.qgm import build_query_graph
from repro.qgm.facts.keyflow import solve_box_keys
from repro.qgm.facts.nullflow import solve_nullability
from repro.qgm.model import DistinctMode
from repro.sql import parse_statement
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import build_empdept_database

_EMPDEPT = build_empdept_database(
    n_departments=6, employees_per_department=3, seed=7
)
_TPCH = build_decision_support_database(scale=0.01, seed=7)


def _check_facts(graph, db):
    result = Evaluator(graph, db).run()
    ordinal = {name.lower(): i for i, name in enumerate(result.columns)}

    for key in solve_box_keys(graph.top_box):
        positions = [ordinal[part] for part in sorted(key)]
        projected = [tuple(row[i] for i in positions) for row in result.rows]
        assert len(projected) == len(set(projected)), (
            "claimed key %s has duplicates" % sorted(key)
        )

    fact = solve_nullability(graph.top_box)[id(graph.top_box)]
    for name in fact.notnull:
        if name not in ordinal:
            continue
        column = [row[ordinal[name]] for row in result.rows]
        assert None not in column, "claimed NOT NULL column %r holds NULL" % name
    for name in fact.allnull:
        if name not in ordinal:
            continue
        column = [row[ordinal[name]] for row in result.rows]
        assert all(value is None for value in column)

    # Duplicate-freeness claimed without enforcement must hold with the
    # enforcement physically stripped.
    if graph.top_box.distinct == DistinctMode.ENFORCE and solve_box_keys(
        graph.top_box, ignore_enforce=True
    ):
        graph.top_box.distinct = DistinctMode.PERMIT
        stripped = Evaluator(graph, db).run().rows
        assert len(stripped) == len(set(stripped))


# ---------------------------------------------------------------------------
# Random single-block queries over the empdept schema
# ---------------------------------------------------------------------------

_PROJECTIONS = [
    "e.empno",
    "e.empname",
    "e.workdept",
    "e.salary",
    "d.deptno",
    "d.deptname",
    "d.mgrno",
]


@st.composite
def empdept_queries(draw):
    columns = draw(
        st.lists(
            st.sampled_from(_PROJECTIONS), min_size=1, max_size=4, unique=True
        )
    )
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    where = ["e.workdept = d.deptno"]
    if draw(st.booleans()):
        where.append(
            "e.salary %s %d"
            % (draw(st.sampled_from([">", "<", ">=", "<="])),
               draw(st.integers(30000, 180000)))
        )
    if draw(st.booleans()):
        where.append("d.mgrno IS NOT NULL")
    if draw(st.booleans()):
        where.append("e.empname IS NULL")
    return "SELECT %s%s FROM employee e, department d WHERE %s" % (
        distinct,
        ", ".join(columns),
        " AND ".join(where),
    )


@given(empdept_queries())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_facts_hold_empirically_on_empdept(sql):
    graph = build_query_graph(parse_statement(sql), _EMPDEPT.catalog)
    _check_facts(graph, _EMPDEPT)


# ---------------------------------------------------------------------------
# Random queries over the decision-support schema, including aggregation
# ---------------------------------------------------------------------------


@st.composite
def tpch_queries(draw):
    shape = draw(st.sampled_from(["join", "groupby", "point"]))
    if shape == "join":
        columns = draw(
            st.lists(
                st.sampled_from(
                    ["c.custkey", "c.cname", "o.orderkey", "o.totalprice"]
                ),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        return (
            "SELECT %s%s FROM customer c, orders o "
            "WHERE o.custkey = c.custkey AND o.totalprice > %d"
            % (distinct, ", ".join(columns), draw(st.integers(0, 5000)))
        )
    if shape == "groupby":
        aggregate = draw(st.sampled_from(["COUNT(*)", "SUM(o.totalprice)",
                                          "MIN(o.orderkey)"]))
        return (
            "SELECT o.custkey, %s FROM orders o GROUP BY o.custkey"
            % aggregate
        )
    return (
        "SELECT c.cname, c.nationkey FROM customer c WHERE c.custkey = %d"
        % draw(st.integers(0, 40))
    )


@given(tpch_queries())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_facts_hold_empirically_on_decision_support(sql):
    graph = build_query_graph(parse_statement(sql), _TPCH.catalog)
    _check_facts(graph, _TPCH)
