"""The plans the compile path produces, pinned.

The literals below were recorded at the commit *before* the compile path
stopped re-deriving graph facts (structural graph snapshot, one rule index
per graph state, keyflow solved once per plan pass, memoised predicate
footprints and selectivities). Those are pure speed changes: for every
statement of the differential suites and of the shipped workloads
(the paper's query D and experiments A-H) the heuristic must still choose
the same strategy at the same two costs, with the same join orders, the
same rule firings per phase, the same number of boxes and the same relaxed
DISTINCT enforcements."""

import pytest

from repro import Connection, Database
from repro.analysis.lint import _workload_targets
from repro.sql import parse_statement
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from tests.test_differential_executor import CLOSURE_QUERIES
from tests.test_integration_suite import DS_QUERIES, EMP_QUERIES

DS_VIEWS_SQL = """
CREATE VIEW custRev (custkey, rev, norders) AS
  SELECT o.custkey, SUM(o.totalprice), COUNT(*)
  FROM orders o GROUP BY o.custkey;
CREATE VIEW bigParts (partkey, pname, brand) AS
  SELECT partkey, pname, brand FROM part WHERE size > 25;
CREATE VIEW orderValue (orderkey, value) AS
  SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount))
  FROM lineitem l GROUP BY l.orderkey;
"""

#: statement -> (used_emst, cost_without_emst, cost_with_emst, join orders
#: of the chosen plan keyed by box name, firings per phase, boxes in the
#: chosen graph, relaxed_distinct).
PINNED = {
    "closure-0": (
        True, 87.28106508875739, 87.28106508875739,
        {"Q": ["e"], "Q_1": ["r", "e_1"], "Q_2": ["r_1"]},
        {1: {}, 2: {"emst": 4}, 3: {}},
        5, [],
    ),
    "closure-1": (
        False, 3293.615384615385, 4196.936094674556,
        {"Q": ["e"], "Q_1": ["e_1", "p"], "Q_3": ["h"], "T1": ["p_1"]},
        {1: {}, 2: {"distinct-pullup": 2, "emst": 9}, 3: {"merge": 1}},
        7, [],
    ),
    "closure-2": (
        False, 1497.5487179487181, 1665.8547271531888,
        {"Q": ["e"], "Q_1": ["e_1", "p"], "Q_3": ["h"], "T1": ["p_1"]},
        {1: {},
         2: {"distinct-pullup": 2, "emst": 9, "predicate-pushdown": 1},
         3: {"merge": 1}},
        7, [],
    ),
    "ds-0": (
        True, 2488.6, 782.0201342281879,
        {"Q": ["sm", "h"], "SM_Q": ["c"], "T1": ["sm_1", "o"]},
        {1: {"merge": 1, "projection-prune": 1},
         2: {"distinct-pullup": 2, "emst": 3},
         3: {"merge": 2}},
        6, [],
    ),
    "ds-1": (
        True, 10149.0, 2423.412751677852,
        {"MG": ["sm_1"],
         "Q": ["sm", "h_1", "h"],
         "SM_Q": ["o"],
         "T1": ["sm_2", "h_1", "l"],
         "T1_1": ["m_1", "o_1"]},
        {1: {"merge": 2, "projection-prune": 3},
         2: {"distinct-pullup": 3, "emst": 5},
         3: {"merge": 3}},
        9, [],
    ),
    "ds-10": (
        True, 3.6651395251978345, 3.6651395251978345,
        {"Q": ["p"]},
        {1: {}, 2: {"emst": 1}, 3: {}},
        2, [],
    ),
    "ds-11": (
        True, 1150.0, 1150.0,
        {"Q": ["p"], "Q_1": ["p2"]},
        {1: {}, 2: {"emst": 2}, 3: {}},
        3, [],
    ),
    "ds-12": (
        True, 3035.0, 867.0201342281879,
        {"Q": ["sm", "h_1"],
         "SM_Q": ["n"],
         "SM_T1_1": ["sm_1", "c"],
         "T1": ["sm_2", "o"],
         "T1_1": ["sm_2", "h"]},
        {1: {"merge": 2, "projection-prune": 1},
         2: {"distinct-pullup": 4, "emst": 5},
         3: {"merge": 4}},
        10, [],
    ),
    "ds-13": (
        True, 125.0, 125.0,
        {"Q": ["o"]},
        {1: {}, 2: {"emst": 1}, 3: {}},
        2, [],
    ),
    "ds-14": (
        False, 700.0, 1125.0,
        {"Q": ["c"], "Q_1": ["orders"], "Q_2": ["orders_1"]},
        {1: {}, 2: {"distinct-pullup": 3, "emst": 4}, 3: {"merge": 2}},
        6, [],
    ),
    "ds-2": (
        False, 2634.5, 2640.42,
        {"Q": ["h"], "Q_3": ["c"], "T1": ["o"]},
        {1: {"merge": 1, "projection-prune": 1},
         2: {"distinct-pullup": 1, "emst": 4},
         3: {"merge": 1}},
        6, [],
    ),
    "ds-3": (
        False, 375.0, 475.7586478011124,
        {"Q": ["c"], "Q_1": ["o"]},
        {1: {},
         2: {"distinct-pullup": 1, "emst": 2},
         3: {"merge": 1, "projection-prune": 1, "redundant-join": 1}},
        4, [],
    ),
    "ds-4": (
        False, 975.0, 1725.0,
        {"Q": ["c"], "Q_1": ["o"]},
        {1: {},
         2: {"distinct-pullup": 1, "emst": 2},
         3: {"merge": 1, "projection-prune": 1, "redundant-join": 1}},
        4, [],
    ),
    "ds-5": (
        True, 15075.503355704697, 6297.0,
        {"MG": ["o_1"], "Q": ["o"], "Q_2": ["m_q_2", "h"], "T1": ["m_q_2_1", "o2"]},
        {1: {}, 2: {"distinct-pullup": 2, "emst": 4}, 3: {"merge": 2}},
        6, [],
    ),
    "ds-6": (
        True, 2441.6666666666665, 2441.6666666666665,
        {"Q_1": ["h"], "T1": ["c", "o"]},
        {1: {}, 2: {"emst": 3}, 3: {}},
        5, [],
    ),
    "ds-7": (
        True, 2612.8051594555604, 2612.8051594555604,
        {"Q": ["h"], "Q_3": ["customer"], "T1": ["o"]},
        {1: {"distinct-pullup": 1,
             "merge": 1,
             "predicate-pushdown": 1,
             "projection-prune": 1},
         2: {"emst": 5},
         3: {}},
        7, [],
    ),
    "ds-8": (
        True, 4053.0, 4053.0,
        {"Q_1": ["h"], "T1": ["oj"]},
        {1: {}, 2: {"emst": 4}, 3: {}},
        6, [],
    ),
    "ds-9": (
        True, 866.2244897959183, 866.2244897959183,
        {"Q_1": ["l"], "Q_2": ["h"], "T1": ["d", "hot"]},
        {1: {},
         2: {"distinct-pullup": 1, "emst": 4},
         3: {"merge": 1, "redundant-join": 1}},
        6, [],
    ),
    "emp-0": (
        True, 203.0, 16.0,
        {"Q": ["h", "sm"], "SM_Q": ["d"], "T1": ["sm_1", "e", "d_1"]},
        {1: {"merge": 2}, 2: {"distinct-pullup": 2, "emst": 3}, 3: {"merge": 2}},
        6, [],
    ),
    "emp-1": (
        True, 390.0, 390.0,
        {"Q_4": ["h_1"], "T1": ["d_1", "e"], "T1_1": ["d", "h"]},
        {1: {"merge": 2},
         2: {"distinct-pullup": 2, "emst": 5},
         3: {"merge": 2, "redundant-join": 1}},
        7, [],
    ),
    "emp-2": (
        False, 586.6666666666667, 1082.6666666666667,
        {"Q": ["e"], "Q_1": ["h"], "T1": ["d", "e_1"]},
        {1: {"merge": 2, "predicate-pushdown": 1},
         2: {"distinct-pullup": 2, "emst": 4},
         3: {"merge": 2}},
        6, [],
    ),
    "emp-3": (
        False, 346.66666666666663, 420.0,
        {"AVGMGRSAL": ["h"], "Q": ["b", "a"], "T1": ["d", "e"]},
        {1: {"merge": 1}, 2: {"distinct-pullup": 1, "emst": 5}, 3: {"merge": 1}},
        6, [],
    ),
    "emp-4": (
        True, 5580.0, 2172.0,
        {"MG": ["d_1"],
         "MG_1": ["m_q_1_1", "e_1"],
         "Q": ["d"],
         "Q_1": ["m_q_1", "e"],
         "Q_3": ["m_q_3", "h"],
         "T1": ["m_q_3_1", "e2"]},
        {1: {}, 2: {"distinct-pullup": 3, "emst": 5}, 3: {"merge": 2}},
        9, [],
    ),
    "emp-5": (
        True, 1160.0, 859.8,
        {"MGRSAL^fbf": ["m_mgrsal", "e_1", "d_2"],
         "MG_1": ["d_1_1", "m_1"],
         "MG_2": ["m_q_5_1"],
         "MG_3": ["m_2"],
         "MG_4": ["sm_1"],
         "MG_5": ["m_3"],
         "MG_6": ["m_t1_1"],
         "MG_b": ["d_1"],
         "Q": ["d_1", "m"],
         "Q_5": ["m_q_5", "h_1"],
         "SM_T1_1": ["m_t1_1", "d2"],
         "T1": ["m_t1", "mgrSal"],
         "T1_1": ["h", "sm"]},
        {1: {"merge": 1, "projection-prune": 1},
         2: {"distinct-pullup": 5, "emst": 8},
         3: {}},
        18, [],
    ),
    "empdept": (
        True, 23.0, 13.0,
        {"Q": ["h", "sm"], "SM_Q": ["d"], "T1": ["sm_1", "e", "d_1"]},
        {1: {"merge": 2}, 2: {"distinct-pullup": 2, "emst": 3}, 3: {"merge": 2}},
        6, [],
    ),
    "experiment A": (
        True, 3623.0, 206.0,
        {"Q": ["sm", "h"], "SM_Q": ["d"], "T1": ["sm_1", "employee"]},
        {1: {"merge": 1}, 2: {"distinct-pullup": 2, "emst": 3}, 3: {"merge": 2}},
        6, [],
    ),
    "experiment B": (
        True, 512.0, 72.0,
        {"Q": ["h", "sm"], "SM_Q": ["d"], "T1": ["sm_1", "e", "d_1"]},
        {1: {"merge": 2}, 2: {"distinct-pullup": 2, "emst": 3}, 3: {"merge": 2}},
        6, [],
    ),
    "experiment C": (
        True, 910.0, 165.0,
        {"MG": ["sm_1"],
         "Q": ["sm", "h"],
         "SM_Q": ["d", "m"],
         "T1": ["m_1", "employee"]},
        {1: {"merge": 1}, 2: {"distinct-pullup": 1, "emst": 3}, 3: {"merge": 1}},
        7, [],
    ),
    "experiment D": (
        True, 924.0, 924.0,
        {"Q": ["d", "h"], "T1": ["employee"]},
        {1: {"merge": 1, "projection-prune": 2}, 2: {"emst": 3}, 3: {}},
        5, [],
    ),
    "experiment E": (
        True, 1477.5, 322.5,
        {"MG": ["sm_1"], "Q": ["sm", "h"], "SM_Q": ["o"], "T1": ["m", "o_1"]},
        {1: {"merge": 1}, 2: {"distinct-pullup": 1, "emst": 3}, 3: {"merge": 1}},
        6, [],
    ),
    "experiment F": (
        True, 27.4, 27.4,
        {"Q": ["n", "c", "o"]},
        {1: {"merge": 1}, 2: {"emst": 1}, 3: {}},
        4, [],
    ),
    "experiment G": (
        True, 3003.0, 15.0,
        {"Q": ["h", "sm"], "SM_Q": ["d"], "T1": ["sm_1", "e", "d_1"]},
        {1: {"merge": 2}, 2: {"distinct-pullup": 2, "emst": 3}, 3: {"merge": 2}},
        6, [],
    ),
    "experiment H": (
        True, 1827.2, 574.6699604743083,
        {"Q": ["sm", "h_1"],
         "SM_Q": ["n"],
         "SM_T1_1": ["sm_1", "c"],
         "T1": ["sm_2", "o"],
         "T1_1": ["sm_2", "h"]},
        {1: {"merge": 2}, 2: {"distinct-pullup": 4, "emst": 5}, 3: {"merge": 4}},
        10, [],
    ),
}


def plan_pins(connection, sql):
    graph, plan, heuristic, _ = connection.prepare(parse_statement(sql), "emst")
    orders = {
        box_plan.box_name: box_plan.order
        for box_plan in plan.plans.values()
        if box_plan.order
    }
    return (
        heuristic.used_emst,
        heuristic.cost_without_emst,
        heuristic.cost_with_emst,
        orders,
        heuristic.phase_firings,
        len(graph.boxes()),
        heuristic.relaxed_distinct,
    )


@pytest.fixture(scope="module")
def ds_conn():
    connection = Connection(build_decision_support_database(scale=0.5, seed=77))
    connection.run_script(DS_VIEWS_SQL)
    return connection


@pytest.fixture(scope="module")
def emp_conn():
    connection = Connection(
        build_empdept_database(n_departments=40, employees_per_department=6, seed=78)
    )
    connection.run_script(PAPER_VIEWS_SQL)
    return connection


@pytest.fixture(scope="module")
def closure_conn():
    edges = []
    for base in (0, 100, 200):
        edges.extend((base + i, base + i + 1) for i in range(25))
        edges.append((base + 25, base))
        edges.append((base + 5, base + 17))
    database = Database()
    database.create_table("edge", ["src", "dst"], rows=edges)
    return Connection(database)


@pytest.fixture(scope="module")
def workload_targets():
    """label -> (connection with the views installed, query text)."""
    targets = {}
    for label, database, views_sql, query_sql in _workload_targets(0.05):
        connection = Connection(database)
        if views_sql:
            connection.run_script(views_sql)
        targets[label.split(":")[0]] = (connection, query_sql)
    return targets


@pytest.mark.parametrize("index", range(len(DS_QUERIES)))
def test_decision_support_plan_is_pinned(ds_conn, index):
    assert plan_pins(ds_conn, DS_QUERIES[index]) == PINNED["ds-%d" % index]


@pytest.mark.parametrize("index", range(len(EMP_QUERIES)))
def test_empdept_plan_is_pinned(emp_conn, index):
    assert plan_pins(emp_conn, EMP_QUERIES[index]) == PINNED["emp-%d" % index]


@pytest.mark.parametrize("index", range(len(CLOSURE_QUERIES)))
def test_closure_plan_is_pinned(closure_conn, index):
    assert plan_pins(closure_conn, CLOSURE_QUERIES[index]) == PINNED[
        "closure-%d" % index
    ]


@pytest.mark.parametrize(
    "label", ["empdept"] + ["experiment %s" % key for key in "ABCDEFGH"]
)
def test_workload_plan_is_pinned(workload_targets, label):
    connection, sql = workload_targets[label]
    assert plan_pins(connection, sql) == PINNED[label]
