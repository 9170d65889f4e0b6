"""The Correlated strategy's work counts, pinned.

The literals below were recorded at the commit *before* the correlated
engine's copied interpreter was folded onto the tuple ``Evaluator``: the
strategy is its join order and its pushdown, and taking box semantics from
one place must not move a single count — not the ``EvaluatorStats``, not
what the governor was charged."""

import pytest

from repro import Connection, CorrelatedEvaluator
from repro.resilience import ResiliencePolicy, ResourceGovernor
from repro.workloads.experiments import EXPERIMENTS

from tests.test_correlated import prepare, view_db  # noqa: F401  (fixture)

#: experiment -> (EvaluatorStats.as_dict(), governor.correlated_invocations,
#: governor.materialized_rows) at scale 0.05.
PINNED = {
    "A": ({"box_evaluations": 6, "rows_produced": 124, "join_probes": 63,
           "correlated_evaluations": 4}, 4, 124),
    "B": ({"box_evaluations": 54, "rows_produced": 60, "join_probes": 52,
           "correlated_evaluations": 49}, 52, 60),
    "C": ({"box_evaluations": 7, "rows_produced": 355, "join_probes": 304,
           "correlated_evaluations": 5}, 5, 355),
    "D": ({"box_evaluations": 26, "rows_produced": 3606, "join_probes": 1806,
           "correlated_evaluations": 19}, 24, 3606),
    "E": ({"box_evaluations": 54, "rows_produced": 182, "join_probes": 104,
           "correlated_evaluations": 40}, 52, 182),
    "F": ({"box_evaluations": 6, "rows_produced": 33, "join_probes": 23,
           "correlated_evaluations": 5}, 4, 33),
    "G": ({"box_evaluations": 12, "rows_produced": 12, "join_probes": 10,
           "correlated_evaluations": 10}, 10, 12),
    "H": ({"box_evaluations": 154, "rows_produced": 478, "join_probes": 277,
           "correlated_evaluations": 115}, 152, 478),
}


def run_correlated(key, query=None, params=None):
    database, views_sql, query_sql = EXPERIMENTS[key].build(0.05)
    connection = Connection(database)
    if views_sql:
        connection.run_script(views_sql)
    policy = ResiliencePolicy(governor=ResourceGovernor())
    prepared = connection.prepare_statement(
        query or query_sql, strategy="correlated", resilience=policy
    )
    result, stats = prepared.execute(params=params)
    governor = policy.governor
    return result, (
        stats.as_dict(),
        governor.correlated_invocations,
        governor.materialized_rows,
    )


@pytest.mark.parametrize("key", sorted(PINNED))
def test_experiment_work_counts_are_pinned(key):
    _, counts = run_correlated(key)
    assert counts == PINNED[key]


def test_parameter_vector_counts_like_the_literal():
    """``?`` slots ride in the root environment: the binding still reaches
    the index lookup, and carrying the vector makes no evaluation count as
    per-binding that did not before."""
    literal_sql = EXPERIMENTS["A"].build(0.05)[2]
    assert "'Planning'" in literal_sql
    literal, _ = run_correlated("A")
    bound, counts = run_correlated(
        "A", literal_sql.replace("'Planning'", "?"), params=["Planning"]
    )
    assert bound.rows == literal.rows and len(bound.rows) == 1
    assert counts == PINNED["A"]


@pytest.mark.parametrize(
    "memoize, pinned",
    [
        (False, {"box_evaluations": 42, "rows_produced": 240,
                 "join_probes": 130, "correlated_evaluations": 31}),
        (True, {"box_evaluations": 15, "rows_produced": 42,
                "join_probes": 31, "correlated_evaluations": 13}),
    ],
)
def test_memoization_ablation_counts_are_pinned(view_db, memoize, pinned):  # noqa: F811
    view_db.create_table("outer_dup", ["grp"], rows=[(1,)] * 10)
    sql = "SELECT o.grp, v.total FROM outer_dup o, sums v WHERE v.grp = o.grp"
    graph, plan = prepare(view_db, sql)
    evaluator = CorrelatedEvaluator(
        graph, view_db, join_orders=plan.join_orders, memoize=memoize
    )
    assert len(evaluator.run().rows) == 10
    assert evaluator.stats.as_dict() == pinned
