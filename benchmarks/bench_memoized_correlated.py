"""Ablation: correlated execution *with memoisation* vs magic.

A modern defence of correlated execution is caching per-binding results.
This bench measures the memoising variant on two Table-1 regimes:

* **experiment E** (orders outer — *duplicate* custkey bindings): the cache
  absorbs the repeats, but magic still computes each distinct binding once
  *and* shares the scans, so it stays ahead;
* **experiment C** (managers outer — every binding *distinct*, and the
  join column computed): the cache never hits; memoisation does not even
  dent the catastrophe. Only the set-oriented rewrite helps.
"""

from __future__ import annotations

import time

from repro.api import Connection
from repro.engine import CorrelatedEvaluator
from repro.workloads.experiments import EXPERIMENTS

from benchmarks.conftest import bench_scale, write_result


def _measure_all(key):
    db, views_sql, query_sql = EXPERIMENTS[key].build(bench_scale())
    # Tuple engine: the correlated columns have no other, and the table
    # compares strategies on one engine.
    connection = Connection(db, executor="tuple")
    if views_sql:
        connection.run_script(views_sql)

    timings = {}
    rows = {}
    for strategy in ("original", "emst"):
        prepared = connection.prepare_statement(query_sql, strategy=strategy)
        result, _ = prepared.execute()
        rows[strategy] = sorted(result.rows, key=repr)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            prepared.execute()
            best = min(best, time.perf_counter() - started)
        timings[strategy] = best

    prepared = connection.prepare_statement(query_sql, strategy="correlated")

    def run_correlated(memoize):
        evaluator = CorrelatedEvaluator(
            prepared.graph,
            db,
            join_orders=prepared.plan.join_orders,
            memoize=memoize,
        )
        return evaluator.run()

    for memoize, label in ((False, "correlated"), (True, "correlated+memo")):
        result = run_correlated(memoize)
        rows[label] = sorted(result.rows, key=repr)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            run_correlated(memoize)
            best = min(best, time.perf_counter() - started)
        timings[label] = best

    assert all(r == rows["original"] for r in rows.values())
    base = timings["original"]
    normalized = {k: 100.0 * v / base for k, v in timings.items()}
    return normalized


def _duplicate_binding_db():
    """A regime engineered for caching: a big outer with only 12 distinct
    binding values, flowing into an aggregate view."""
    from repro import Database
    from repro.sql import parse_statement

    db = Database()
    db.create_table(
        "fact",
        ["grp", "v"],
        rows=[(i % 12, i) for i in range(4000)],
    )
    db.create_table(
        "outer_rows",
        ["k", "grp"],
        rows=[(i, (i * 7) % 12) for i in range(800)],
    )
    db.catalog.add_view(
        parse_statement(
            "CREATE VIEW gv (grp, total) AS "
            "SELECT grp || '', SUM(v) FROM fact GROUP BY grp || ''"
        )
    )
    # The computed grouping column blocks per-binding pushdown, so each
    # evaluation is a full pass — exactly where a cache shines.
    sql = "SELECT o.k, g.total FROM outer_rows o, gv g WHERE g.grp = o.grp || ''"
    return db, sql


def _measure_duplicates():
    db, sql = _duplicate_binding_db()
    # Tuple engine: the correlated columns have no other, and the table
    # compares strategies on one engine.
    connection = Connection(db, executor="tuple")
    timings = {}
    rows = {}
    for strategy in ("original", "emst"):
        prepared = connection.prepare_statement(sql, strategy=strategy)
        result, _ = prepared.execute()
        rows[strategy] = sorted(result.rows, key=repr)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            prepared.execute()
            best = min(best, time.perf_counter() - started)
        timings[strategy] = best
    prepared = connection.prepare_statement(sql, strategy="correlated")
    for memoize, label in ((False, "correlated"), (True, "correlated+memo")):
        evaluator = CorrelatedEvaluator(
            prepared.graph, db, join_orders=prepared.plan.join_orders,
            memoize=memoize,
        )
        result = evaluator.run()
        rows[label] = sorted(result.rows, key=repr)
        best = float("inf")
        for _ in range(2):
            evaluator = CorrelatedEvaluator(
                prepared.graph, db, join_orders=prepared.plan.join_orders,
                memoize=memoize,
            )
            started = time.perf_counter()
            evaluator.run()
            best = min(best, time.perf_counter() - started)
        timings[label] = best
    assert all(r == rows["original"] for r in rows.values())
    base = timings["original"]
    return {k: 100.0 * v / base for k, v in timings.items()}


def test_memoized_correlated_ablation(benchmark):
    dup_norm = _measure_duplicates()
    c_norm = _measure_all("C")

    benchmark.pedantic(_measure_duplicates, iterations=1, rounds=1)

    lines = [
        "Memoised correlated execution (normalised, Original = 100):",
        "",
        "%-18s %14s %12s" % ("", "dup bindings", "regime C"),
    ]
    for label in ("original", "correlated", "correlated+memo", "emst"):
        lines.append(
            "%-18s %14.2f %12.2f" % (label, dup_norm[label], c_norm[label])
        )
    lines += [
        "",
        "Left: an 800-row outer over 12 distinct bindings and a computed",
        "grouping column — each evaluation is a full pass, so the cache",
        "rescues correlated execution; magic still wins (one shared pass).",
        "Right: Table 1's regime C — every binding distinct, the cache",
        "never hits, the catastrophe stands; only the rewrite fixes it.",
    ]
    output = "\n".join(lines)
    print("\n" + output)
    write_result("memoized_correlated.txt", output)

    # Duplicates: memoisation must help dramatically; magic still wins.
    assert dup_norm["correlated+memo"] * 2 < dup_norm["correlated"]
    assert dup_norm["emst"] < dup_norm["correlated+memo"]
    # C: distinct bindings — memoisation is within noise of no-memo and
    # both remain far above the original; magic is far below it.
    assert c_norm["correlated+memo"] > 150
    assert c_norm["emst"] < 100
