"""Subquery-form correlated queries: magic decorrelation ablation.

Table 1's experiments compare the strategies on view-form queries; this
companion bench runs the *subquery-written* form the paper's "Correlated"
column embodies — ``salary > (SELECT AVG(...) WHERE dept = outer.dept)`` —
where the Original strategy itself must re-evaluate the correlated
aggregate per outer row, and EMST's magic decorrelation ([MPR90]'s
aggregate construction) turns it into one grouped table plus selectors.
"""

from __future__ import annotations

import time

from repro.api import Connection
from repro.workloads.empdept import build_empdept_database

from benchmarks.conftest import bench_scale, write_result

ABOVE_AVG = (
    "SELECT e.empname FROM employee e WHERE e.salary > "
    "(SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)"
)

COUNT_PER_DEPT = (
    "SELECT d.deptno, "
    "(SELECT COUNT(*) FROM employee e WHERE e.workdept = d.deptno) AS n "
    "FROM department d WHERE d.division = 'DIV01'"
)


def _measure(connection, sql, strategy, repeats=3):
    prepared = connection.prepare_statement(sql, strategy=strategy)
    result, _ = prepared.execute()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        prepared.execute()
        best = min(best, time.perf_counter() - started)
    return best, sorted(result.rows, key=repr)


def test_scalar_decorrelation_speedup(benchmark, scale):
    db = build_empdept_database(
        n_departments=max(int(800 * scale), 10),
        employees_per_department=8,
        seed=31,
    )
    # Tuple engine: the timings compare strategies, as the paper does.
    connection = Connection(db, executor="tuple")

    lines = ["Magic decorrelation of correlated scalar subqueries", ""]
    for name, sql in (("above-avg", ABOVE_AVG), ("count-per-dept", COUNT_PER_DEPT)):
        original_seconds, original_rows = _measure(connection, sql, "original")
        emst_seconds, emst_rows = _measure(connection, sql, "emst")
        assert original_rows == emst_rows
        lines.append(
            "%-15s original=%.4fs  emst(decorrelated)=%.4fs  speedup=%.1fx"
            % (name, original_seconds, emst_seconds, original_seconds / emst_seconds)
        )
        if name == "above-avg":
            # Per-row re-aggregation vs one grouped pass: a clear win.
            assert emst_seconds < original_seconds

    prepared = connection.prepare_statement(ABOVE_AVG, strategy="emst")
    prepared.execute()
    benchmark(prepared.execute)

    output = "\n".join(lines)
    print("\n" + output)
    write_result("subquery_decorrelation.txt", output)
