"""Quickstart: the paper's running example (Example 1.1) end to end.

Builds the employee/department database, defines the mgrSal / avgMgrSal
views, and runs query D — "the average salary of all the managers in the
department named 'Planning'" — under the three strategies of Table 1,
printing the rewritten query graph and the timings.

Run:  python examples/quickstart.py
"""

import time

from repro import Connection, render_text
from repro.workloads.empdept import (
    PAPER_QUERY_SQL,
    PAPER_VIEWS_SQL,
    build_empdept_database,
)


def main():
    # A mid-sized instance: 3000 departments x 5 employees.
    db = build_empdept_database(n_departments=3000, employees_per_department=5)
    # Table 1 compares the strategies on one engine; correlated execution
    # exists only on the tuple engine, so every strategy runs there.
    conn = Connection(db, executor="tuple")
    conn.run_script(PAPER_VIEWS_SQL)

    print("Query D:")
    print(" ", PAPER_QUERY_SQL)
    print()

    print("=" * 72)
    print("The EMST-rewritten query graph (Figure 4, lower right):")
    print("=" * 72)
    print(conn.explain(PAPER_QUERY_SQL, strategy="emst"))
    print()

    print("=" * 72)
    print("Execution under the three strategies of Table 1:")
    print("=" * 72)
    timings = {}
    for strategy in ("original", "correlated", "emst"):
        prepared = conn.prepare_statement(PAPER_QUERY_SQL, strategy=strategy)
        result, stats = prepared.execute()  # warm up indexes
        started = time.perf_counter()
        result, stats = prepared.execute()
        timings[strategy] = time.perf_counter() - started
        print(
            "%-11s %8.4fs  rows=%r  work=%s"
            % (strategy, timings[strategy], result.rows, stats.as_dict())
        )

    base = timings["original"]
    print()
    print("normalised (Original = 100):")
    for strategy, seconds in timings.items():
        print("  %-11s %10.2f" % (strategy, 100.0 * seconds / base))


if __name__ == "__main__":
    main()
