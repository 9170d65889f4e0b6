"""Decision-support scenario (the paper's motivation: complex TPCD-style
queries that vendors were hand-optimizing).

A revenue roll-up through two view levels, restricted to one region —
exactly the query shape where correlated execution is unstable and the
magic-sets rewrite is "a far more stable optimization".

Run:  python examples/decision_support.py
"""

import time

from repro import Connection
from repro.workloads.decision_support import build_decision_support_database

VIEWS = """
CREATE VIEW custRev (custkey, rev) AS
  SELECT o.custkey, SUM(o.totalprice) FROM orders o GROUP BY o.custkey;
CREATE VIEW nationRev (nationkey, totrev, ncust) AS
  SELECT c.nationkey, SUM(v.rev), COUNT(*)
  FROM customer c, custRev v WHERE v.custkey = c.custkey
  GROUP BY c.nationkey;
"""

QUERY = (
    "SELECT n.nname, v.totrev, v.ncust "
    "FROM nation n, nationRev v "
    "WHERE v.nationkey = n.nationkey AND n.regionkey = 2 "
    "ORDER BY totrev DESC"
)


def main():
    db = build_decision_support_database(scale=6.0)
    # The tuple engine, the one correlated execution runs on, so the
    # strategy comparison below times every strategy on the same engine.
    conn = Connection(db, executor="tuple")
    conn.run_script(VIEWS)

    print("Revenue roll-up for one region, through two view levels:")
    print(" ", QUERY)
    print()

    outcome = conn.explain_execute(QUERY, strategy="emst")
    print("result:")
    for row in outcome.rows:
        print("   %-12s %14.2f  %4d customers" % row)
    print()

    heuristic = outcome.heuristic
    print(
        "EMST chosen: %s (cost %.0f vs %.0f without); optimizer ran %d times"
        % (
            heuristic.used_emst,
            heuristic.cost_with_emst,
            heuristic.cost_without_emst,
            heuristic.optimizer_invocations,
        )
    )
    print()

    print("strategy comparison (execution time):")
    for strategy in ("original", "correlated", "emst"):
        prepared = conn.prepare_statement(QUERY, strategy=strategy)
        prepared.execute()
        started = time.perf_counter()
        prepared.execute()
        print("  %-11s %8.4fs" % (strategy, time.perf_counter() - started))


if __name__ == "__main__":
    main()
