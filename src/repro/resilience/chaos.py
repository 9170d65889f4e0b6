"""Chaos runner: the workload suite under randomized-but-seeded faults.

Every query of the battery is executed twice — once clean under the
``original`` strategy (the trusted reference: no rewrite, no faults) and
once under ``emst`` with a :class:`~repro.resilience.FaultPlan` injecting
failures into the rewrite rules plus a paranoid
:class:`~repro.resilience.ResiliencePolicy` — and the rows must match
exactly. A divergence means the rollback/quarantine/fallback machinery
let a faulty rewrite change query *results*, which is the one thing the
resilience layer exists to prevent.

Usage::

    python -m repro.resilience.chaos [--seed N] [--trials T] [--scale S]

Exit status 0 when every trial of every query is equivalent. The pytest
entry point is ``tests/test_resilience.py`` (marker ``chaos``); CI runs
it as a second invocation after the tier-1 suite::

    python -m pytest -q -m chaos
"""

from __future__ import annotations

import argparse
import sys


#: Rule names eligible for fault injection (the standard set + EMST).
RULE_NAMES = (
    "distinct-pullup",
    "predicate-pushdown",
    "local-magic",
    "redundant-join",
    "merge",
    "projection-prune",
    "emst",
)


def _battery(scale=0.5, seed=77):
    """(connection, [sql, ...]) pairs: the integration-suite query shapes
    over the empdept and decision-support generators."""
    from repro.api import Connection
    from repro.workloads.decision_support import build_decision_support_database
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    emp = Connection(
        build_empdept_database(
            n_departments=30, employees_per_department=6, seed=seed
        )
    )
    emp.run_script(PAPER_VIEWS_SQL)
    emp_queries = [
        "SELECT d.deptname, s.workdept, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        "SELECT e.empname FROM employee e WHERE e.workdept IN "
        "(SELECT workdept FROM avgMgrSal WHERE avgsalary > 120000)",
        "SELECT a.workdept, b.workdept FROM avgMgrSal a, avgMgrSal b "
        "WHERE a.avgsalary = b.avgsalary AND a.workdept < b.workdept",
        "SELECT d.deptname FROM department d WHERE d.deptno IN "
        "(SELECT e.workdept FROM employee e WHERE e.salary > "
        " (SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept))",
    ]

    ds = Connection(build_decision_support_database(scale=scale, seed=seed))
    ds.run_script(
        """
        CREATE VIEW custRev (custkey, rev, norders) AS
          SELECT o.custkey, SUM(o.totalprice), COUNT(*)
          FROM orders o GROUP BY o.custkey;
        CREATE VIEW orderValue (orderkey, value) AS
          SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount))
          FROM lineitem l GROUP BY l.orderkey;
        """
    )
    ds_queries = [
        "SELECT c.cname, v.rev FROM customer c, custRev v "
        "WHERE v.custkey = c.custkey AND c.mktsegment = 'MACHINERY'",
        "SELECT v.custkey, v.rev FROM custRev v WHERE v.custkey IN "
        "(SELECT c.custkey FROM customer c WHERE c.nationkey = 3)",
        "SELECT c.cname FROM customer c WHERE EXISTS "
        "(SELECT o.orderkey FROM orders o WHERE o.custkey = c.custkey "
        " AND o.totalprice > 250000)",
        "SELECT o.orderkey FROM orders o WHERE o.totalprice > "
        "(SELECT AVG(o2.totalprice) FROM orders o2 WHERE o2.custkey = o.custkey) * 1.5",
    ]
    return [(emp, emp_queries), (ds, ds_queries)]


def run_chaos(seed=0, trials=3, scale=0.5, faults_per_trial=2, verbose=True):
    """Run the battery under ``trials`` randomized fault plans derived from
    ``seed``. Returns a list of failure descriptions (empty = all good)."""
    from repro.resilience.fallback import ResiliencePolicy
    from repro.resilience.faults import FaultPlan
    from repro.workloads.experiments import canonical_rows

    failures = []
    checked = 0
    for connection, queries in _battery(scale=scale, seed=77):
        for query_index, sql in enumerate(queries):
            clean = canonical_rows(
                connection.explain_execute(sql, strategy="original").rows
            )
            for trial in range(trials):
                plan = FaultPlan.randomized(
                    seed + 1000 * trial + query_index,
                    RULE_NAMES,
                    faults=faults_per_trial,
                )
                policy = ResiliencePolicy(fault_plan=plan, paranoid=True)
                try:
                    outcome = connection.explain_execute(
                        sql, strategy="emst", resilience=policy
                    )
                except Exception as exc:  # a raise here is itself a failure
                    failures.append(
                        "trial %d of %r raised %s: %s"
                        % (trial, sql, type(exc).__name__, exc)
                    )
                    continue
                checked += 1
                if canonical_rows(outcome.rows) != clean:
                    failures.append(
                        "trial %d of %r diverged under faults %r "
                        "(fallback=%s, quarantined=%s)"
                        % (
                            trial,
                            sql,
                            plan.injected,
                            outcome.fallback_strategy,
                            outcome.quarantined_rules,
                        )
                    )
                elif verbose and plan.injected:
                    print(
                        "ok: %d fault(s) absorbed, fallback=%s, quarantined=%s"
                        % (
                            len(plan.injected),
                            outcome.fallback_strategy,
                            outcome.quarantined_rules,
                        )
                    )
    if verbose:
        print(
            "chaos: %d fault trials checked, %d divergence(s)"
            % (checked, len(failures))
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos", description=__doc__
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--faults", type=int, default=2)
    args = parser.parse_args(argv)
    failures = run_chaos(
        seed=args.seed,
        trials=args.trials,
        scale=args.scale,
        faults_per_trial=args.faults,
    )
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
