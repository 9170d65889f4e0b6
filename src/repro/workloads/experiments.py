"""The eight Table-1 experiments (A–H).

[MFPR90a] never published its benchmark queries, only the normalised
elapsed times (Original = 100). Each experiment below recreates the
*regime* its row exhibits; the docstring of each builder states the regime
and why the strategies behave as the row shows. The harness verifies that
all three strategies return identical rows before timing anything, prints
the normalised table, and checks the row's *shape* (who wins, who loses,
where correlated execution crosses above the original).

Paper's Table 1 (elapsed time, Original = 100):

    ===========  =========  ==========  ======
    Experiment   Original   Correlated  EMST
    ===========  =========  ==========  ======
    A            100.00     0.40        0.47
    B            100.00     2.12        0.28
    C            100.00     513.27      50.24
    D            100.00     5136.49     109.00
    E            100.00     52.56       7.62
    F            100.00     0.54        0.84
    G            100.00     2.41        0.49
    H            100.00     19.91       4.46
    ===========  =========  ==========  ======
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.api import Connection
from repro.workloads.empdept import (
    PAPER_QUERY_SQL,
    PAPER_VIEWS_SQL,
    build_empdept_database,
)
from repro.workloads.decision_support import build_decision_support_database

PAPER_TABLE1 = {
    "A": {"original": 100.00, "correlated": 0.40, "emst": 0.47},
    "B": {"original": 100.00, "correlated": 2.12, "emst": 0.28},
    "C": {"original": 100.00, "correlated": 513.27, "emst": 50.24},
    "D": {"original": 100.00, "correlated": 5136.49, "emst": 109.00},
    "E": {"original": 100.00, "correlated": 52.56, "emst": 7.62},
    "F": {"original": 100.00, "correlated": 0.54, "emst": 0.84},
    "G": {"original": 100.00, "correlated": 2.41, "emst": 0.49},
    "H": {"original": 100.00, "correlated": 19.91, "emst": 4.46},
}

STRATEGIES = ("original", "correlated", "emst")


@dataclass
class Experiment:
    """One Table-1 experiment."""

    key: str
    title: str
    regime: str
    build: Callable  # scale -> (Database, views_sql or None, query_sql)
    #: shape checks: list of (description, callable(normalized) -> bool)
    shape_checks: List = field(default_factory=list)

    @property
    def paper_row(self):
        return PAPER_TABLE1[self.key]


@dataclass
class ExperimentRun:
    """Measured outcome of one experiment."""

    key: str
    title: str
    seconds: Dict[str, float] = field(default_factory=dict)
    normalized: Dict[str, float] = field(default_factory=dict)
    rows_agree: bool = False
    row_count: int = 0
    shape_results: List = field(default_factory=list)

    @property
    def shape_ok(self):
        return all(ok for _, ok in self.shape_results)


# ---------------------------------------------------------------------------
# Experiment builders
# ---------------------------------------------------------------------------


def _build_a(scale):
    """A — single binding through an aggregate view.

    The outer (one department, by unique name) restricts a per-department
    salary-statistics view to a single group. Correlated execution
    evaluates the view once, through the employee.workdept index, and
    narrowly beats EMST, which does the same work plus the magic plumbing.
    The original query aggregates every employee.
    """
    db = build_empdept_database(
        n_departments=int(400 * scale) or 2,
        employees_per_department=60,
        seed=101,
    )
    views = (
        "CREATE VIEW deptStats (workdept, avgsal, headcount) AS "
        "SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUP BY workdept"
    )
    query = (
        "SELECT d.deptno, v.avgsal, v.headcount "
        "FROM department d, deptStats v "
        "WHERE v.workdept = d.deptno AND d.deptname = 'Planning'"
    )
    return db, views, query


def _build_b(scale):
    """B — a small set of bindings through a join-plus-aggregate view.

    One division's departments (a few percent of all) flow into the
    manager-salary view. EMST computes the restricted view once,
    set-oriented; correlated execution re-evaluates the join and the
    grouping once per department.
    """
    db = build_empdept_database(
        n_departments=int(2000 * scale) or 2,
        employees_per_department=8,
        n_divisions=25,
        seed=102,
    )
    query = (
        "SELECT d.deptno, s.avgsalary "
        "FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.division = 'DIV03'"
    )
    return db, PAPER_VIEWS_SQL, query


def _build_c(scale):
    """C — correlated execution slower than the original query (>100).

    The join column of the view is *computed* (``workdept || ''``), so the
    per-binding parameter cannot be pushed below the grouping by value —
    each of the outer rows re-evaluates the whole view. EMST pushes the
    predicate symbolically and computes the view once, restricted; the
    grouping itself still dominates, so EMST lands near half the original.
    """
    db = build_empdept_database(
        n_departments=int(120 * scale) or 2,
        employees_per_department=50,
        seed=103,
    )
    views = (
        "CREATE VIEW deptPay (dkey, avgsal) AS "
        "SELECT workdept || '', AVG(salary) FROM employee GROUP BY workdept || ''"
    )
    query = (
        "SELECT m.empname, v.avgsal "
        "FROM employee m, department d, deptPay v "
        "WHERE m.empno = d.mgrno AND d.division = 'DIV01' "
        "AND v.dkey = m.workdept || ''"
    )
    return db, views, query


def _build_d(scale):
    """D — the catastrophic correlated case (the paper's 5136).

    The join lands on an *aggregate* output column (headcount), which no
    strategy can push below the grouping: correlated execution recomputes
    the entire aggregate view once per outer department, while EMST
    recognises there is nothing to bind (the adornment stays free) and
    falls back to the original plan — hence EMST ≈ 100 in the paper's row.
    """
    db = build_empdept_database(
        n_departments=int(120 * scale) or 2,
        employees_per_department=50,
        seed=104,
    )
    views = (
        "CREATE VIEW deptStats (workdept, avgsal, headcount) AS "
        "SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUP BY workdept"
    )
    query = (
        "SELECT d.deptno, v.workdept "
        "FROM department d, deptStats v "
        "WHERE v.headcount = d.budget / 25000"
    )
    return db, views, query


def _build_e(scale):
    """E — decision support: one market segment's customers through a
    revenue view. A moderate binding set (~one fifth of the customers):
    correlated execution pays per-binding re-evaluation overhead, EMST one
    restricted pass."""
    db = build_decision_support_database(scale=6.0 * scale, seed=105)
    views = (
        "CREATE VIEW custRev (custkey, rev, norders) AS "
        "SELECT o.custkey, SUM(o.totalprice), COUNT(*) FROM orders o "
        "GROUP BY o.custkey"
    )
    # The outer is the orders of one month: many rows, with *duplicate*
    # custkey bindings — correlated execution re-evaluates the view per
    # outer row, EMST computes it once per distinct binding.
    query = (
        "SELECT o.orderkey, v.rev, v.norders "
        "FROM orders o, custRev v "
        "WHERE v.custkey = o.custkey AND o.omonth = 3 AND o.ostatus = 'O'"
    )
    return db, views, query


def _build_f(scale):
    """F — point lookup through a plain join view (no aggregation).

    A single nation's customers and orders; correlated execution chases the
    indexes tuple-at-a-time and narrowly beats EMST, whose magic/
    supplementary scaffolding buys nothing extra for one binding.
    """
    db = build_decision_support_database(scale=4.0 * scale, seed=106)
    views = (
        "CREATE VIEW custOrders (custkey, cname, nationkey, orderkey, totalprice) AS "
        "SELECT c.custkey, c.cname, c.nationkey, o.orderkey, o.totalprice "
        "FROM customer c, orders o WHERE o.custkey = c.custkey"
    )
    query = (
        "SELECT n.nname, v.cname, v.totalprice "
        "FROM nation n, custOrders v "
        "WHERE v.nationkey = n.nationkey AND n.nname = 'Nation07'"
    )
    return db, views, query


def _build_g(scale):
    """G — the paper's query D (Example 1.1): average manager salary of the
    'Planning' department. The restriction reaches the employee table
    through two views and a grouping; EMST shows the paper's
    orders-of-magnitude win over the original."""
    db = build_empdept_database(
        n_departments=int(12000 * scale) or 2,
        employees_per_department=5,
        seed=107,
    )
    return db, PAPER_VIEWS_SQL, PAPER_QUERY_SQL


def _build_h(scale):
    """H — a two-level view chain: per-customer revenue rolled up to
    per-nation revenue, restricted to one region (a fifth of the nations).
    The magic restriction cascades through both groupings; correlated
    execution re-evaluates the whole inner chain per nation."""
    db = build_decision_support_database(scale=6.0 * scale, seed=108)
    views = (
        "CREATE VIEW custRev (custkey, rev) AS "
        "SELECT o.custkey, SUM(o.totalprice) FROM orders o GROUP BY o.custkey;"
        "CREATE VIEW nationRev (nationkey, totrev, ncust) AS "
        "SELECT c.nationkey, SUM(v.rev), COUNT(*) "
        "FROM customer c, custRev v WHERE v.custkey = c.custkey "
        "GROUP BY c.nationkey"
    )
    # One region's nations flow through a two-level chain. Correlated
    # execution restricts the outer grouping per nation, but inside each
    # evaluation it must re-enter the per-customer revenue view once per
    # customer row; the magic restriction cascades through both levels and
    # computes each once, set-oriented.
    query = (
        "SELECT n.nname, v.totrev, v.ncust "
        "FROM nation n, nationRev v "
        "WHERE v.nationkey = n.nationkey AND n.regionkey = 2"
    )
    return db, views, query


def _check(description, fn):
    return (description, fn)


def _mk_experiment(key, title, regime, build, checks):
    return Experiment(
        key=key, title=title, regime=regime, build=build, shape_checks=checks
    )


EXPERIMENTS = {
    "A": _mk_experiment(
        "A",
        "single binding, aggregate view",
        "correlated narrowly beats EMST; both crush the original",
        _build_a,
        [
            _check("emst << original", lambda n: n["emst"] < 25),
            _check("correlated << original", lambda n: n["correlated"] < 25),
            _check(
                "correlated <= emst (single binding)",
                lambda n: n["correlated"] <= n["emst"] * 1.5,
            ),
        ],
    ),
    "B": _mk_experiment(
        "B",
        "small binding set, join + aggregate view",
        "EMST beats correlated; both beat the original",
        _build_b,
        [
            _check("emst << original", lambda n: n["emst"] < 30),
            _check("correlated < original", lambda n: n["correlated"] < 90),
            _check("emst < correlated", lambda n: n["emst"] < n["correlated"]),
        ],
    ),
    "C": _mk_experiment(
        "C",
        "computed join column blocks value pushdown",
        "correlated exceeds the original; EMST roughly halves it",
        _build_c,
        [
            _check("correlated > original", lambda n: n["correlated"] > 100),
            _check("emst < original", lambda n: n["emst"] < 100),
            _check("emst << correlated", lambda n: n["emst"] * 2 < n["correlated"]),
        ],
    ),
    "D": _mk_experiment(
        "D",
        "binding on an aggregate column",
        "correlated catastrophic; EMST cannot help and stays near 100",
        _build_d,
        [
            _check("correlated >> original", lambda n: n["correlated"] > 300),
            # EMST cannot push a binding through the aggregate, so it stays
            # in the original's neighbourhood (the phase-1/3 merges still
            # help a little at small scales) — never a blow-up, never a win.
            _check("emst near original", lambda n: 30 <= n["emst"] <= 170),
        ],
    ),
    "E": _mk_experiment(
        "E",
        "decision support, moderate binding set",
        "EMST clearly beats correlated; both beat the original",
        _build_e,
        [
            _check("emst < correlated", lambda n: n["emst"] < n["correlated"]),
            _check("correlated < original", lambda n: n["correlated"] < 100),
            _check("emst << original", lambda n: n["emst"] < 50),
        ],
    ),
    "F": _mk_experiment(
        "F",
        "point lookup through a join view",
        "correlated narrowly beats EMST; both crush the original",
        _build_f,
        [
            _check("emst << original", lambda n: n["emst"] < 30),
            _check("correlated << original", lambda n: n["correlated"] < 30),
            _check(
                "correlated within a small factor of emst (single binding)",
                lambda n: n["correlated"] <= n["emst"] * 3.0,
            ),
        ],
    ),
    "G": _mk_experiment(
        "G",
        "the paper's query D",
        "EMST orders of magnitude below the original",
        _build_g,
        [
            _check("emst << original", lambda n: n["emst"] < 10),
            _check("correlated << original", lambda n: n["correlated"] < 10),
        ],
    ),
    "H": _mk_experiment(
        "H",
        "two-level view chain",
        "EMST beats correlated through cascaded magic; both beat original",
        _build_h,
        [
            _check("emst < correlated", lambda n: n["emst"] < n["correlated"]),
            _check("correlated < original", lambda n: n["correlated"] < 100),
            _check("emst << original", lambda n: n["emst"] < 50),
        ],
    ),
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def canonical_rows(rows):
    """Sort rows and round floats to 10 significant digits, so strategies
    that sum in different orders still compare equal. Rows sort by
    ``repr``, so a NULL next to a value in one column never compares
    ``None`` with a number."""

    def canon(value):
        if isinstance(value, float):
            return float("%.10g" % value)
        return value

    out = [tuple(canon(v) for v in row) for row in rows]
    return sorted(out, key=repr)


def run_experiment(experiment, scale=1.0, repeats=3):
    """Run one experiment under all three strategies.

    Performs a warm-up run per strategy first (which also warms the
    persistent indexes and verifies that all strategies return the same
    rows), then times ``repeats`` runs and keeps the minimum.

    Every column runs on the tuple engine: the paper compares its
    strategies on one row-at-a-time engine, and ``correlated`` has no
    other (the row shapes are calibrated against it).
    """
    db, views_sql, query_sql = experiment.build(scale)
    connection = Connection(db, executor="tuple")
    if views_sql:
        connection.run_script(views_sql)

    # Prepare once per strategy (parse + rewrite + plan), as the paper's
    # measurements time the *execution* of already-optimized queries.
    prepared = {
        strategy: connection.prepare_statement(query_sql, strategy=strategy)
        for strategy in STRATEGIES
    }

    reference_rows = None
    outcome_rows = {}
    for strategy in STRATEGIES:
        result, _ = prepared[strategy].execute()  # warm-up + correctness
        outcome_rows[strategy] = canonical_rows(result.rows)
        if reference_rows is None:
            reference_rows = outcome_rows[strategy]
    rows_agree = all(rows == reference_rows for rows in outcome_rows.values())

    seconds = {}
    for strategy in STRATEGIES:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            prepared[strategy].execute()
            best = min(best, time.perf_counter() - started)
        seconds[strategy] = best

    base = seconds["original"] or 1e-9
    normalized = {
        strategy: 100.0 * seconds[strategy] / base for strategy in STRATEGIES
    }
    run = ExperimentRun(
        key=experiment.key,
        title=experiment.title,
        seconds=seconds,
        normalized=normalized,
        rows_agree=rows_agree,
        row_count=len(reference_rows or []),
    )
    run.shape_results = [
        (description, bool(check(normalized)))
        for description, check in experiment.shape_checks
    ]
    return run


def run_all_experiments(scale=1.0, repeats=3, keys=None):
    """Run all (or the selected) experiments; returns {key: ExperimentRun}."""
    selected = keys or sorted(EXPERIMENTS)
    return {
        key: run_experiment(EXPERIMENTS[key], scale=scale, repeats=repeats)
        for key in selected
    }


def format_table1(runs):
    """Render the measured runs as the paper's Table 1, next to the
    paper's own figures."""
    lines = []
    header = "%-6s %10s %12s %10s   |   paper: %10s %8s" % (
        "Query", "Original", "Correlated", "EMST", "Correlated", "EMST"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for key in sorted(runs):
        run = runs[key]
        line = "Exp %-2s %10.2f %12.2f %10.2f" % (
            key,
            run.normalized["original"],
            run.normalized["correlated"],
            run.normalized["emst"],
        )
        paper = PAPER_TABLE1[key]
        line += "   |          %10.2f %8.2f" % (paper["correlated"], paper["emst"])
        if not run.rows_agree:
            line += "   ROWS DISAGREE!"
        if not run.shape_ok:
            failed = [d for d, ok in run.shape_results if not ok]
            line += "   shape: %s" % "; ".join(failed)
        lines.append(line)
    return "\n".join(lines)
