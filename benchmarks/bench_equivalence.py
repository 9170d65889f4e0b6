"""Benchmark: chase-based translation validation and FK join elimination.

Two questions the equivalence subsystem has to answer with numbers:

1. **What does paranoid-mode translation validation cost per firing?**
   The paper query runs through the EMST pipeline under
   ``ResiliencePolicy(paranoid=True)`` and once with no policy at all;
   every per-firing verification time is sampled (p50/p99), alongside
   the end-to-end delta.
2. **What does dependency-driven join elimination buy?** The FK-covered
   ``lineitem ⋈ orders`` probe is evaluated as written and after
   :class:`~repro.rewrite.redundant_join.RedundantJoinRule` removes the
   parent join; both must return identical rows.

Emits ``BENCH {json}`` on stdout and ``equivalence.json`` in
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time

from repro.api import Connection
from repro.engine import Evaluator
from repro.qgm import build_query_graph
from repro.resilience.fallback import ResiliencePolicy
from repro.rewrite.engine import RewriteEngine
from repro.rewrite.redundant_join import RedundantJoinRule
from repro.rewrite.rule import RuleContext
from repro.sql import parse_statement
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from benchmarks.conftest import bench_scale, write_result

PAPER_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"
)

FK_PROBE = (
    "SELECT l.quantity, l.extendedprice FROM lineitem l, orders o "
    "WHERE l.orderkey = o.orderkey"
)


def _percentile(samples, fraction):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(int(len(ordered) * fraction), len(ordered) - 1)
    return ordered[index]


def _empdept_connection(scale):
    db = build_empdept_database(
        n_departments=max(int(400 * scale), 10),
        employees_per_department=6,
        seed=61,
    )
    # Tuple engine, so the paranoid overhead is measured against the
    # execution time the tracked results were taken on.
    connection = Connection(db, executor="tuple")
    connection.run_script(PAPER_VIEWS_SQL)
    return connection


def _timed_run(connection, policy):
    started = time.perf_counter()
    outcome = connection.explain_execute(
        PAPER_QUERY, strategy="emst", resilience=policy
    )
    elapsed = time.perf_counter() - started
    return elapsed, outcome


def _verification_overhead(scale):
    """Per-firing chase times, sampled by interposing on the telemetry
    hook every verdict already flows through."""
    samples = []
    recorded = RuleContext.record_equivalence

    def recording(self, rule_name, status, seconds=0.0, reason_code=None):
        samples.append(seconds)
        return recorded(self, rule_name, status, seconds, reason_code)

    connection = _empdept_connection(scale)
    RuleContext.record_equivalence = recording
    try:
        with_seconds, outcome = _timed_run(
            connection, ResiliencePolicy(paranoid=True)
        )
    finally:
        RuleContext.record_equivalence = recorded
    without_seconds, baseline = _timed_run(connection, None)

    verdicts = {}
    reasons = {}
    for statuses in outcome.stats.get("equivalence_verdicts", {}).values():
        for status, codes in statuses.items():
            bucket = reasons.setdefault(status, {})
            for code, count in codes.items():
                bucket[code] = bucket.get(code, 0) + count
            verdicts[status] = verdicts.get(status, 0) + sum(codes.values())
    assert samples, "paranoid mode produced no validated firings"
    assert not baseline.stats.get("equivalence_verdicts")
    assert sorted(outcome.rows, key=repr) == sorted(baseline.rows, key=repr)
    return {
        "firings_validated": len(samples),
        "verified_firings": verdicts.get("VERIFIED", 0),
        "verdicts": verdicts,
        "verdict_reasons": reasons,
        "per_firing_ms_p50": _percentile(samples, 0.50) * 1000.0,
        "per_firing_ms_p99": _percentile(samples, 0.99) * 1000.0,
        "chase_seconds_total": outcome.stats.get("equivalence_seconds", 0.0),
        "seconds_with_validation": with_seconds,
        "seconds_without_paranoid": without_seconds,
    }


def _best_of(graph, db, repeats=3):
    Evaluator(graph, db).run()  # warm up
    best = float("inf")
    rows = None
    for _ in range(repeats):
        started = time.perf_counter()
        rows = Evaluator(graph, db).run().rows
        best = min(best, time.perf_counter() - started)
    return best, sorted(rows, key=repr)


def _fk_elimination_win(scale):
    db = build_decision_support_database(scale=max(scale * 0.5, 0.02), seed=61)
    joined = build_query_graph(parse_statement(FK_PROBE), db.catalog)
    rewritten = build_query_graph(parse_statement(FK_PROBE), db.catalog)
    RewriteEngine([RedundantJoinRule()]).run_phase(rewritten, 1)

    before = len(joined.top_box.foreach_quantifiers())
    after = len(rewritten.top_box.foreach_quantifiers())
    assert (before, after) == (2, 1), "the FK parent join was not eliminated"

    joined_seconds, joined_rows = _best_of(joined, db)
    eliminated_seconds, eliminated_rows = _best_of(rewritten, db)
    assert joined_rows == eliminated_rows  # the join carried no information
    return {
        "quantifiers_before": before,
        "quantifiers_after": after,
        "rows": len(joined_rows),
        "seconds_joined": joined_seconds,
        "seconds_eliminated": eliminated_seconds,
        "speedup": joined_seconds / eliminated_seconds
        if eliminated_seconds
        else 1.0,
    }


def test_equivalence_benchmark():
    scale = bench_scale()
    payload = {
        "bench": "equivalence",
        "scale": scale,
        "verification_overhead": _verification_overhead(scale),
        "fk_join_elimination": _fk_elimination_win(scale),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print("\nBENCH " + json.dumps(payload, sort_keys=True))
    write_result("equivalence.json", text)
