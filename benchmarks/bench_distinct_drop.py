"""Benchmark: proven-duplicate-free DISTINCT elimination.

The fixpoint key analysis lets the magic pipeline drop DISTINCT
enforcement from magic/supplementary boxes it proves duplicate-free —
including boxes on recursive cycles, which the historical derivation
bailed out on. This bench runs the magic strategy with the relaxation as
shipped and with the shed enforcements forced back on, asserts both
produce identical rows, and reports the runtime delta plus how many
enforcements the proof removed. Both the tuple-at-a-time engine and the
columnar batch executor are measured.

Emits ``BENCH {json}`` on stdout and ``distinct_drop.json`` in
``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from repro.engine import BatchEvaluator, Evaluator
from repro.optimizer.heuristic import optimize_with_heuristic
from repro.qgm import build_query_graph, clone_graph
from repro.qgm.model import DistinctMode, MagicRole
from repro.sql import parse_script
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from benchmarks.conftest import bench_scale, write_result

CLOSURE_BOUND = (
    "WITH RECURSIVE path (src, dst) AS ("
    "  SELECT src, dst FROM edge "
    "  UNION "
    "  SELECT e.src, p.dst FROM edge e, path p WHERE p.src = e.dst) "
    "SELECT dst FROM path WHERE src = 0 ORDER BY dst"
)

PAPER_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"
)


def _tree_db(scale):
    """A wide, shallow tree rooted at node 0 (fanout 32).

    Every node has exactly one parent and the unique key on ``dst``
    declares it, so the fixpoint key analysis proves the recursive magic
    boxes duplicate-free: every magic binding has exactly one derivation
    and the shed enforcement removes nothing — forcing it back on
    measures its pure overhead. The shallow shape keeps the magic
    fixpoint's row volume a large share of the whole query, so that
    overhead is measurable rather than timer noise."""
    from repro import Database

    n_nodes = max(int(24000 * scale), 96)
    fanout = 32
    rows = []
    for node in range(n_nodes):
        for k in range(fanout):
            child = fanout * node + k + 1
            if child < n_nodes:
                rows.append((node, child))
    db = Database()
    db.create_table(
        "edge", ["src", "dst"], rows=rows, unique_keys=[("dst",)]
    )
    return db


def _empdept_db(scale):
    from repro import Connection

    db = build_empdept_database(
        n_departments=max(int(400 * scale), 10),
        employees_per_department=6,
        seed=31,
    )
    connection = Connection(db)
    connection.run_script(PAPER_VIEWS_SQL)
    return db


def _run_once(graph, db, join_orders, evaluator_class):
    # GC pauses of a generation-2 collection landing inside one timed run
    # but not its partner are the dominant noise source at these run
    # lengths; collect up front and keep the collector off while timing
    # (the same policy ``timeit`` applies by default).
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        rows = evaluator_class(graph, db, join_orders=join_orders).run().rows
        return time.perf_counter() - started, rows
    finally:
        gc.enable()


def _measure(db, sql):
    """Run the magic pipeline; time the shipped graph against a copy with
    the proof-shed enforcements forced back on."""
    graph = build_query_graph(parse_script(sql).queries[0], db.catalog)
    result = optimize_with_heuristic(graph, db.catalog)

    # Every enforcement the duplicate-freeness proof removed: per-box
    # distinct-pullup firings plus the whole-graph sweep. (Many of the
    # relaxed boxes are then merged away in phase 3 — that is the point —
    # so the surviving PERMIT count below can be smaller.)
    proof_removals = sum(
        firings.get("distinct-pullup", 0)
        for firings in result.phase_firings.values()
    ) + len(result.relaxed_distinct)

    relaxed = [
        box
        for box in result.graph.boxes()
        if box.magic_role != MagicRole.REGULAR
        and box.distinct == DistinctMode.PERMIT
    ]

    # Both timed graphs are fresh copies: the optimizer-mutated original
    # and a copy have different allocation locality, which showed up as a
    # systematic timing bias when only one side was copied.
    relaxed_graph = clone_graph(result.graph)
    forced_graph = clone_graph(result.graph)
    forced = 0
    for box in forced_graph.boxes():
        if (
            box.magic_role != MagicRole.REGULAR
            and box.distinct == DistinctMode.PERMIT
        ):
            box.distinct = DistinctMode.ENFORCE
            forced += 1

    executors = {}
    baseline_rows = None
    # Batch runs first, on the freshest heap; the tuple engine's longer
    # runs churn the allocator far more.
    for name, evaluator_class in (
        ("batch", BatchEvaluator),
        ("tuple", Evaluator),
    ):
        # Interleaved paired runs: alternating relaxed/forced absorbs
        # clock-speed and allocator drift that sequential best-of blocks
        # would fold into the ratio, and the median of the per-pair
        # ratios is robust to the stray slow run that best-of-N lets a
        # single lucky outlier dominate.
        _run_once(relaxed_graph, db, result.join_orders, evaluator_class)
        _run_once(forced_graph, db, result.join_orders, evaluator_class)
        relaxed_seconds = forced_seconds = float("inf")
        relaxed_rows = forced_rows = None
        ratios = []
        for _ in range(9):
            seconds, relaxed_rows = _run_once(
                relaxed_graph, db, result.join_orders, evaluator_class
            )
            relaxed_seconds = min(relaxed_seconds, seconds)
            pair = seconds
            seconds, forced_rows = _run_once(
                forced_graph, db, result.join_orders, evaluator_class
            )
            forced_seconds = min(forced_seconds, seconds)
            ratios.append(seconds / pair if pair else 1.0)
        relaxed_rows = sorted(relaxed_rows, key=repr)
        forced_rows = sorted(forced_rows, key=repr)
        # The enforcement removed nothing, under either executor.
        assert relaxed_rows == forced_rows
        if baseline_rows is None:
            baseline_rows = relaxed_rows
        else:
            assert relaxed_rows == baseline_rows  # executors agree too
        executors[name] = {
            "seconds_without_distinct": relaxed_seconds,
            "seconds_with_distinct": forced_seconds,
            "speedup": statistics.median(ratios),
        }
    return {
        "proof_removals": proof_removals,
        "relaxed_boxes": len(relaxed),
        "forced_back": forced,
        "executors": executors,
        "speedup": executors["tuple"]["speedup"],
        "rows": len(baseline_rows),
    }


def test_distinct_drop_benchmark():
    scale = bench_scale()
    payload = {
        "bench": "distinct_drop",
        "scale": scale,
        "scenarios": {
            "empdept_paper_query": _measure(_empdept_db(scale), PAPER_QUERY),
            "recursive_closure": _measure(_tree_db(scale), CLOSURE_BOUND),
        },
    }
    # The duplicate-freeness proof must have removed at least one
    # enforcement on the recursive workload — the acceptance bar.
    assert payload["scenarios"]["recursive_closure"]["relaxed_boxes"] >= 1
    assert payload["scenarios"]["empdept_paper_query"]["proof_removals"] >= 1
    # At realistic scale the relaxation must pay for itself under the
    # batch executor wherever forcing the enforcement back on actually
    # changed the plan (forced_back 0 means relaxed and forced graphs are
    # identical and the ratio is pure timer noise). Smaller scales time
    # in the sub-millisecond noise and are exempt.
    if scale >= 1.0:
        for scenario in payload["scenarios"].values():
            if scenario["forced_back"]:
                assert scenario["executors"]["batch"]["speedup"] >= 1.0

    text = json.dumps(payload, indent=2, sort_keys=True)
    print("\nBENCH " + json.dumps(payload, sort_keys=True))
    write_result("distinct_drop.json", text)
