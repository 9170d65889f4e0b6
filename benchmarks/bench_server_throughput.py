"""Server throughput under increasing overload.

Drives the real socket stack (asyncio server + blocking clients on
threads) with a parameterized EMST query and measures, at 1x / 4x / 16x
of the admission capacity:

* p50/p99 client-observed latency of successful requests,
* plan-cache hit rate (the adornment-keyed cache is what makes the
  per-request cost "execute only", the paper's prepared-statement model),
* shed counts and whether load shedding kept the admitted latency
  bounded instead of letting the queue melt down,
* cold (prepare + plan) vs warm (clone + bind + execute) latency.

A second section compares serving modes on a read-heavy (~99/1) mix over
a hot set of parameterized queries: a single-process baseline (workers=0,
no result cache) against the multi-process configuration (workers=2 plus
the cross-request result cache). On this box the win comes from the
result cache — warm hits are served by the parent without re-executing —
with the worker pool keeping the misses off the session threads.

Every server here runs the tuple engine (``ServerConfig(default_executor=
"tuple")``), the engine the >= 2.5x claim and the tracked results were
measured on; on the default batch engine the uncached baseline is faster
and the claim needs re-deriving.

Writes ``server_throughput.json`` through ``benchmarks.conftest.write_result``
(``benchmarks/results/``, or a temporary directory below the default scale).
"""

from __future__ import annotations

import json
import threading
import time

from repro.api import Connection
from repro.server.chaos import ServerHarness
from repro.server.client import ServerError
from repro.server.core import ServerConfig
from repro.resilience.retry import RetryPolicy
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

from benchmarks.conftest import bench_scale, write_result

PARAM_QUERY = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = ?"
)

MAX_CONCURRENT = 4
MAX_QUEUE = 8
EXECUTOR = "tuple"

#: One request in WRITE_EVERY is an UPDATE script (the ~1% write side of
#: the read-heavy mix); every write invalidates the whole hot set in the
#: result cache, so the hit rate is earned against real churn.
WRITE_EVERY = 100
HOT_SET = 8

#: The hot read of the workers comparison. Deliberately heavier than
#: PARAM_QUERY (a non-equi salary-rank self-join, ~10ms warm at scale
#: 0.4): the single-process baseline pays that execution on every
#: request, the cached configuration only on invalidation misses — which
#: is exactly the work a result cache exists to delete.
HOT_QUERY = (
    "SELECT COUNT(*) FROM employee e1, employee e2 "
    "WHERE e1.salary < e2.salary AND e1.workdept = ?"
)


def _percentile(samples, fraction):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(int(len(ordered) * fraction), len(ordered) - 1)
    return ordered[index]


def _drive(harness, clients, requests_per_client, deptnames):
    """``clients`` threads, each its own session, no client-side retry —
    sheds must show up in the numbers, not hide behind backoff."""
    latencies = []
    sheds = 0
    errors = 0
    lock = threading.Lock()

    def worker(offset):
        nonlocal sheds, errors
        with harness.client(retry=RetryPolicy(max_attempts=1)) as client:
            for index in range(requests_per_client):
                name = deptnames[(offset + index) % len(deptnames)]
                started = time.perf_counter()
                try:
                    client.query(PARAM_QUERY, params=[name], deadline=30)
                except ServerError as exc:
                    with lock:
                        if exc.error_type == "ServerOverloadedError":
                            sheds += 1
                        else:
                            errors += 1
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "clients": clients,
        "requests": clients * requests_per_client,
        "completed": len(latencies),
        "shed": sheds,
        "errors": errors,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(len(latencies) / wall, 2) if wall else None,
        "p50_seconds": round(_percentile(latencies, 0.50), 6),
        "p99_seconds": round(_percentile(latencies, 0.99), 6),
    }


def _drive_read_heavy(harness, clients, requests_per_client, hotnames):
    """The read-heavy mix: each client loops the hot query set; every
    ``WRITE_EVERY``-th request (globally numbered) is an UPDATE script."""
    latencies = []
    writes = 0
    errors = 0
    lock = threading.Lock()

    def worker(offset):
        nonlocal writes, errors
        with harness.client(retry=RetryPolicy(max_attempts=1)) as client:
            for index in range(requests_per_client):
                tick = offset * requests_per_client + index
                started = time.perf_counter()
                try:
                    if tick % WRITE_EVERY == WRITE_EVERY - 1:
                        client.script(
                            "UPDATE employee SET salary = salary + 1 "
                            "WHERE workdept = 'D0000'"
                        )
                        with lock:
                            writes += 1
                    else:
                        client.query(
                            HOT_QUERY,
                            params=[hotnames[tick % len(hotnames)]],
                            deadline=30,
                        )
                except ServerError:
                    with lock:
                        errors += 1
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "clients": clients,
        "requests": clients * requests_per_client,
        "completed": len(latencies),
        "writes": writes,
        "errors": errors,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(len(latencies) / wall, 2) if wall else None,
        "p50_seconds": round(_percentile(latencies, 0.50), 6),
        "p99_seconds": round(_percentile(latencies, 0.99), 6),
    }


def _bench_workers(scale, requests_per_client):
    """Single-process baseline vs workers=2 + result cache, same mix,
    fresh identically-seeded databases for each mode."""
    from repro.server.workers import fork_available

    if not fork_available():
        return {"skipped": "fork start method unavailable"}
    modes = {
        "single_process": {},
        "multiprocess_cached": {"workers": 2, "result_cache_capacity": 256},
    }
    section = {"requests_per_client": requests_per_client}
    for mode, extra in modes.items():
        database = build_empdept_database(
            n_departments=max(int(250 * scale), 10),
            employees_per_department=8,
            seed=107,
        )
        Connection(database).run_script(PAPER_VIEWS_SQL)
        hotnames = ["D%04d" % i for i in range(HOT_SET)]
        config = ServerConfig(
            port=0, max_concurrent=MAX_CONCURRENT, max_queue=MAX_QUEUE,
            default_deadline_seconds=30.0, default_executor=EXECUTOR, **extra,
        )
        with ServerHarness(database, config) as harness:
            result = _drive_read_heavy(
                harness,
                clients=MAX_CONCURRENT,
                requests_per_client=requests_per_client,
                hotnames=hotnames,
            )
            stats = harness.server.handle_stats()
            result["result_cache"] = stats.get("result_cache")
            workers = stats.get("workers")
            if workers is not None:
                result["pool"] = {
                    "workers": workers["workers"],
                    "dispatches": workers["dispatches"],
                    "crashes": workers["crashes"],
                }
        section[mode] = result
    baseline = section["single_process"]["throughput_qps"] or 0
    cached = section["multiprocess_cached"]["throughput_qps"] or 0
    section["speedup"] = round(cached / baseline, 2) if baseline else None
    return section


def run_bench(scale=None, requests_per_client=12):
    scale = scale if scale is not None else bench_scale()
    database = build_empdept_database(
        n_departments=max(int(250 * scale), 10),
        employees_per_department=8,
        seed=107,
    )
    Connection(database).run_script(PAPER_VIEWS_SQL)
    deptnames = ["Planning"] + [
        "Dept%04d" % i
        for i in range(1, min(len(database.table("department").rows), 24))
    ]
    config = ServerConfig(
        port=0, max_concurrent=MAX_CONCURRENT, max_queue=MAX_QUEUE,
        default_deadline_seconds=30.0, default_executor=EXECUTOR,
    )
    report = {
        "scale": scale,
        "max_concurrent": MAX_CONCURRENT,
        "max_queue": MAX_QUEUE,
        "levels": [],
    }
    with ServerHarness(database, config) as harness:
        # Cold vs warm: the first request pays parse + rewrite + plan; the
        # second only clone + bind + execute.
        with harness.client() as probe:
            cold_start = time.perf_counter()
            probe.query(PARAM_QUERY, params=["Planning"])
            cold = time.perf_counter() - cold_start
            warm_samples = []
            for name in deptnames[:10]:
                warm_start = time.perf_counter()
                probe.query(PARAM_QUERY, params=[name])
                warm_samples.append(time.perf_counter() - warm_start)
        report["cold_prepare_seconds"] = round(cold, 6)
        report["warm_execute_p50_seconds"] = round(
            _percentile(warm_samples, 0.5), 6
        )
        report["cold_over_warm"] = round(
            cold / max(_percentile(warm_samples, 0.5), 1e-9), 1
        )
        for multiplier in (1, 4, 16):
            level = _drive(
                harness,
                clients=MAX_CONCURRENT * multiplier,
                requests_per_client=requests_per_client,
                deptnames=deptnames,
            )
            level["overload"] = "%dx" % multiplier
            stats = harness.server.handle_stats()
            level["cache_hit_rate"] = round(stats["cache"]["hit_rate"], 4)
            report["levels"].append(level)
        final = harness.server.handle_stats()
        report["final_cache"] = final["cache"]
        report["final_admission"] = final["admission"]
    report["workers"] = _bench_workers(
        scale, requests_per_client=75 if scale >= 0.4 else 40
    )
    return report


def test_server_throughput():
    report = run_bench()
    write_result("server_throughput.json", json.dumps(report, indent=2))
    # Sanity: the cache must be doing its job under load, and shedding
    # must be the overflow valve, not the common case at 1x.
    assert report["levels"][0]["shed"] == 0 or (
        report["levels"][0]["shed"] < report["levels"][0]["requests"] * 0.1
    )
    assert report["final_cache"]["hit_rate"] > 0.9
    assert report["cold_over_warm"] > 1.0
    for level in report["levels"]:
        assert level["completed"], "no requests completed at %s" % level["overload"]
    workers = report["workers"]
    if "skipped" not in workers:
        for mode in ("single_process", "multiprocess_cached"):
            assert workers[mode]["errors"] == 0, workers[mode]
            assert workers[mode]["completed"] == workers[mode]["requests"]
        cache = workers["multiprocess_cached"]["result_cache"]
        assert cache["hits"] > 0, "result cache never hit on the hot set"
        # The headline claim, gated on a representative scale: warm
        # result-cache hits must carry the read-heavy mix to >= 2.5x the
        # single-process qps.
        if report["scale"] >= 0.4:
            assert workers["speedup"] >= 2.5, workers


if __name__ == "__main__":
    print(json.dumps(run_bench(), indent=2))
