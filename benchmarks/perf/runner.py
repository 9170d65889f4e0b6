"""One run of one workload: set up, measure, verify, report.

This is what the driver's command executes. The result is printed as a
small table for people, then as the one-line JSON object the contract in
``BENCHMARK.json`` describes; the same object, with sample counts and the
environment, is also written to ``out/run-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import subprocess

from benchmarks.perf.harness import OUT_DIR, REPO_ROOT, clock, segment_medians

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUP_REPEATS = 3

#: Slices of the timed region whose medians are reported (see
#: :func:`~benchmarks.perf.harness.segment_medians`).
SEGMENTS = 6


def load_spec():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment(seed, seconds):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
            # Look for a repository here only, not in the directories above.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


def run_workload(name, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Run workload ``name`` once; returns the full result dict."""
    from benchmarks.perf.workloads import WORKLOADS

    spec = load_spec()
    env = environment(seed, seconds)
    workload = WORKLOADS[name](seed)
    setup_seconds = []
    try:
        for attempt in range(setup_repeats):
            if attempt:
                workload.teardown()
            started = clock()
            workload.setup()
            setup_seconds.append(clock() - started)
        # Garbage of the set-ups must not be collected — nor their
        # survivors rescanned — inside the timed region.
        gc.collect()
        gc.freeze()
        try:
            loop = workload.measure(seconds, trace)
        finally:
            gc.unfreeze()
        peak_rss = workload.peak_rss_mib()
        checks, mismatches = workload.verify()
        layers = workload.layers() if trace else None
        spans = workload.spans() if trace else None
    finally:
        workload.teardown()
    leaked = sorted(getattr(workload, "leaked_segments", ()))

    attempted = loop.attempted + checks
    failed = loop.failed + mismatches
    samples = {}
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        measured = dict(layers)
        measured["failed_share"] = failed / attempted
        declared = spec["per_layer"]
        unknown = set(measured) - {metric["name"] for metric in declared}
        if unknown:
            raise KeyError(
                "metrics missing from BENCHMARK.json: %s" % sorted(unknown)
            )
        # A layer the workload bypasses did no work: 0.
        values = {m["name"]: measured.get(m["name"], 0.0) for m in declared}
        with open(OUT_DIR / ("trace-%s.json" % name), "w") as handle:
            json.dump(
                {"columns": ["name", "start", "end", "parent", "op", "tag"],
                 "spans": spans},
                handle,
            )
    else:
        declared = spec["end_to_end"]
        values = segment_medians(loop.start, loop.completions, SEGMENTS)
        values["setup_s"] = statistics.median(setup_seconds)
        values["peak_rss_mb"] = peak_rss
        count = len(loop.completions)
        samples = {
            "setup_s": len(setup_seconds),
            "op_p50_ms": count,
            "op_p95_ms": count,
            "beyond_p95": count - math.ceil(0.95 * count),
        }
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    for metric, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise ValueError("metric %s is not finite" % metric)
    result = {
        "correct": failed == 0 and not leaked,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(
        result, workload=name, trace=int(trace), env=env, samples=samples,
        leaked_segments=leaked,
    )
    with open(OUT_DIR / ("run-%s-trace%d.json" % (name, trace)), "w") as handle:
        json.dump(detail, handle, indent=1)
    return detail


def print_run(detail):
    """The human table, then the contract's JSON object as the last line."""
    env = detail["env"]
    print(
        "workload %s  trace %d  seed %d  seconds %g  nproc %s  python %s  "
        "loadavg %.2f  commit %s"
        % (detail["workload"], detail["trace"], env["seed"], env["seconds"],
           env["nproc"], env["python"], env["loadavg"][0], env["commit"][:12])
    )
    samples = detail["samples"]
    for name, entry in detail["metrics"].items():
        note = ""
        if name in samples:
            note = "  n=%d" % samples[name]
            if name == "op_p95_ms":
                note += " (%d beyond)" % samples["beyond_p95"]
        print("  %-28s %14.6g %-6s%s" % (name, entry["value"], entry["unit"], note))
    print(
        "  attempted %d  failed %d  correct %s"
        % (detail["attempted"], detail["failed"], detail["correct"])
    )
    if detail["leaked_segments"]:
        print("  leaked shared memory: %s" % ", ".join(detail["leaked_segments"]))
    print(json.dumps(
        {key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}
    ))
