"""Command line of the benchmark.

``python -m benchmarks.perf``
    every workload, untraced then traced, each run in a fresh child
    process; prints every metric and writes ``out/results.json``. Exits 1
    on any wrong answer.
``python -m benchmarks.perf --sets 2``
    the same, twice back to back, then compares the sets (exits 1 when a
    difference exceeds its bound, or an exact count moved).
``python -m benchmarks.perf --workload NAME [--trace 0|1]``
    one run in this process — the command ``BENCHMARK.json`` names.
``python -m benchmarks.perf compare A.json B.json``
    compare two result files.

``--seed`` drives every generated input; ``--seconds`` is the length of
the timed region (the official length is ``run_seconds`` in
``BENCHMARK.json``; result sets of another length are marked unofficial
and never compare against official ones).
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

from benchmarks.perf.harness import (
    OUT_DIR, REPO_ROOT, adopt_orphans, reap_children,
)
from benchmarks.perf.runner import environment, load_spec, print_run, run_workload

#: The seed of an official result set.
DEFAULT_SEED = 1994

#: Per-layer counts that must be identical between two sets of one seed.
EXACT_COUNTS = (
    "engine.rows_produced", "engine.join_probes", "rewrite.firings",
    "optimizer.invocations",
)


def run_child(workload, seed, seconds, trace):
    """One run in a fresh interpreter; returns its detail dict."""
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            "%s (trace %d) exited with %d" % (workload, trace, completed.returncode)
        )
    with open(OUT_DIR / ("run-%s-trace%d.json" % (workload, trace))) as handle:
        return json.load(handle)


def run_set(spec, seed, seconds):
    """Every workload untraced and traced; returns the result-set dict."""
    results = {
        "env": dict(
            environment(seed, seconds),
            official=seconds == spec["run_seconds"] and seed == DEFAULT_SEED,
        ),
        "workloads": {},
    }
    for workload in (entry["name"] for entry in spec["workloads"]):
        plain = run_child(workload, seed, seconds, 0)
        traced = run_child(workload, seed, seconds, 1)
        results["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "samples": plain["samples"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    return results


def print_set(spec, results):
    names = list(results["workloads"])
    print("\n%-28s %-6s" % ("metric", "unit") + "".join("%15s" % n for n in names))
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            row = "%-28s %-6s" % (metric["name"], metric["unit"])
            for name in names:
                value = results["workloads"][name][group][metric["name"]]["value"]
                row += "%15.6g" % value
            print(row)
    for label, key in (("samples", "op_p50_ms"), ("beyond p95", "beyond_p95")):
        print("%-35s" % label + "".join(
            "%15d" % results["workloads"][n]["samples"][key] for n in names
        ))
    print("%-35s" % "failed / attempted" + "".join(
        "%15s" % ("%d/%d" % (results["workloads"][n]["failed"],
                             results["workloads"][n]["attempted"]))
        for n in names
    ))


def compare(spec, first, second):
    """Print, per workload and end-to-end metric, both values, by how much
    the second is worse, and the bound. Returns True when every difference
    is within its bound and every exact count is unchanged."""
    for key in ("seed", "seconds"):
        if first["env"][key] != second["env"][key]:
            print("cannot compare: %s differs (%s vs %s)"
                  % (key, first["env"][key], second["env"][key]))
            return False
    ok = True
    print("\n%-14s %-12s %14s %14s %9s %7s" % (
        "workload", "metric", "first", "second", "worse by", "bound"))
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x = a["end_to_end"][name]["value"]
            y = b["end_to_end"][name]["value"]
            worse = (y - x) / x if metric["better"] == "lower" else (x - y) / x
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  EXCEEDS"
                ok = False
            print("%-14s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s" % (
                workload, name, x, y, worse * 100, metric["bound"] * 100, verdict))
        for name in EXACT_COUNTS:
            x = a["per_layer"][name]["value"]
            y = b["per_layer"][name]["value"]
            if x != y:
                print("%-14s %s moved: %s -> %s" % (workload, name, x, y))
                ok = False
    return ok


def main(argv=None):
    """Run the command; whatever it started has ended when it returns."""
    adopt_orphans()
    # A terminated run unwinds like a failed one: teardown, then the reaping.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _main(argv)
    finally:
        reap_children()


def _main(argv):
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("compare", nargs="*", metavar="compare A.json B.json")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    options = parser.parse_args(argv)

    if options.compare:
        if len(options.compare) != 3 or options.compare[0] != "compare":
            parser.error("expected: compare A.json B.json")
        loaded = []
        for path in options.compare[1:]:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        return 0 if compare(spec, *loaded) else 1

    if options.workload:
        detail = run_workload(
            options.workload, options.seed, options.seconds, options.trace
        )
        print_run(detail)
        return 0  # the printed object says whether the answers were right

    sets = []
    for index in range(options.sets):
        results = run_set(spec, options.seed, options.seconds)
        print_set(spec, results)
        name = "results.json" if index == 0 else "results-set%d.json" % (index + 1)
        with open(OUT_DIR / name, "w") as handle:
            json.dump(results, handle, indent=1)
        sets.append(results)
    correct = all(
        entry["correct"] for results in sets
        for entry in results["workloads"].values()
    )
    if len(sets) == 2 and not compare(spec, *sets):
        return 1
    return 0 if correct else 1
