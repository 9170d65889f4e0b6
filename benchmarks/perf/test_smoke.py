"""Smoke test of the benchmark itself (not part of the tier-1 suite):

    python -m pytest benchmarks/perf -q

Runs every workload for half a second, untraced once and traced twice,
in this process and with a single set-up each; then the command itself on
the serve workloads, to see that it leaves no process behind.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.perf.cli import EXACT_COUNTS  # noqa: E402
from benchmarks.perf.harness import reap_children, shm_segments  # noqa: E402
from benchmarks.perf.runner import load_spec, run_workload  # noqa: E402

SPEC = load_spec()
SEED = 7
SECONDS = 0.5


@pytest.fixture(scope="module", autouse=True)
def no_child_outlives_the_tests():
    """The traced serve runs start a resource tracker in this process."""
    yield
    reap_children()


def values(detail, group):
    metrics = detail["metrics"]
    assert list(metrics) == [metric["name"] for metric in SPEC[group]]
    for metric in SPEC[group]:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
    return {name: entry["value"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    segments = shm_segments()
    plain = run_workload(workload, SEED, SECONDS, 0, setup_repeats=1)
    assert plain["correct"] and plain["failed"] == 0
    assert all(value > 0 for value in values(plain, "end_to_end").values())

    first = run_workload(workload, SEED, SECONDS, 1, setup_repeats=1)
    second = run_workload(workload, SEED, SECONDS, 1, setup_repeats=1)
    assert first["correct"] and second["correct"]
    a, b = values(first, "per_layer"), values(second, "per_layer")
    counts = EXACT_COUNTS + ("qgm.boxes", "rewrite.boxes_after",
                             "engine.box_evaluations", "engine.batches")
    assert {name: a[name] for name in counts} == {name: b[name] for name in counts}
    assert a["failed_share"] == 0
    assert shm_segments() == segments


def test_spec_is_what_the_driver_expects():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert "setup_s" in [metric["name"] for metric in SPEC["end_to_end"]]
    assert len(json.dumps(SPEC)) < 64 * 1024


def _benchmark_processes():
    """Pids of live processes the benchmark starts: itself, the server and
    its workers, and ``multiprocessing`` resource trackers."""
    found = set()
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"benchmarks/perf" in command or b"resource_tracker" in command:
                found.add(int(entry.name))
    return found


@pytest.mark.parametrize("workload", ["serve_hot", "serve_mixed"])
def test_command_leaves_no_process_behind(workload):
    """The traced serve runs start a server, two workers and, on the bench
    side, a resource tracker; all must have ended when the command returns."""
    before = _benchmark_processes()
    completed = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                           "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    after = _benchmark_processes()
    assert completed.returncode == 0
    assert json.loads(completed.stdout.splitlines()[-1])["correct"]
    assert after - before == set()
