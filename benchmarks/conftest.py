"""Shared benchmark configuration.

Data scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 0.4): 1.0 reproduces the shapes most faithfully, smaller values
run faster. Each bench module writes the table/figure it regenerates into
``benchmarks/results/`` — except a run below the default scale (a smoke,
as CI runs them), whose files go to a temporary directory instead, so the
tracked results never hold smoke-scale numbers.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_SCALE = 0.4


def bench_scale():
    return float(os.environ.get("REPRO_BENCH_SCALE", str(DEFAULT_SCALE)))


def write_result(name, text):
    """Write one result file and return its path: under
    ``benchmarks/results/``, or in a new temporary directory (the path is
    printed) when the run is below the default scale."""
    if bench_scale() < DEFAULT_SCALE:
        path = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-smoke-")) / name
        print("smoke-scale result written to %s" % path)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def paper_connection(scale):
    """A tuple-engine Connection over the paper's schema at benchmark
    scale, with the Example 1.1 views registered. The figure benchmarks
    time strategies against each other on the paper's one engine."""
    from repro.api import Connection
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    db = build_empdept_database(
        n_departments=max(int(12000 * scale), 10),
        employees_per_department=5,
        seed=107,
    )
    connection = Connection(db, executor="tuple")
    connection.run_script(PAPER_VIEWS_SQL)
    return connection
