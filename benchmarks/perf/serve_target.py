"""The server the serve workloads measure, started as its own process.

The load generator must not share a GIL with the system under test, so
the benchmark launches this file with ``python serve_target.py --seed N``
and talks to it over TCP like any client would. The database, views and
:class:`~repro.server.core.ServerConfig` are fixed here: they are part of
the workload definition, not options.

Protocol with the parent (the load generator):

* stdout line 1: ``READY <port> <pid>`` once the listener accepts,
* the process runs until its stdin reaches EOF (the parent closing the
  pipe, or the parent dying), or SIGTERM,
* on the way out it shuts the worker pool down, which unlinks every
  shared-memory segment.

stderr belongs to the parent too: ``resource_tracker`` chatter from the
forked workers lands there and is captured instead of corrupting the
benchmark's own output.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import signal
import sys

DEPARTMENTS = 1000
EMPLOYEES_PER_DEPARTMENT = 5


def build_database(seed):
    """The serve workloads' database: the paper's schema and views."""
    from repro.api import Connection
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    database = build_empdept_database(
        n_departments=DEPARTMENTS,
        employees_per_department=EMPLOYEES_PER_DEPARTMENT,
        seed=seed,
    )
    connection = Connection(database)
    connection.run_script(PAPER_VIEWS_SQL)
    connection.run_script(DEPT_STATS_VIEW_SQL)
    return database


#: Experiment A's view, registered beside the paper's so the serve
#: workloads can send plain SELECTs (inline views would re-fingerprint).
DEPT_STATS_VIEW_SQL = (
    "CREATE VIEW deptStats (workdept, avgsal, headcount) AS "
    "SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUP BY workdept"
)


def server_config(port=0):
    from repro.server.core import ServerConfig

    return ServerConfig(
        port=port,
        workers=2,
        result_cache_capacity=256,
        default_executor="batch",
        max_concurrent=4,
        max_queue=64,
    )


async def _serve(server):
    from repro.server.session import serve

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    # EOF on stdin means the parent closed the pipe or died.
    loop.add_reader(sys.stdin.fileno(), stop.set)
    try:
        listener = await serve(server, host="127.0.0.1", port=0)
        port = listener.sockets[0].getsockname()[1]
        print("READY %d %d" % (port, os.getpid()), flush=True)
        async with listener:
            await stop.wait()
    finally:
        # Let scripts still running on the executor publish before the
        # pool closes the segment store; one that published afterwards
        # would leave its segment behind.
        server.executor.shutdown(wait=True)
        server.shutdown()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    options = parser.parse_args(argv)
    root = pathlib.Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(root / "src"))
    from repro.server.core import QueryServer

    # Fork the worker pool before the event loop exists, so workers do not
    # inherit its signal wake-up descriptor.
    server = QueryServer(build_database(options.seed), server_config())
    try:
        asyncio.run(_serve(server))
    finally:
        # The first publish started a resource tracker; end it and wait for
        # it, rather than exit and leave it running for a moment as an orphan.
        from multiprocessing import resource_tracker

        try:
            resource_tracker._resource_tracker._stop()
        except (AttributeError, OSError):
            pass  # internals moved: the parent's reap_children() ends it


if __name__ == "__main__":
    main()
