"""``python -m repro.server`` — run the query server.

By default serves an empty database; ``--workload`` preloads the paper's
employee/department schema plus the Example 1.1 views so the server is
immediately queryable::

    python -m repro.server --workload --scale 0.2 &
    python - <<'EOF'
    from repro.server import SyncQueryClient
    with SyncQueryClient() as client:
        print(client.query(
            "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
            "WHERE d.deptno = s.workdept AND d.deptname = ?",
            params=["Planning"],
        )["rows"])
    EOF
"""

from __future__ import annotations

import argparse
import asyncio

from repro.engine import Database
from repro.server.core import QueryServer, ServerConfig
from repro.server.session import serve


def build_parser():
    defaults = ServerConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Fault-tolerant multi-session query server.",
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port)
    parser.add_argument(
        "--workload", action="store_true",
        help="preload the paper's employee/department workload and views",
    )
    parser.add_argument(
        "--scale", type=float, default=0.2,
        help="workload scale: 1.0 = the paper's 100 departments x 40 "
             "employees (default 0.2)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=defaults.max_concurrent
    )
    parser.add_argument("--max-queue", type=int, default=defaults.max_queue)
    parser.add_argument("--deadline", type=float,
                        default=defaults.default_deadline_seconds,
                        help="default per-query deadline in seconds")
    parser.add_argument(
        "--cache-capacity", type=int, default=defaults.cache_capacity
    )
    parser.add_argument("--strategy", default=defaults.default_strategy)
    parser.add_argument(
        "--workers", type=int, default=defaults.workers,
        help="forked query-worker processes (0 = in-process execution)",
    )
    parser.add_argument(
        "--result-cache-capacity", type=int,
        default=defaults.result_cache_capacity,
        help="cross-request result cache entries (0 = disabled)",
    )
    parser.add_argument(
        "--statement-cache", default=defaults.statement_cache_path,
        metavar="PATH",
        help="persist the prepared-statement set here on shutdown and "
             "warm the plan cache from it on boot",
    )
    return parser


def build_server(options):
    database = Database()
    if options.workload:
        from repro.api import Connection
        from repro.workloads.empdept import (
            PAPER_VIEWS_SQL,
            build_empdept_database,
        )

        build_empdept_database(
            n_departments=max(int(100 * options.scale), 3),
            employees_per_department=max(int(40 * options.scale), 2),
            database=database,
        )
        Connection(database).run_script(PAPER_VIEWS_SQL)
    config = ServerConfig(
        host=options.host,
        port=options.port,
        max_concurrent=options.max_concurrent,
        max_queue=options.max_queue,
        default_deadline_seconds=options.deadline,
        cache_capacity=options.cache_capacity,
        default_strategy=options.strategy,
        workers=options.workers,
        result_cache_capacity=options.result_cache_capacity,
        statement_cache_path=options.statement_cache,
    )
    return QueryServer(database, config)


async def _run(options):
    server = build_server(options)
    listener = await serve(server)
    addresses = ", ".join(
        "%s:%d" % sock.getsockname()[:2] for sock in listener.sockets
    )
    print("repro query server listening on %s" % addresses)
    try:
        async with listener:
            await listener.serve_forever()
    finally:
        server.shutdown()


def main(argv=None):
    options = build_parser().parse_args(argv)
    try:
        asyncio.run(_run(options))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
