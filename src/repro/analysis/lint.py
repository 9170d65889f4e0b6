"""Command-line QGM linter.

Runs the full analysis pass suite over the query graphs built from SQL
files (or from the shipped benchmark workloads) and prints every
diagnostic, not just the first::

    python -m repro.analysis.lint queries.sql more.sql
    python -m repro.analysis.lint --workloads
    python -m repro.analysis.lint --workloads --rewritten --strict

A SQL file is processed statement by statement: ``CREATE TABLE`` /
``CREATE VIEW`` / ``INSERT`` populate a scratch catalog so later queries
resolve (and type-check) against it; each query is compiled to QGM and
analyzed — never executed. ``--workloads`` lints the paper's benchmark
suite instead (experiments A–H plus the Example 1.1 query); with
``--rewritten`` each workload query is additionally linted *after* the
full EMST rewrite pipeline, which exercises the magic/adornment checks on
graphs that actually contain magic boxes.

Exit status is 1 when any query produced an *error* diagnostic (or, under
``--strict``, a warning), 0 otherwise — suitable for CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Tuple

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.framework import analyze_graph


def lint_sql_text(text, database=None):
    """Lint every query in a SQL script; returns [(label, AnalysisReport)].

    DDL and INSERT statements update the scratch database so the queries
    after them see the right schemas; queries are analyzed, not run.
    """
    from repro.api import Connection
    from repro.engine import Database
    from repro.qgm import build_query_graph
    from repro.sql import parse_script
    from repro.sql.ast import CreateTable, CreateView, Delete, InsertValues, Query, Update

    database = database if database is not None else Database()
    connection = Connection(database)
    reports = []
    query_index = 0
    for statement in parse_script(text).statements:
        if isinstance(statement, CreateView):
            database.catalog.add_view(statement)
        elif isinstance(statement, CreateTable):
            connection._create_table(statement)
        elif isinstance(statement, InsertValues):
            connection._insert_values(statement)
        elif isinstance(statement, (Delete, Update)):
            continue  # data manipulation is irrelevant to graph analysis
        elif isinstance(statement, Query):
            query_index += 1
            graph = build_query_graph(statement, database.catalog)
            report = analyze_graph(graph, catalog=database.catalog)
            reports.append(("query %d" % query_index, report))
    return reports


def lint_file(path):
    """Lint one SQL file; returns [(label, AnalysisReport)]."""
    with open(path) as handle:
        text = handle.read()
    return [
        ("%s: %s" % (path, label), report)
        for label, report in lint_sql_text(text)
    ]


def _workload_targets(scale):
    """Yield (label, database, views_sql, query_sql) for the shipped
    workloads: experiments A–H plus the paper's Example 1.1 query."""
    from repro.workloads.empdept import PAPER_VIEWS_SQL, PAPER_QUERY_SQL
    from repro.workloads.empdept import build_empdept_database
    from repro.workloads.experiments import EXPERIMENTS

    db = build_empdept_database(n_departments=4, employees_per_department=3)
    yield ("empdept: paper query D", db, PAPER_VIEWS_SQL, PAPER_QUERY_SQL)
    for key in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[key]
        db, views, query = experiment.build(scale)
        yield ("experiment %s: %s" % (key, experiment.title), db, views, query)


def lint_workloads(scale=0.02, rewritten=False):
    """Lint the shipped benchmark workloads; returns [(label, report)].

    ``rewritten`` additionally analyzes each query after the full EMST
    pipeline, so the magic/adornment passes see real magic boxes.
    """
    from repro.api import Connection
    from repro.qgm import build_query_graph
    from repro.sql import parse_script

    results = []
    for label, db, views_sql, query_sql in _workload_targets(scale):
        connection = Connection(db)
        script = parse_script(views_sql + ";" + query_sql)
        for view in script.views:
            db.catalog.add_view(view)
        try:
            for query in script.queries:
                graph = build_query_graph(query, db.catalog)
                results.append(
                    (label, analyze_graph(graph, catalog=db.catalog))
                )
                if rewritten:
                    rewritten_graph, _, _, _ = connection.prepare(
                        query, strategy="emst"
                    )
                    results.append(
                        (
                            label + " [after EMST rewrite]",
                            analyze_graph(rewritten_graph, catalog=db.catalog),
                        )
                    )
        finally:
            for view in script.views:
                db.catalog.drop_view(view.name)
    return results


def _render(label, report, errors_only=False):
    lines = []
    shown = report.sorted()
    if errors_only:
        shown = [d for d in shown if d.severity == Severity.ERROR]
    for diagnostic in shown:
        lines.append("%s: %s" % (label, diagnostic.render()))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Static analysis over QGM graphs built from SQL.",
    )
    parser.add_argument("files", nargs="*", help="SQL script files to lint")
    parser.add_argument(
        "--workloads",
        action="store_true",
        help="lint the shipped benchmark workloads (experiments A-H)",
    )
    parser.add_argument(
        "--rewritten",
        action="store_true",
        help="with --workloads: also lint each query after the EMST rewrite",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="workload build scale (default 0.02; schemas matter, rows do not)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors for the exit status",
    )
    parser.add_argument(
        "--errors-only",
        action="store_true",
        help="print only error diagnostics (exit status is unchanged)",
    )
    args = parser.parse_args(argv)
    if not args.files and not args.workloads:
        parser.error("nothing to lint: pass SQL files or --workloads")

    out = sys.stdout
    results: List[Tuple[str, AnalysisReport]] = []
    status = 0
    for path in args.files:
        try:
            results.extend(lint_file(path))
        except OSError as error:
            sys.stderr.write("error: cannot read %s: %s\n" % (path, error))
            status = 2
        except Exception as error:  # parse/build failure: report, keep going
            sys.stderr.write(
                "error: %s: %s: %s\n" % (path, type(error).__name__, error)
            )
            status = 2
    if args.workloads:
        results.extend(
            lint_workloads(scale=args.scale, rewritten=args.rewritten)
        )

    errors = warnings = infos = 0
    for label, report in results:
        for line in _render(label, report, errors_only=args.errors_only):
            out.write(line + "\n")
        counts = report.counts()
        errors += counts[Severity.ERROR]
        warnings += counts[Severity.WARNING]
        infos += counts[Severity.INFO]
    out.write(
        "%d target(s): %d error(s), %d warning(s), %d info\n"
        % (len(results), errors, warnings, infos)
    )
    if errors or (args.strict and warnings):
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
