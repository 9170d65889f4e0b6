"""High-level public API.

:class:`Connection` wraps a :class:`~repro.engine.Database` and executes
SQL under one of the paper's three strategies:

* ``"original"`` — no query rewrite; plan-optimize join orders and evaluate
  bottom-up, fully materialising every view (Table 1, column *Original*),
* ``"correlated"`` — no query rewrite; evaluate derived-table references
  tuple-at-a-time with per-binding pushdown (column *Correlated*),
* ``"emst"`` — the full pipeline of Figure 3: rewrite phase 1 → plan pass 1
  → rewrite phase 2 with the EMST rule → rewrite phase 3 → plan pass 2 →
  execute the cheaper plan (column *EMST*),
* ``"norewrite"`` / ``"phase1"`` — ablations: no rules at all / every rule
  except EMST.

Example::

    from repro import Connection, Database

    db = Database()
    db.create_table("t", ["a", "b"], primary_key=["a"], rows=[(1, 2)])
    conn = Connection(db)
    result = conn.execute("SELECT a FROM t WHERE b = 2")
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import NotSupportedError, ReproError
from repro.resilience.fallback import run_with_fallback
from repro.sql import ast as sql_ast, parse_script
from repro.sql.ast import CreateTable, CreateView, Delete, InsertValues, Query, Update
from repro.qgm import build_query_graph, render_text, validate_graph
from repro.qgm.model import BoxKind
from repro.engine import BatchEvaluator, CorrelatedEvaluator, Evaluator
from repro.engine.columnar import compile_program
from repro.optimizer import optimize_graph
from repro.optimizer.heuristic import optimize_with_heuristic

STRATEGIES = ("original", "correlated", "emst", "phase1", "norewrite")

#: Execution engines: ``"batch"`` is the columnar vectorized executor and
#: the default everywhere; ``"tuple"`` the classic row-at-a-time engine,
#: kept as the differential oracle that tests and Table 1 name.
EXECUTORS = ("tuple", "batch")


def check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise ReproError(
            "unknown strategy %r (expected one of %s)"
            % (strategy, ", ".join(STRATEGIES))
        )


def check_executor(executor):
    if executor not in EXECUTORS:
        raise ReproError(
            "unknown executor %r (expected one of %s)"
            % (executor, ", ".join(EXECUTORS))
        )


def running_executor(strategy, executor):
    """The executor that runs ``strategy`` when ``executor`` is asked for:
    the ``correlated`` strategy is tuple-at-a-time by definition (its
    whole point is per-binding evaluation), whatever the switch says.
    Whatever reports an executor reports this."""
    return "tuple" if strategy == "correlated" else executor


def run_plan(planned, database, executor, governor=None, params=None):
    """Run one planned statement on one executor; returns ``(Result,
    EvaluatorStats)``.

    ``planned`` is a :class:`PreparedQuery` or a server
    :class:`~repro.server.plan_cache.CachedPlan`: anything with ``graph``,
    ``plan``, ``strategy`` and a ``program`` slot. This is the one place
    that maps ``(strategy, executor)`` to an engine — the prepared-query,
    connection and server paths all come through here:

    * the ``correlated`` strategy runs on the tuple engine's
      :class:`CorrelatedEvaluator` whatever the executor switch (see
      :func:`running_executor`);
    * ``executor="batch"`` runs the compiled program with ``params`` as
      its parameter vector. The program is compiled on first use and kept
      on ``planned.program`` (two threads racing on the first use both
      compile and one assignment wins; the programs are interchangeable,
      so no lock is taken);
    * ``executor="tuple"`` interprets the graph.

    Every engine carries ``params`` in its root environment; no engine
    needs them bound into the graph.
    """
    check_executor(executor)
    graph = planned.graph
    strategy = planned.strategy
    join_orders = planned.plan.join_orders if planned.plan is not None else None
    if strategy == "correlated":
        evaluator = CorrelatedEvaluator(
            graph, database, join_orders=join_orders,
            governor=governor, params=params,
        )
        return evaluator.run(), evaluator.stats
    # The Original strategy re-evaluates correlated subqueries per outer
    # row without caching, like the systems of the era.
    options = dict(
        join_orders=join_orders,
        memoize_correlated=(strategy == "emst"),
        governor=governor,
        params=params,
    )
    if executor == "batch":
        if planned.program is None:
            planned.program = compile_program(graph, join_orders)
        evaluator = BatchEvaluator(
            graph, database, program=planned.program, **options
        )
    else:
        evaluator = Evaluator(graph, database, **options)
    return evaluator.run(), evaluator.stats


def parse_single_query(sql_text, other_statements=None, wrong_count=None):
    """Parse ``sql_text`` as exactly one query plus its inline views;
    returns the parsed script.

    ``other_statements`` is the error text for a script holding anything
    but views and queries (None: such statements are ignored), and
    ``wrong_count`` the text for a script without exactly one query, for
    the call sites that word these differently."""
    script = parse_script(sql_text)
    if other_statements is not None and any(
        not isinstance(statement, (CreateView, Query))
        for statement in script.statements
    ):
        raise ReproError(other_statements)
    if len(script.queries) != 1:
        raise ReproError(
            wrong_count
            or "expected exactly one query, got %d" % len(script.queries)
        )
    return script


def _describe_rules(context):
    """Per-rule observability lines for ``Connection.explain``, which
    prepares without a policy: no rollback, quarantine or soundness
    verdict can arise there (those are in ``outcome.stats``)."""
    names = sorted(set(context.rule_seconds) | set(context.firing_counts))
    if not names:
        return []
    lines = ["rule timings:"]
    for name in names:
        lines.append("  %s: fired %d, %.4fs" % (
            name,
            context.firing_counts.get(name, 0),
            context.rule_seconds.get(name, 0.0),
        ))
    return lines


def _constant_value(expr):
    """Evaluate a constant AST expression (INSERT ... VALUES rows)."""
    from repro.engine.expressions import arithmetic

    if isinstance(expr, sql_ast.Literal):
        return expr.value
    if isinstance(expr, sql_ast.UnaryOp) and expr.op == "-":
        value = _constant_value(expr.operand)
        return None if value is None else -value
    if isinstance(expr, sql_ast.BinaryOp) and expr.op in ("+", "-", "*", "/", "%", "||"):
        return arithmetic(
            expr.op, _constant_value(expr.left), _constant_value(expr.right)
        )
    raise NotSupportedError(
        "INSERT values must be constants, got %r" % type(expr).__name__
    )


@dataclass
class ExecutionOutcome:
    """A query result plus everything observed while producing it."""

    result: object
    strategy: str
    graph: object
    plan: Optional[object] = None
    heuristic: Optional[object] = None
    elapsed_seconds: float = 0.0
    rewrite_seconds: float = 0.0
    #: Which execution engine produced the result ("tuple" or "batch").
    executor: str = "batch"
    stats: Dict[str, int] = field(default_factory=dict)
    #: A FallbackReport when the query ran under a ResiliencePolicy.
    resilience: Optional[object] = None

    @property
    def rows(self):
        return self.result.rows

    @property
    def columns(self):
        return self.result.columns

    @property
    def fallback_strategy(self):
        """The strategy the query effectively ran under (differs from
        ``strategy`` only when the resilience layer degraded it)."""
        if self.resilience is not None:
            return self.resilience.fallback_strategy
        return self.strategy

    @property
    def quarantined_rules(self):
        return (
            sorted(self.resilience.quarantined)
            if self.resilience is not None
            else []
        )


@dataclass
class PreparedQuery:
    """A query that has been parsed, rewritten and planned once; each
    ``execute`` call only runs the execution engine (the paper's elapsed
    times measure execution of already-optimized queries)."""

    database: object
    graph: object
    plan: Optional[object]
    heuristic: Optional[object]
    strategy: str
    resilience: Optional[object] = None
    executor: str = "batch"
    #: The batch executor's compiled program: built by the first
    #: ``execute`` that needs it, reused by every later one. It depends on
    #: ``graph`` and ``plan`` only, never on data.
    program: Optional[object] = field(default=None, repr=False, compare=False)

    def execute(self, params=None):
        """Run the prepared plan; returns ``(Result, EvaluatorStats)``.
        ``params`` are the values of the statement's ``?`` slots."""
        governor = None
        if self.resilience is not None:
            # Budgets are per execution: rewrite/plan costs were paid at
            # prepare time, so each run gets the full execution budget.
            self.resilience.governor.begin_query()
            governor = self.resilience.governor
        return run_plan(
            self, self.database, self.executor,
            governor=governor, params=params,
        )


class Connection:
    """Executes SQL against a database under a chosen strategy.

    ``resilience`` (a :class:`~repro.resilience.ResiliencePolicy`) makes
    every query on this connection fail soft: per-query resource budgets,
    rule rollback + quarantine during rewrite, and degradation along the
    strategy chain ``emst -> phase1 -> original`` instead of raising. The
    same policy object can also be passed per call to ``execute_query``/
    ``explain_execute``.

    ``executor`` selects the execution engine for every query on the
    connection: ``"batch"`` (default) is the columnar vectorized one,
    ``"tuple"`` the classic row-at-a-time evaluator, the oracle the
    differential tests compare against.
    """

    def __init__(self, database, resilience=None, executor="batch"):
        check_executor(executor)
        self.database = database
        self.resilience = resilience
        self.executor = executor

    def prepare_statement(self, sql_text, strategy="emst", resilience=None,
                          executor=None):
        """Parse, rewrite and plan once; returns a :class:`PreparedQuery`."""
        resilience = resilience if resilience is not None else self.resilience
        executor = executor if executor is not None else self.executor
        if resilience is not None:
            resilience.begin_query()
        script = parse_single_query(sql_text)
        with self.database.catalog.scoped_views(script.views):
            graph, plan, heuristic, _ = self.prepare(
                script.queries[0], strategy, resilience=resilience
            )
        return PreparedQuery(
            database=self.database,
            graph=graph,
            plan=plan,
            heuristic=heuristic,
            strategy=strategy,
            resilience=resilience,
            executor=executor,
        )

    # -- statements -------------------------------------------------------------

    def run_script(self, sql_text, strategy="emst"):
        """Run a multi-statement script. CREATE TABLE/VIEW and INSERT
        statements update the database; each query executes. Returns the
        outcome of the last query (None when the script has no query)."""
        script = parse_script(sql_text)
        outcome = None
        for statement in script.statements:
            if isinstance(statement, CreateView):
                self.database.catalog.add_view(statement)
            elif isinstance(statement, CreateTable):
                self._create_table(statement)
            elif isinstance(statement, InsertValues):
                self._insert_values(statement)
            elif isinstance(statement, Delete):
                self._delete(statement)
            elif isinstance(statement, Update):
                self._update(statement)
            elif isinstance(statement, Query):
                outcome = self.execute_query(statement, strategy=strategy)
            else:
                raise NotSupportedError(
                    "unsupported statement %r" % type(statement).__name__
                )
        return outcome

    def _create_table(self, statement):
        from repro.catalog import ColumnDef

        self.database.create_table(
            statement.name,
            [
                ColumnDef(
                    name=c.name,
                    type_name=c.type_name,
                    not_null=c.not_null or c.primary_key,
                )
                for c in statement.columns
            ],
            primary_key=statement.primary_key,
            unique_keys=statement.unique_keys,
            foreign_keys=[
                (fk.columns, fk.ref_table, fk.ref_columns)
                for fk in statement.foreign_keys
            ],
        )

    def _insert_values(self, statement):
        rows = [
            tuple(_constant_value(v) for v in row) for row in statement.rows
        ]
        self.database.insert(statement.table, rows)
        self.database.analyze(statement.table)

    def _select_over_stored_rows(self, table, items, where):
        """UPDATE and DELETE are a select over the table they change:
        ``SELECT items FROM table WHERE where``, compiled and run on the
        batch pipeline over the table's columns — so subqueries and
        correlation in ``where`` and ``items`` mean what they mean in a
        query, and every expression sees the table as it was before the
        statement. Returns ``(positions, projected)``: the positions in
        ``table.rows`` where the predicate holds and the projected
        ``items`` row of each.
        """
        query = sql_ast.Query(
            body=sql_ast.SelectCore(
                items=items,
                from_tables=[sql_ast.TableRef(name=table.schema.name)],
                where=where,
            )
        )
        graph = build_query_graph(query, self.database.catalog)
        box = graph.top_box
        quantifier = box.foreach_quantifiers()[0]
        if quantifier.input_box.kind != BoxKind.BASE:
            # An aggregate puts a groupby box between the select and the
            # table: there is no stored row to select.
            raise NotSupportedError(
                "aggregates over the target table are not supported in "
                "UPDATE/DELETE (use a subquery)"
            )
        program = compile_program(graph)
        state = BatchEvaluator(graph, self.database, program=program)
        operator = program.operators[id(box)]
        rows = table.rows
        batch = operator.select(state, state.root_env)
        if batch.length == 0:
            return [], []
        # The survivors are the row view's own tuples: matched to their
        # positions by identity, never by value, so duplicate rows and
        # 1 / 1.0 / True stay distinct.
        position_of = dict(zip(map(id, rows), range(len(rows))))
        positions = [position_of[id(row)] for row in batch.slots[quantifier]]
        return positions, operator.project(batch)

    def _delete(self, statement):
        table = self.database.table(statement.table)
        positions, _ = self._select_over_stored_rows(
            table, [sql_ast.SelectItem(expr=sql_ast.Star())], statement.where
        )
        hit = set(positions)
        table.rows = [
            row for position, row in enumerate(table.rows)
            if position not in hit
        ]
        self.database.analyze(statement.table)

    def _update(self, statement):
        table = self.database.table(statement.table)
        ordinals = [
            table.schema.column_ordinal(column)
            for column, _ in statement.assignments
        ]
        items = [
            sql_ast.SelectItem(expr=value, alias="a%d" % index)
            for index, (_, value) in enumerate(statement.assignments)
        ]
        positions, values = self._select_over_stored_rows(
            table, items, statement.where
        )
        table.update(positions, ordinals, values)
        self.database.analyze(statement.table)

    def execute(self, sql_text, strategy="emst", executor=None):
        """Parse and execute a single query; returns the Result."""
        return self.explain_execute(
            sql_text, strategy=strategy, executor=executor
        ).result

    def explain_execute(self, sql_text, strategy="emst", resilience=None,
                        executor=None):
        """Parse and execute a single query; returns an ExecutionOutcome.

        The static-analysis report of the executed graph is
        ``repro.analysis.analyze_graph(outcome.graph, catalog)``.
        """
        script = parse_single_query(sql_text)
        with self.database.catalog.scoped_views(script.views):
            return self.execute_query(
                script.queries[0], strategy=strategy, resilience=resilience,
                executor=executor,
            )

    # -- core ---------------------------------------------------------------------

    def prepare(self, query, strategy="emst", resilience=None):
        """Build (and rewrite/plan per strategy) the query graph, then
        validate it; returns (graph, plan_or_None, heuristic_or_None,
        rewrite_seconds)."""
        check_strategy(strategy)
        started = time.perf_counter()
        graph = build_query_graph(query, self.database.catalog)
        plan = heuristic = None
        if strategy in ("original", "correlated"):
            plan = optimize_graph(graph, self.database.catalog)
        elif strategy != "norewrite":
            heuristic = optimize_with_heuristic(
                graph,
                self.database.catalog,
                use_emst=(strategy == "emst"),
                resilience=resilience,
            )
            graph, plan = heuristic.graph, heuristic.plan
        rewrite_seconds = time.perf_counter() - started
        validate_graph(graph)
        return graph, plan, heuristic, rewrite_seconds

    def execute_query(self, query, strategy="emst", resilience=None,
                      executor=None):
        resilience = resilience if resilience is not None else self.resilience
        executor = executor if executor is not None else self.executor
        if resilience is None:
            return self._execute_once(query, strategy, None, executor)
        resilience.begin_query()
        outcome, report = run_with_fallback(
            strategy,
            lambda candidate: self._execute_once(
                query, candidate, resilience, executor
            ),
            quarantine=resilience.quarantine,
        )
        outcome.resilience = report
        return outcome

    def _execute_once(self, query, strategy, resilience, executor):
        """One prepare + execute under one strategy and one executor, no
        fallback; returns the :class:`ExecutionOutcome`."""
        graph, plan, heuristic, rewrite_seconds = self.prepare(
            query, strategy, resilience=resilience
        )
        governor = resilience.governor if resilience is not None else None
        prepared = PreparedQuery(
            database=self.database, graph=graph, plan=plan,
            heuristic=heuristic, strategy=strategy, executor=executor,
        )
        started = time.perf_counter()
        result, evaluator_stats = run_plan(
            prepared, self.database, executor, governor=governor
        )
        elapsed = time.perf_counter() - started
        stats = evaluator_stats.as_dict()
        if heuristic is not None and heuristic.context is not None:
            stats.update(heuristic.context.observability())
        if heuristic is not None and heuristic.relaxed_distinct:
            stats["relaxed_distinct"] = list(heuristic.relaxed_distinct)
        return ExecutionOutcome(
            result=result,
            strategy=strategy,
            graph=graph,
            plan=plan,
            heuristic=heuristic,
            elapsed_seconds=elapsed,
            rewrite_seconds=rewrite_seconds,
            executor=running_executor(strategy, executor),
            stats=stats,
        )

    def explain(self, sql_text, strategy="emst", executor=None):
        """Return a textual explanation: the (rewritten) graph and plan."""
        executor = running_executor(
            strategy, executor if executor is not None else self.executor
        )
        script = parse_single_query(sql_text)
        with self.database.catalog.scoped_views(script.views):
            graph, plan, heuristic, _ = self.prepare(script.queries[0], strategy)
        parts = [
            "strategy: %s" % strategy,
            "executor: %s" % executor,
        ]
        if heuristic is not None:
            parts.append(
                "emst used: %s (cost %.1f vs %.1f without)"
                % (
                    heuristic.used_emst,
                    heuristic.cost_with_emst,
                    heuristic.cost_without_emst,
                )
            )
            if heuristic.context is not None:
                parts.extend(_describe_rules(heuristic.context))
        if plan is not None:
            parts.append(plan.describe())
        parts.append(render_text(graph))
        parts.append("physical plan:")
        if strategy == "correlated":
            # CorrelatedEvaluator interprets the graph; no program is
            # compiled for it, so there is no pipeline to show.
            parts.append(
                "CORRELATED: each derived quantifier is re-evaluated per "
                "outer binding"
            )
        else:
            from repro.optimizer.explain import physical_plan

            parts.append(
                physical_plan(graph, plan, self.database.catalog, executor)
            )
        return "\n".join(parts)
