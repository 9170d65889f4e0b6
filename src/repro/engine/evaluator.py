"""Bottom-up, set-oriented evaluation of QGM graphs.

Every uncorrelated box is materialised at most once (common subexpressions
are shared). Correlated boxes — boxes whose subtree references quantifiers
of enclosing boxes — are evaluated per outer binding (with optional
memoisation). Recursive strongly connected components run by fixpoint
iteration (:mod:`repro.engine.recursion`).

Join processing inside a select box is pipelined in the supplied join order
(the plan optimizer's choice): each quantifier is attached by hash join
when an applicable equality predicate exists, else by nested loop, and
every predicate is applied at the earliest point where all of its inputs
are bound — which is exactly why the join order matters to EMST. A LEFT
OUTER JOIN takes its matches from the same attach
(:meth:`Evaluator._join_method` and :meth:`Evaluator._pair`) and pads a
preserved row that has none.

This module is also the one row-at-a-time definition of what each box kind
means: the post-join phase of a select box (:meth:`Evaluator.surviving`),
the groupby fold (:meth:`Evaluator.fold_groups`), the outer join
(:meth:`Evaluator.outer_join`), bag INTERSECT/EXCEPT
(:func:`intersect_except`) and the semi/anti-join test
(:func:`quantifier_passes`) take rows (or environments) in and give rows
out, whoever calls them — the Correlated strategy, which only reaches boxes
differently, and the batch engine for the boxes and E/A tests it runs one
row at a time. Every expression on this path runs as the closure
:func:`~repro.engine.expressions.compile_expr` made of it, compiled once
per execution (:meth:`Evaluator._fn`, :meth:`Evaluator._pred`). The batch
operators are differentially tested against it.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType
from repro.qgm.stratum import correlation_externals, reduced_dependency_graph
from repro.engine.aggregates import make_accumulator
from repro.engine.expressions import PARAMETERS, compile_expr, compile_predicate
from repro.engine.storage import index_matches

#: Join-probe granularity of cooperative cancellation/deadline checks: the
#: governor's clock read is cheap but not free, so the hot loops consult it
#: once per this many probes. Small enough that a deadline or disconnect is
#: observed within milliseconds even inside one monster join.
CHECKPOINT_INTERVAL = 2048


class Result:
    """Final query output: column names plus rows (list of tuples)."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def as_dicts(self):
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self):
        return "<Result %d rows: %s>" % (len(self.rows), ", ".join(self.columns))


class EvaluatorStats:
    """Work counters; the benchmarks report these alongside elapsed time.

    The ``batch_*`` counters are filled only by the columnar
    :class:`~repro.engine.columnar.BatchEvaluator`; they appear in
    :meth:`as_dict` (and hence in explain output) only when batch work
    actually happened, so tuple-engine stats keep their historical shape.
    """

    def __init__(self):
        self.box_evaluations = 0
        self.rows_produced = 0
        self.join_probes = 0
        self.correlated_evaluations = 0
        #: Column batches materialised (one per pipeline step per box).
        self.batches = 0
        #: Total rows across those batches (mean batch width = ratio).
        self.batch_rows = 0
        #: Hash-probe keys looked up in batch joins.
        self.batch_probes = 0
        #: Rows returned by those probes (fan-out = matches / probes).
        self.batch_probe_matches = 0

    def as_dict(self):
        out = {
            "box_evaluations": self.box_evaluations,
            "rows_produced": self.rows_produced,
            "join_probes": self.join_probes,
            "correlated_evaluations": self.correlated_evaluations,
        }
        if self.batches:
            out["batches"] = self.batches
            out["batch_rows"] = self.batch_rows
            out["rows_per_batch"] = round(self.batch_rows / self.batches, 2)
            out["batch_probes"] = self.batch_probes
            if self.batch_probes:
                out["probe_fanout"] = round(
                    self.batch_probe_matches / self.batch_probes, 2
                )
        return out


class Evaluator:
    """Evaluates a :class:`~repro.qgm.model.QueryGraph` against a database.

    ``params`` are the values of the statement's ``?`` slots, for a graph
    that still carries :class:`~repro.qgm.expr.QParam` nodes; they ride in
    the root environment (see :data:`~repro.engine.expressions.PARAMETERS`).
    """

    def __init__(
        self, graph, database, join_orders=None, memoize_correlated=True,
        governor=None, params=None,
    ):
        self.graph = graph
        self.database = database
        self.join_orders = join_orders or {}
        self.memoize_correlated = memoize_correlated
        # The one resilience hook (optional): the governor meters rows,
        # correlated work and the wall clock.
        self.governor = governor
        self.stats = EvaluatorStats()
        #: The environment of every uncorrelated evaluation. Shared, never
        #: mutated: code that binds a quantifier copies it first.
        self.root_env = {PARAMETERS: tuple(params)} if params else {}
        self._probe_budget = CHECKPOINT_INTERVAL
        self._materialized = {}
        self._correlated_memo = {}
        self._external_cache = {}
        self._select_plans = {}
        self._index_cache = {}
        self._compiled = {}
        self._compiled_predicates = {}
        self._components, self._component_of = self._dependency_components()

    # -- public --------------------------------------------------------------

    def run(self):
        """Evaluate the whole graph and return a :class:`Result`."""
        top = self.graph.top_box
        rows = self.rows_for(top, self.root_env)
        rows = _apply_order_limit(rows, self.graph.order_by, self.graph.limit)
        return Result(columns=top.column_names, rows=rows)

    # -- graph analysis ------------------------------------------------------------

    def _dependency_components(self):
        """``(components, component_of)`` of the box dependency graph."""
        return reduced_dependency_graph(self.graph)

    def fixpoint_plan(self, component):
        """The graph-only analysis :func:`run_fixpoint` runs on."""
        from repro.engine.recursion import FixpointPlan

        return FixpointPlan(component)

    # -- compiled expressions ----------------------------------------------------

    def _fn(self, expr):
        """The compiled value closure for ``expr`` (cached)."""
        fn = self._compiled.get(id(expr))
        if fn is None:
            fn = compile_expr(expr)
            self._compiled[id(expr)] = fn
        return fn

    def _pred(self, expr):
        """The compiled TRUE-only predicate closure for ``expr`` (cached)."""
        fn = self._compiled_predicates.get(id(expr))
        if fn is None:
            fn = compile_predicate(expr)
            self._compiled_predicates[id(expr)] = fn
        return fn

    # -- box materialisation ----------------------------------------------------

    def rows_for(self, box, env):
        """Rows of ``box`` under outer bindings ``env``."""
        externals = self._externals(box)
        if externals:
            return self._rows_correlated(box, env, externals)
        cached = self._materialized.get(id(box))
        if cached is not None:
            return cached
        component = self._components[self._component_of[id(box)]]
        if len(component) > 1 or self_recursive(box):
            from repro.engine.recursion import run_fixpoint

            run_fixpoint(self, component)
            return self._materialized[id(box)]
        rows = self.evaluate_box(box, self.root_env)
        rows = self._finalize(box, rows)
        self._materialized[id(box)] = rows
        return rows

    def _rows_correlated(self, box, env, externals):
        bindings = []
        for quantifier in externals:
            row = env.get(quantifier)
            if row is None:
                raise ExecutionError(
                    "correlated box %r evaluated without a binding for %r"
                    % (box.name, quantifier.name)
                )
            bindings.append((id(quantifier), row))
        self.stats.correlated_evaluations += 1
        if self.governor is not None:
            self.governor.charge_correlated(
                "correlated evaluation of box %r" % box.name
            )
        if self.memoize_correlated:
            key = (id(box), tuple(bindings))
            cached = self._correlated_memo.get(key)
            if cached is not None:
                return cached
        rows = self.evaluate_box(box, env)
        rows = self._finalize(box, rows)
        if self.memoize_correlated:
            self._correlated_memo[key] = rows
        return rows

    def _checkpoint(self, box):
        """Cooperative cancellation/deadline checkpoint, amortized over
        :data:`CHECKPOINT_INTERVAL` join probes."""
        if self.governor is None:
            return
        self._probe_budget -= 1
        if self._probe_budget <= 0:
            self._probe_budget = CHECKPOINT_INTERVAL
            self.governor.checkpoint("join processing in box %r" % box.name)

    def _finalize(self, box, rows):
        self.stats.box_evaluations += 1
        self.stats.rows_produced += len(rows)
        if self.governor is not None:
            self.governor.charge_rows(len(rows), "evaluation of box %r" % box.name)
        if box.distinct == DistinctMode.ENFORCE:
            rows = dedupe(rows)
        return rows

    # -- externals (correlation detection) -----------------------------------------

    def _externals(self, box):
        """The quantifiers ``box`` is correlated on (computed on first use:
        a run consults only the boxes it reaches)."""
        cached = self._external_cache.get(id(box))
        if cached is None:
            cached = correlation_externals([box])[id(box)]
            self._external_cache[id(box)] = cached
        return cached

    # -- box evaluation ---------------------------------------------------------------

    def evaluate_box(self, box, env):
        if box.kind == BoxKind.BASE:
            return self.database.table(box.table_name).rows
        if box.kind == BoxKind.SELECT:
            return self._evaluate_select(box, env)
        if box.kind == BoxKind.GROUPBY:
            input_rows = self.rows_for(box.quantifiers[0].input_box, env)
            return self.fold_groups(box, input_rows, env)
        if box.kind == BoxKind.UNION:
            rows = []
            for quantifier in box.quantifiers:
                rows.extend(self.rows_for(quantifier.input_box, env))
            return rows
        if box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT):
            left, right = [self.rows_for(q.input_box, env) for q in box.quantifiers]
            return intersect_except(box, left, right)
        if box.kind == BoxKind.OUTERJOIN:
            return self._evaluate_outerjoin(box, env)
        evaluate_custom = box.properties.get("evaluate")
        if evaluate_custom is not None:
            return evaluate_custom(self, box, env)
        raise ExecutionError("cannot evaluate box kind %r" % box.kind)

    # -- select boxes ------------------------------------------------------------------

    def _join_order(self, box):
        return ordered_foreach(box, self.join_orders.get(box.box_id))

    def _select_plan(self, box):
        plan = self._select_plans.get(id(box))
        if plan is None:
            plan = self._select_plans[id(box)] = SelectPlan(box)
        return plan

    def _evaluate_select(self, box, env):
        envs, applied = self._join(box, env)
        return self.project(box, self.surviving(box, envs, applied))

    def _join(self, box, env):
        """The join phase of a select box: attach its foreach quantifiers
        in plan order, applying every join predicate as soon as its inputs
        are bound. Returns the environments and the ids of the predicates
        applied on the way."""
        plan = self._select_plan(box)
        envs = [dict(env)]
        bound = set()
        applied = set()
        for quantifier in self._join_order(box):
            envs = self._attach_quantifier(
                box, quantifier, envs, bound, plan, applied
            )
            bound.add(quantifier)
            if not envs:
                break
        return envs, applied

    def surviving(self, box, envs, applied=()):
        """The post-join phase of a select box, over the environments its
        join phase bound.

        Applies the join predicates not in ``applied`` (e.g. pure
        correlation filters, which reference no local quantifier), binds
        each scalar subquery's row into the environments (in place), applies
        the predicates that waited for those, and tests the E/A quantifiers.
        Returns the surviving environments: the same objects, in order.
        """
        plan = self._select_plan(box)
        envs = self._keep_true(
            envs, [p for p in plan.join_predicates if id(p) not in applied]
        )
        # A decorrelated subquery holds one row per binding; its selector
        # predicates (the correlation equalities EMST lifted) pick the
        # current outer row's match — no match binds NULLs and the row
        # survives, exactly the original correlated semantics.
        for quantifier in plan.scalars:
            selectors = quantifier.selector_predicates
            for current in envs:
                current[quantifier] = self._scalar_row(
                    quantifier, current, selectors
                )
        envs = self._keep_true(envs, plan.deferred)
        for quantifier, attached in plan.filters:
            passes = self._filter_test(quantifier, attached)
            envs = [current for current in envs if passes(current)]
        return envs

    def _keep_true(self, envs, predicates):
        """The environments in which every predicate is TRUE (a predicate
        is compiled only when there is an environment to test)."""
        for predicate in predicates:
            if not envs:
                break
            holds = self._pred(predicate)
            envs = [e for e in envs if holds(e)]
        return envs

    def project(self, box, envs):
        """The output rows of a select box, one per environment."""
        projection = [self._fn(column.expr) for column in box.columns]
        return [tuple(fn(current) for fn in projection) for current in envs]

    def _attach_quantifier(self, box, quantifier, envs, bound, plan, applied):
        """Join one foreach quantifier into the current environments."""
        applicable = plan.applicable(quantifier, bound, applied)
        candidates, tests = self._join_method(
            quantifier, applicable, plan.local, bound
        )
        if candidates is None:
            child = quantifier.input_box
            rows_for = self.rows_for
            candidates = lambda current: rows_for(child, current)
        new_envs = self._pair(box, quantifier, envs, candidates, tests)
        applied.update(id(p) for p in applicable)
        return new_envs

    def _join_method(self, quantifier, predicates, local, bound):
        """How ``quantifier`` joins an environment that binds ``bound``:
        ``(candidates, tests)``.

        With an equality among ``predicates`` to hash on (and an
        uncorrelated input), ``candidates(env)`` probes an index of the
        input's rows with the environment's key — none for a NULL key —
        and ``tests`` are the compiled residual predicates. Otherwise
        ``candidates`` is None (every row of the input is a candidate)
        and ``tests`` are all of ``predicates``, compiled."""
        child = quantifier.input_box
        hash_keys, residual = split_hashable(predicates, quantifier, local, bound)
        if not hash_keys or self._externals(child):
            return None, [self._pred(p) for p in predicates]
        index = self._hash_index(child, quantifier, tuple(k[0] for k in hash_keys))
        probes = [self._fn(k[1]) for k in hash_keys]

        def candidates(current):
            key = tuple(fn(current) for fn in probes)
            if any(v is None for v in key):
                return ()  # NULL never equals anything
            return index_matches(index, key)

        return candidates, [self._pred(p) for p in residual]

    def _pair(self, box, quantifier, envs, candidates, tests):
        """Every environment of ``envs`` extended by each of its
        ``candidates`` rows for ``quantifier`` that passes all ``tests``,
        in order; each pair tried is one join probe."""
        new_envs = []
        for current in envs:
            for row in candidates(current):
                self.stats.join_probes += 1
                self._checkpoint(box)
                extended = dict(current)
                extended[quantifier] = row
                if all(fn(extended) for fn in tests):
                    new_envs.append(extended)
        return new_envs

    def _hash_index(self, child, quantifier, key_exprs):
        """Index the child's rows by the values of ``key_exprs`` (expressions
        over ``quantifier`` only).

        For a base table indexed on plain columns, the table's persistent
        hash index is used (warm across queries — the access path a real
        system's indexes provide); derived boxes get a transient index per
        evaluation."""
        if child.kind == BoxKind.BASE and all(
            isinstance(k, qe.QColRef) for k in key_exprs
        ):
            table = self.database.table(child.table_name)
            return table.index_on(tuple(k.column for k in key_exprs))
        # Keyed on the expressions' identity: the same predicate objects
        # come back on every probe of one evaluation, and the first
        # element lets the fixpoint drop a member's indexes by box.
        cache_key = (id(child), tuple(id(k) for k in key_exprs))
        index = self._index_cache.get(cache_key)
        if index is not None:
            return index
        index = {}
        key_fns = [self._fn(k) for k in key_exprs]
        root_env = self.root_env
        for row in self.rows_for(child, root_env):
            env = {quantifier: row, **root_env}
            key = tuple(fn(env) for fn in key_fns)
            if any(v is None for v in key):
                continue
            index.setdefault(key, []).append(row)
        self._index_cache[cache_key] = index
        return index

    def _scalar_row(self, quantifier, env, selectors=()):
        child = quantifier.input_box
        null_row = tuple([None] * len(child.columns))

        # Fast path for decorrelated subqueries: equality selectors over
        # plain columns probe a hash index instead of scanning all bindings.
        if quantifier.decorrelated and selectors and not self._externals(child):
            keyed, residual = split_hashable(
                selectors, quantifier, {quantifier}, set()
            )
            if not residual:
                index = self._hash_index(
                    child, quantifier, tuple(k[0] for k in keyed)
                )
                probe = tuple(self._fn(k[1])(env) for k in keyed)
                if any(v is None for v in probe):
                    return null_row
                matches = index_matches(index, probe)
                if len(matches) > 1:
                    raise ExecutionError(
                        "scalar subquery %r returned %d rows for one binding"
                        % (quantifier.name, len(matches))
                    )
                return matches[0] if matches else null_row

        rows = self.rows_for(child, env)
        if not quantifier.decorrelated and len(rows) > 1:
            raise ExecutionError(
                "scalar subquery %r returned %d rows" % (quantifier.name, len(rows))
            )
        tests = [self._pred(p) for p in selectors]
        matches = []
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            if all(fn(extended) for fn in tests):
                matches.append(row)
                if len(matches) > 1:
                    raise ExecutionError(
                        "scalar subquery %r returned %d rows for one binding"
                        % (quantifier.name, len(matches))
                    )
        if matches:
            return matches[0]
        return null_row

    def _filter_test(self, quantifier, predicates):
        """The semi-join (E) / anti-join (A) test of E/A ``quantifier``
        with its attached ``predicates`` (compiled here, whether or not
        an environment reaches the test): ``passes(env) -> bool``."""
        fns = [self._fn(p) for p in predicates]
        child = quantifier.input_box
        return lambda env: quantifier_passes(
            quantifier, fns, env, self.rows_for(child, env)
        )

    # -- groupby boxes -----------------------------------------------------------------

    def fold_groups(self, box, input_rows, env):
        """The output rows of groupby ``box`` over ``input_rows`` (rows of
        its one quantifier), groups in first-seen order."""
        quantifier = box.quantifiers[0]
        aggregates = [
            column.expr
            for column in box.columns
            if isinstance(column.expr, qe.QAggregate)
        ]

        def accumulators():
            return [
                make_accumulator(
                    agg.func, star=agg.arg is None, distinct=agg.distinct
                )
                for agg in aggregates
            ]

        key_fns = [self._fn(k) for k in box.group_keys]
        arg_fns = [
            None if agg.arg is None else self._fn(agg.arg) for agg in aggregates
        ]
        # Non-aggregate outputs read the group's first row environment.
        output_fns = [
            None if isinstance(column.expr, qe.QAggregate)
            else self._fn(column.expr)
            for column in box.columns
        ]
        # key -> (accumulators, the group's first row environment)
        groups = {}
        for row in input_rows:
            self._checkpoint(box)
            row_env = dict(env)
            row_env[quantifier] = row
            key = tuple(fn(row_env) for fn in key_fns)
            state = groups.get(key)
            if state is None:
                state = groups[key] = (accumulators(), row_env)
            for accumulator, arg_fn in zip(state[0], arg_fns):
                accumulator.add(None if arg_fn is None else arg_fn(row_env))
        if not groups and not box.group_keys:
            # Scalar aggregate over an empty input: one row, NULL in its
            # non-aggregate columns.
            groups[()] = (accumulators(), None)

        rows = []
        for group, representative in groups.values():
            results = iter([accumulator.result() for accumulator in group])
            rows.append(
                tuple(
                    next(results)
                    if fn is None
                    else None
                    if representative is None
                    else fn(representative)
                    for fn in output_fns
                )
            )
        return rows

    # -- outer joins ---------------------------------------------------------------------

    def _evaluate_outerjoin(self, box, env):
        """LEFT OUTER JOIN: each preserved-side row joins the right side
        as a foreach quantifier joins in a select box — hash probe or
        scan, the ON predicates as the tests — and is NULL-padded when
        nothing matches."""
        left_q, right_q = box.quantifiers
        left_rows = self.rows_for(left_q.input_box, env)
        candidates, tests = self._join_method(
            right_q, box.predicates, set(box.quantifiers), {left_q}
        )
        if candidates is None:
            right_rows = self.rows_for(right_q.input_box, env)
            candidates = lambda current: right_rows
        return self.outer_join(
            box, env, left_rows,
            lambda current: self._pair(box, right_q, [current], candidates, tests),
        )

    def outer_join(self, box, env, left_rows, matches):
        """The rows of OUTERJOIN ``box`` under ``env`` over its preserved
        side's ``left_rows``: per row, the environments ``matches(env)``
        extends it to, or — none — the row with NULLs on the right;
        projected."""
        left_q, right_q = box.quantifiers
        null_row = (None,) * len(right_q.input_box.columns)
        envs = []
        for left_row in left_rows:
            current = dict(env)
            current[left_q] = left_row
            matched = matches(current)
            if matched:
                envs.extend(matched)
            else:
                current[right_q] = null_row
                envs.append(current)
        return self.project(box, envs)


class SelectPlan:
    """How a select box's quantifiers and predicates divide between the
    join phase and the post-join phase. The graph alone decides it, so the
    engines that interpret the graph and the compiler that lowers it read
    the same division."""

    __slots__ = (
        "local", "locals_of", "join_predicates", "scalars", "deferred",
        "filters",
    )

    def __init__(self, box):
        #: The box's own quantifiers.
        self.local = local = set(box.quantifiers)
        #: ``id(predicate) -> the local quantifiers it references``.
        self.locals_of = locals_of = {
            id(predicate): {
                ref.quantifier
                for ref in qe.column_refs(predicate)
                if ref.quantifier in local
            }
            for predicate in box.predicates
        }
        #: Scalar-subquery quantifiers, bound once the joins are done.
        self.scalars = [
            q for q in box.quantifiers if q.qtype == QuantifierType.SCALAR
        ]
        filters = [
            q
            for q in box.quantifiers
            if q.qtype in (QuantifierType.EXISTENTIAL, QuantifierType.ANTI)
        ]
        # Predicates touching a scalar/E/A quantifier wait until it is bound.
        filter_set = set(filters)
        waiting = set(self.scalars) | filter_set
        #: Predicates over foreach (and outer) quantifiers only.
        self.join_predicates = [
            p for p in box.predicates if not (locals_of[id(p)] & waiting)
        ]
        waited = [p for p in box.predicates if locals_of[id(p)] & waiting]
        #: Predicates that waited for scalar subqueries only.
        self.deferred = [
            p for p in waited if not (locals_of[id(p)] & filter_set)
        ]
        #: ``(E/A quantifier, the predicates it is tested with)`` pairs.
        self.filters = [
            (q, [p for p in waited if q in locals_of[id(p)]]) for q in filters
        ]

    def applicable(self, quantifier, bound, applied):
        """The join predicates, not yet ``applied``, whose local inputs
        are all bound once ``quantifier`` joins ``bound``."""
        reachable = bound | {quantifier}
        return [
            p
            for p in self.join_predicates
            if id(p) not in applied and self.locals_of[id(p)] <= reachable
        ]


def ordered_foreach(box, ordered_names):
    """``box``'s foreach quantifiers in the plan's order: the named ones
    first, as named, then the rest in declaration order."""
    foreach = box.foreach_quantifiers()
    if not ordered_names:
        return foreach
    by_name = {q.name: q for q in foreach}
    ordered = [by_name[name] for name in ordered_names if name in by_name]
    placed = set(ordered_names)
    remaining = [q for q in foreach if q.name not in placed]
    return ordered + remaining


def hashable_equality(predicate, quantifier, local, bound):
    """If ``predicate`` is an equality usable to hash-join ``quantifier``,
    return (key_expr_over_quantifier, probe_expr_over_bound); else None."""
    if not (isinstance(predicate, qe.QBinary) and predicate.op == "="):
        return None
    for side, other in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        side_local = {
            r.quantifier for r in qe.column_refs(side) if r.quantifier in local
        }
        other_local = {
            r.quantifier for r in qe.column_refs(other) if r.quantifier in local
        }
        if side_local == {quantifier} and quantifier not in other_local:
            if other_local <= bound:
                # The key side must reference nothing but the quantifier
                # itself (no correlation mixed in) to be indexable.
                if all(
                    r.quantifier is quantifier for r in qe.column_refs(side)
                ):
                    return (side, other)
    return None


def split_hashable(predicates, quantifier, local, bound):
    """Divide ``predicates`` into the ``(key, probe)`` pairs of those usable
    to hash-join ``quantifier`` (see :func:`hashable_equality`) and the
    residual predicates."""
    pairs = []
    residual = []
    for predicate in predicates:
        pair = hashable_equality(predicate, quantifier, local, bound)
        if pair is not None:
            pairs.append(pair)
        else:
            residual.append(predicate)
    return pairs, residual


def self_recursive(box):
    return any(q.input_box is box for q in box.quantifiers)


def dedupe(rows):
    """``rows`` without duplicates, first occurrences in order."""
    return list(dict.fromkeys(rows))


def quantifier_passes(quantifier, predicate_fns, env, rows):
    """Semi-join (E) / anti-join (A) test of one environment against
    ``rows``, the rows of the quantifier's input under that environment;
    ``predicate_fns`` are the compiled value closures of the predicates
    attached to the quantifier.

    E passes when some row makes every predicate TRUE. A passes when no
    row does — and, for a NULL-aware quantifier (NOT IN), when none leaves
    the outcome UNKNOWN either."""
    if quantifier.qtype == QuantifierType.EXISTENTIAL:
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            if all(fn(extended) is True for fn in predicate_fns):
                return True
        return False
    saw_unknown = False
    for row in rows:
        extended = dict(env)
        extended[quantifier] = row
        values = [fn(extended) for fn in predicate_fns]
        if all(v is True for v in values):
            return False
        if quantifier.null_aware and all(v is not False for v in values):
            saw_unknown = True
    return not (quantifier.null_aware and saw_unknown)


def intersect_except(box, left, right):
    """Bag INTERSECT / EXCEPT of an INTERSECT or EXCEPT ``box`` over its two
    inputs' rows: set semantics under DISTINCT enforcement, multiplicity
    arithmetic (min / subtract) under ALL; ``left``'s order is kept."""
    keep_matched = box.kind == BoxKind.INTERSECT
    if box.distinct == DistinctMode.ENFORCE:
        members = set(right)
        return [row for row in dedupe(left) if (row in members) == keep_matched]
    remaining = {}
    for row in right:
        remaining[row] = remaining.get(row, 0) + 1
    rows = []
    for row in left:
        matched = remaining.get(row, 0) > 0
        if matched:
            remaining[row] -= 1
        if matched == keep_matched:
            rows.append(row)
    return rows


def _sort_key_with_nulls(row, order_by):
    key = []
    for ordinal, ascending in order_by:
        value = row[ordinal]
        # NULLs sort last regardless of direction.
        if ascending:
            key.append((value is None, value))
        else:
            key.append((value is None, _Reversed(value)))
    return tuple(key)


class _Reversed:
    """Inverts comparison order for DESC keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        if self.value is None or other.value is None:
            return False
        return other.value < self.value

    def __eq__(self, other):
        return self.value == other.value


def _apply_order_limit(rows, order_by, limit):
    if order_by:
        rows = sorted(rows, key=lambda row: _sort_key_with_nulls(row, order_by))
    if limit is not None:
        rows = rows[:limit]
    return list(rows)
