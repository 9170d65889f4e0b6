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
are bound — which is exactly why the join order matters to EMST.
"""

from __future__ import annotations

from repro.errors import ExecutionError, QgmError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType
from repro.qgm.stratum import reduced_dependency_graph
from repro.engine.aggregates import make_accumulator
from repro.engine.expressions import (
    PARAMETERS,
    compile_expr,
    compile_predicate,
    evaluate,
    predicate_holds,
)

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
        governor=None, fault_plan=None, params=None,
    ):
        self.graph = graph
        self.database = database
        self.join_orders = join_orders or {}
        self.memoize_correlated = memoize_correlated
        # Resilience hooks: the governor meters rows/correlated work/wall
        # clock, the fault plan injects test failures (both optional).
        self.governor = governor
        self.fault_plan = fault_plan
        self.stats = EvaluatorStats()
        #: The environment of every uncorrelated evaluation. Shared, never
        #: mutated: code that binds a quantifier copies it first.
        self.root_env = {PARAMETERS: tuple(params)} if params else {}
        self._probe_budget = CHECKPOINT_INTERVAL
        self._materialized = {}
        self._correlated_memo = {}
        self._external_cache = {}
        self._subtree_cache = {}
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
        if self.fault_plan is not None:
            self.fault_plan.on_box_evaluation(box.name)
        if self.governor is not None:
            self.governor.charge_rows(len(rows), "evaluation of box %r" % box.name)
        if box.distinct == DistinctMode.ENFORCE:
            rows = _dedupe(rows)
        return rows

    # -- externals (correlation detection) -----------------------------------------

    def _subtree(self, box):
        cached = self._subtree_cache.get(id(box))
        if cached is not None:
            return cached
        seen = {}
        stack = [box]
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen[id(current)] = current
            for quantifier in current.quantifiers:
                stack.append(quantifier.input_box)
        self._subtree_cache[id(box)] = seen
        return seen

    def _externals(self, box):
        """Quantifiers referenced inside ``box``'s subtree but owned outside
        it (the correlation edges crossing the subtree boundary)."""
        cached = self._external_cache.get(id(box))
        if cached is not None:
            return cached
        subtree = self._subtree(box)
        externals = []
        seen = set()
        for member in subtree.values():
            for expression in member.all_expressions():
                for ref in qe.column_refs(expression):
                    owner = ref.quantifier.parent_box
                    if owner is not None and id(owner) not in subtree:
                        if id(ref.quantifier) not in seen:
                            seen.add(id(ref.quantifier))
                            externals.append(ref.quantifier)
        self._external_cache[id(box)] = externals
        return externals

    # -- box evaluation ---------------------------------------------------------------

    def evaluate_box(self, box, env):
        if box.kind == BoxKind.BASE:
            return self.database.table(box.table_name).rows
        if box.kind == BoxKind.SELECT:
            return self._evaluate_select(box, env)
        if box.kind == BoxKind.GROUPBY:
            return self._evaluate_groupby(box, env)
        if box.kind == BoxKind.UNION:
            rows = []
            for quantifier in box.quantifiers:
                rows.extend(self.rows_for(quantifier.input_box, env))
            return rows
        if box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT):
            return self._evaluate_intersect_except(box, env)
        if box.kind == BoxKind.OUTERJOIN:
            return self._evaluate_outerjoin(box, env)
        evaluate_custom = box.properties.get("evaluate")
        if evaluate_custom is not None:
            return evaluate_custom(self, box, env)
        raise ExecutionError("cannot evaluate box kind %r" % box.kind)

    # -- select boxes ------------------------------------------------------------------

    def _join_order(self, box):
        return ordered_foreach(box, self.join_orders.get(box.box_id))

    def _evaluate_select(self, box, env):
        local = set(box.quantifiers)
        predicates = list(box.predicates)
        scalar_quantifiers = [
            q for q in box.quantifiers if q.qtype == QuantifierType.SCALAR
        ]
        filter_quantifiers = [
            q
            for q in box.quantifiers
            if q.qtype in (QuantifierType.EXISTENTIAL, QuantifierType.ANTI)
        ]

        def quantifiers_of(expression):
            return {
                ref.quantifier
                for ref in qe.column_refs(expression)
                if ref.quantifier in local
            }

        deferred = set()  # predicates involving E/A/S quantifiers
        join_predicates = []
        non_foreach = set(scalar_quantifiers) | set(filter_quantifiers)
        for predicate in predicates:
            if quantifiers_of(predicate) & non_foreach:
                deferred.add(id(predicate))
            else:
                join_predicates.append(predicate)

        envs = [dict(env)]
        bound = set()
        applied = set()
        for quantifier in self._join_order(box):
            envs = self._attach_quantifier(
                box, quantifier, envs, bound, join_predicates, applied
            )
            bound.add(quantifier)
            if not envs:
                break

        # Any join predicate not yet applied (e.g. referencing no local
        # quantifier at all — pure correlation filters) applies now.
        for predicate in join_predicates:
            if id(predicate) not in applied:
                envs = [e for e in envs if predicate_holds(predicate, e)]
                applied.add(id(predicate))

        # Bind scalar subqueries. A decorrelated subquery holds one row per
        # binding; its selector predicates (the correlation equalities EMST
        # lifted) pick the current outer row's match — no match binds NULLs
        # and the row survives, exactly the original correlated semantics.
        for quantifier in scalar_quantifiers:
            new_envs = []
            for current in envs:
                row = self._scalar_row(
                    quantifier, current, quantifier.selector_predicates
                )
                extended = dict(current)
                extended[quantifier] = row
                new_envs.append(extended)
            envs = new_envs
        for predicate in predicates:
            if id(predicate) in deferred and not (
                quantifiers_of(predicate) & set(filter_quantifiers)
            ):
                envs = [e for e in envs if predicate_holds(predicate, e)]

        # Existential / anti filters.
        for quantifier in filter_quantifiers:
            attached = [
                p
                for p in predicates
                if id(p) in deferred and quantifier in quantifiers_of(p)
            ]
            envs = [
                current
                for current in envs
                if self._passes_filter_quantifier(quantifier, attached, current)
            ]

        projection = [self._fn(column.expr) for column in box.columns]
        rows = []
        for current in envs:
            rows.append(tuple(fn(current) for fn in projection))
        return rows

    def _attach_quantifier(self, box, quantifier, envs, bound, join_predicates, applied):
        """Join one foreach quantifier into the current environments."""
        child = quantifier.input_box
        local = set(box.quantifiers)

        def refs_ok(expression, extra):
            for ref in qe.column_refs(expression):
                owner = ref.quantifier
                if owner in local and owner not in extra and owner not in bound:
                    return False
            return True

        # Applicable predicates once this quantifier is bound.
        applicable = [
            p
            for p in join_predicates
            if id(p) not in applied and refs_ok(p, {quantifier})
        ]

        # Split equality predicates usable for hashing: q-side references
        # only this quantifier, other side only bound/external quantifiers.
        hash_keys = []
        residual = []
        for predicate in applicable:
            pair = hashable_equality(predicate, quantifier, local, bound)
            if pair is not None:
                hash_keys.append(pair)
            else:
                residual.append(predicate)

        child_correlated = bool(self._externals(child))
        use_index = hash_keys and not child_correlated

        new_envs = []
        if use_index:
            index = self._hash_index(child, quantifier, tuple(k[0] for k in hash_keys))
            probes = [self._fn(k[1]) for k in hash_keys]
            residual_fns = [self._pred(p) for p in residual]
            for current in envs:
                probe = tuple(fn(current) for fn in probes)
                if any(v is None for v in probe):
                    continue  # NULL never equals anything
                for row in index.get(probe, ()):
                    self.stats.join_probes += 1
                    self._checkpoint(box)
                    extended = dict(current)
                    extended[quantifier] = row
                    if all(fn(extended) for fn in residual_fns):
                        new_envs.append(extended)
        else:
            applicable_fns = [self._pred(p) for p in applicable]
            for current in envs:
                child_rows = self.rows_for(child, current)
                for row in child_rows:
                    self.stats.join_probes += 1
                    self._checkpoint(box)
                    extended = dict(current)
                    extended[quantifier] = row
                    if all(fn(extended) for fn in applicable_fns):
                        new_envs.append(extended)
        for predicate in applicable:
            applied.add(id(predicate))
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
            keyed = []
            for predicate in selectors:
                pair = hashable_equality(predicate, quantifier, {quantifier}, set())
                if pair is None:
                    keyed = None
                    break
                keyed.append(pair)
            if keyed:
                index = self._hash_index(
                    child, quantifier, tuple(k[0] for k in keyed)
                )
                probe = tuple(evaluate(k[1], env) for k in keyed)
                if any(v is None for v in probe):
                    return null_row
                matches = index.get(probe, [])
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
        matches = []
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            if all(predicate_holds(p, extended) for p in selectors):
                matches.append(row)
                if len(matches) > 1:
                    raise ExecutionError(
                        "scalar subquery %r returned %d rows for one binding"
                        % (quantifier.name, len(matches))
                    )
        if matches:
            return matches[0]
        return null_row

    def _passes_filter_quantifier(self, quantifier, predicates, env):
        """Semi-join (E) / anti-join (A) test for one environment."""
        rows = self.rows_for(quantifier.input_box, env)
        if quantifier.qtype == QuantifierType.EXISTENTIAL:
            for row in rows:
                extended = dict(env)
                extended[quantifier] = row
                if all(predicate_holds(p, extended) for p in predicates):
                    return True
            return False
        # ANTI
        saw_unknown = False
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            values = [evaluate(p, extended) for p in predicates]
            if all(v is True for v in values):
                return False
            if quantifier.null_aware and all(v is not False for v in values):
                saw_unknown = True
        if quantifier.null_aware and saw_unknown:
            return False
        return True

    # -- groupby boxes -----------------------------------------------------------------

    def _evaluate_groupby(self, box, env):
        quantifier = box.quantifiers[0]
        input_rows = self.rows_for(quantifier.input_box, env)

        aggregate_columns = [
            (index, column.expr)
            for index, column in enumerate(box.columns)
            if isinstance(column.expr, qe.QAggregate)
        ]

        key_fns = [self._fn(k) for k in box.group_keys]
        arg_fns = [
            None if agg.arg is None else self._fn(agg.arg)
            for _, agg in aggregate_columns
        ]
        groups = {}
        order = []
        for row in input_rows:
            self._checkpoint(box)
            row_env = dict(env)
            row_env[quantifier] = row
            key = tuple(fn(row_env) for fn in key_fns)
            state = groups.get(key)
            if state is None:
                accumulators = [
                    make_accumulator(
                        agg.func, star=agg.arg is None, distinct=agg.distinct
                    )
                    for _, agg in aggregate_columns
                ]
                state = (accumulators, row_env)
                groups[key] = state
                order.append(key)
            accumulators, _ = state
            for accumulator, arg_fn in zip(accumulators, arg_fns):
                accumulator.add(None if arg_fn is None else arg_fn(row_env))

        if not groups and not box.group_keys:
            # Scalar aggregate over an empty input: one row.
            accumulators = [
                make_accumulator(agg.func, star=agg.arg is None, distinct=agg.distinct)
                for _, agg in aggregate_columns
            ]
            row = []
            agg_iter = iter(accumulators)
            for column in box.columns:
                if isinstance(column.expr, qe.QAggregate):
                    row.append(next(agg_iter).result())
                else:
                    row.append(None)
            return [tuple(row)]

        rows = []
        for key in order:
            accumulators, representative_env = groups[key]
            agg_results = {
                index: accumulator.result()
                for accumulator, (index, _) in zip(accumulators, aggregate_columns)
            }
            row = []
            for index, column in enumerate(box.columns):
                if index in agg_results:
                    row.append(agg_results[index])
                else:
                    row.append(evaluate(column.expr, representative_env))
            rows.append(tuple(row))
        return rows

    # -- outer joins ---------------------------------------------------------------------

    def _evaluate_outerjoin(self, box, env):
        """LEFT OUTER JOIN: every preserved-side row survives, NULL-padded
        when no right row satisfies the ON condition."""
        left_q, right_q = box.quantifiers
        left_rows = self.rows_for(left_q.input_box, env)
        null_row = tuple([None] * len(right_q.input_box.columns))

        # Hash the right side when an ON equality allows it.
        hash_keys = []
        residual = []
        for predicate in box.predicates:
            pair = hashable_equality(
                predicate, right_q, set(box.quantifiers), {left_q}
            )
            if pair is not None:
                hash_keys.append(pair)
            else:
                residual.append(predicate)
        use_index = bool(hash_keys)
        index = None
        if use_index:
            index = self._hash_index(
                right_q.input_box, right_q, tuple(k[0] for k in hash_keys)
            )
        else:
            right_rows = self.rows_for(right_q.input_box, env)

        rows = []
        for left_row in left_rows:
            base_env = dict(env)
            base_env[left_q] = left_row
            matched = False
            if use_index:
                probe = tuple(evaluate(k[1], base_env) for k in hash_keys)
                candidates = (
                    index.get(probe, ()) if all(v is not None for v in probe) else ()
                )
            else:
                candidates = right_rows
            for right_row in candidates:
                self.stats.join_probes += 1
                self._checkpoint(box)
                extended = dict(base_env)
                extended[right_q] = right_row
                if all(predicate_holds(p, extended) for p in (residual if use_index else box.predicates)):
                    matched = True
                    rows.append(
                        tuple(evaluate(c.expr, extended) for c in box.columns)
                    )
            if not matched:
                extended = dict(base_env)
                extended[right_q] = null_row
                rows.append(tuple(evaluate(c.expr, extended) for c in box.columns))
        return rows

    # -- set operations ------------------------------------------------------------------

    def _evaluate_intersect_except(self, box, env):
        left = self.rows_for(box.quantifiers[0].input_box, env)
        right = self.rows_for(box.quantifiers[1].input_box, env)
        right_counts = {}
        for row in right:
            right_counts[row] = right_counts.get(row, 0) + 1
        rows = []
        if box.kind == BoxKind.INTERSECT:
            if box.distinct == DistinctMode.ENFORCE:
                emitted = set()
                for row in left:
                    if row in right_counts and row not in emitted:
                        emitted.add(row)
                        rows.append(row)
            else:  # INTERSECT ALL: min multiplicities
                remaining = dict(right_counts)
                for row in left:
                    if remaining.get(row, 0) > 0:
                        remaining[row] -= 1
                        rows.append(row)
        else:  # EXCEPT
            if box.distinct == DistinctMode.ENFORCE:
                emitted = set()
                for row in left:
                    if row not in right_counts and row not in emitted:
                        emitted.add(row)
                        rows.append(row)
            else:  # EXCEPT ALL: subtract multiplicities
                remaining = dict(right_counts)
                for row in left:
                    if remaining.get(row, 0) > 0:
                        remaining[row] -= 1
                    else:
                        rows.append(row)
        return rows


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


def self_recursive(box):
    return any(q.input_box is box for q in box.quantifiers)


def _dedupe(rows):
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


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


def evaluate_graph(graph, database, join_orders=None, memoize_correlated=True):
    """Convenience wrapper: build an Evaluator and run it."""
    evaluator = Evaluator(
        graph,
        database,
        join_orders=join_orders,
        memoize_correlated=memoize_correlated,
    )
    return evaluator.run()
