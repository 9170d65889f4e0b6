"""The *Correlated* execution strategy of Table 1.

This evaluator models how a pre-magic commercial system (the paper's DB2
baseline) executes a complex query after *correlation*: every reference to
a derived table (view, grouped subquery, set operation) is evaluated
tuple-at-a-time — for each outer row, the applicable equality predicates
are turned into parameter bindings that are pushed down into a fresh
evaluation of the derived table, all the way to index lookups on base
tables.

This is excellent when the outer is tiny (one binding → one cheap, filtered
evaluation: the paper's experiments A and F, where Correlated narrowly
beats EMST) and catastrophic when the outer is large or the binding cannot
be pushed below an aggregate or a computed column (experiments C and D,
where Correlated is *slower than the original query*). The instability is
the paper's core argument for magic.

Set ``memoize=True`` for the ablation where repeated bindings reuse the
previous evaluation (not something the 1990s systems did).
"""

from __future__ import annotations

from repro.errors import ExecutionError, NotSupportedError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType
from repro.qgm.stratum import is_recursive
from repro.engine.evaluator import (
    CHECKPOINT_INTERVAL,
    Result,
    EvaluatorStats,
    _apply_order_limit,
    _dedupe,
)
from repro.engine.expressions import (
    compile_expr,
    compile_predicate,
    evaluate,
    predicate_holds,
)


class CorrelatedEvaluator:
    """Tuple-at-a-time evaluation with per-binding pushdown."""

    def __init__(
        self, graph, database, join_orders=None, memoize=False,
        governor=None, fault_plan=None,
    ):
        if is_recursive(graph):
            raise NotSupportedError(
                "the correlated strategy does not support recursive queries"
            )
        self.graph = graph
        self.database = database
        self.join_orders = join_orders or {}
        self.memoize = memoize
        # Resilience hooks (see Evaluator): optional metering + injection.
        self.governor = governor
        self.fault_plan = fault_plan
        self.stats = EvaluatorStats()
        self._probe_budget = CHECKPOINT_INTERVAL
        self._memo = {}
        self._externals_cache = {}
        self._compiled = {}
        self._compiled_predicates = {}

    def _fn(self, expr):
        fn = self._compiled.get(id(expr))
        if fn is None:
            fn = compile_expr(expr)
            self._compiled[id(expr)] = fn
        return fn

    def _pred(self, expr):
        fn = self._compiled_predicates.get(id(expr))
        if fn is None:
            fn = compile_predicate(expr)
            self._compiled_predicates[id(expr)] = fn
        return fn

    def _checkpoint(self, box):
        """Cooperative cancellation/deadline checkpoint for the per-binding
        probe loops (same cadence as the set-oriented evaluator)."""
        if self.governor is None:
            return
        self._probe_budget -= 1
        if self._probe_budget <= 0:
            self._probe_budget = CHECKPOINT_INTERVAL
            self.governor.checkpoint(
                "correlated join processing in box %r" % box.name
            )

    def run(self):
        top = self.graph.top_box
        rows = self._eval_box(top, {}, {})
        rows = _apply_order_limit(rows, self.graph.order_by, self.graph.limit)
        return Result(columns=top.column_names, rows=rows)

    # -- dispatch ------------------------------------------------------------

    def _eval_box(self, box, env, filters):
        """Rows of ``box`` under outer bindings ``env``, restricted by
        ``filters`` (lower-cased output column name → required value)."""
        self.stats.box_evaluations += 1
        if self.fault_plan is not None:
            self.fault_plan.on_box_evaluation(box.name)
        if self.governor is not None:
            if env:
                self.governor.charge_correlated(
                    "correlated evaluation of box %r" % box.name
                )
            else:
                self.governor.check_deadline("evaluation of box %r" % box.name)
        memoizable = self.memoize and not self._is_correlated(box)
        if memoizable:
            key = (id(box), tuple(sorted(filters.items())))
            cached = self._memo.get(key)
            if cached is not None:
                return cached
        if box.kind == BoxKind.BASE:
            rows = self._eval_base(box, filters)
        elif box.kind == BoxKind.SELECT:
            rows = self._eval_select(box, env, filters)
        elif box.kind == BoxKind.GROUPBY:
            rows = self._eval_groupby(box, env, filters)
        elif box.kind == BoxKind.UNION:
            rows = []
            for quantifier in box.quantifiers:
                rows.extend(
                    self._eval_box(
                        quantifier.input_box,
                        env,
                        _map_positional(filters, box, quantifier.input_box),
                    )
                )
        elif box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT):
            rows = self._eval_intersect_except(box, env, filters)
        elif box.kind == BoxKind.OUTERJOIN:
            rows = self._eval_outerjoin(box, env, filters)
        else:
            raise ExecutionError("cannot evaluate box kind %r" % box.kind)
        if box.distinct == DistinctMode.ENFORCE:
            rows = _dedupe(rows)
        self.stats.rows_produced += len(rows)
        if self.governor is not None:
            self.governor.charge_rows(len(rows), "evaluation of box %r" % box.name)
        if memoizable:
            self._memo[key] = rows
        return rows

    def _is_correlated(self, box):
        """True when ``box``'s subtree references quantifiers outside it
        (such a box's rows depend on more than the pushed filters)."""
        cached = self._externals_cache.get(id(box))
        if cached is not None:
            return cached
        subtree = set()
        stack = [box]
        members = []
        while stack:
            current = stack.pop()
            if id(current) in subtree:
                continue
            subtree.add(id(current))
            members.append(current)
            for quantifier in current.quantifiers:
                stack.append(quantifier.input_box)
        correlated = False
        for member in members:
            for expression in member.all_expressions():
                for ref in qe.column_refs(expression):
                    owner = ref.quantifier.parent_box
                    if owner is not None and id(owner) not in subtree:
                        correlated = True
                        break
                if correlated:
                    break
            if correlated:
                break
        self._externals_cache[id(box)] = correlated
        return correlated

    # -- base tables -------------------------------------------------------------

    def _eval_base(self, box, filters):
        table = self.database.table(box.table_name)
        if not filters:
            return table.rows
        # Use a hash index on the first filter column (the index access path
        # correlated execution depends on), then filter the rest.
        items = sorted(filters.items())
        first_col, first_value = items[0]
        candidates = table.index_on(first_col).get(first_value, [])
        if len(items) == 1:
            return list(candidates)
        rows = []
        ordinals = [(table.schema.column_ordinal(c), v) for c, v in items[1:]]
        for row in candidates:
            if all(row[ordinal] == value for ordinal, value in ordinals):
                rows.append(row)
        return rows

    # -- select boxes ---------------------------------------------------------------

    def _join_order(self, box):
        """Join order with every derived-table reference moved last.

        This is what *correlation* means: a view reference becomes a
        correlated subquery, evaluated once per row of the (base-table)
        outer — the strategy cannot choose to materialise the view first.
        Base-table quantifiers keep the plan optimizer's relative order.
        """
        ordered_names = self.join_orders.get(box.box_id)
        foreach = box.foreach_quantifiers()
        if ordered_names:
            by_name = {q.name: q for q in foreach}
            ordered = [by_name[name] for name in ordered_names if name in by_name]
            placed = set(ordered_names)
            ordered += [q for q in foreach if q.name not in placed]
        else:
            ordered = foreach
        from repro.qgm.model import BoxKind

        base = [q for q in ordered if q.input_box.kind == BoxKind.BASE]
        derived = [q for q in ordered if q.input_box.kind != BoxKind.BASE]
        return base + derived

    def _eval_select(self, box, env, filters):
        local = set(box.quantifiers)
        # Map output filters onto quantifier-column filters where the output
        # column is a plain reference; the rest are residual output filters.
        pushed = {}  # quantifier -> {col: value}
        residual_filters = {}
        for name, value in filters.items():
            column = box.column(name)
            expr = column.expr
            if isinstance(expr, qe.QColRef) and expr.quantifier in local:
                pushed.setdefault(expr.quantifier, {})[expr.column.lower()] = value
            else:
                residual_filters[name] = value

        def order_with_filters_first(quantifiers):
            # Tuple-at-a-time execution starts from the quantifiers the
            # binding restricts (the index access path the correlated plan
            # is built around), keeping the optimizer's relative order
            # otherwise.
            filtered = [q for q in quantifiers if q in pushed]
            rest = [q for q in quantifiers if q not in pushed]
            return filtered + rest

        scalar_quantifiers = [
            q for q in box.quantifiers if q.qtype == QuantifierType.SCALAR
        ]
        filter_quantifiers = [
            q
            for q in box.quantifiers
            if q.qtype in (QuantifierType.EXISTENTIAL, QuantifierType.ANTI)
        ]
        non_foreach = set(scalar_quantifiers) | set(filter_quantifiers)

        def local_quantifiers_of(expression):
            return {
                ref.quantifier
                for ref in qe.column_refs(expression)
                if ref.quantifier in local
            }

        join_predicates = [
            p for p in box.predicates if not (local_quantifiers_of(p) & non_foreach)
        ]
        deferred = [
            p for p in box.predicates if local_quantifiers_of(p) & non_foreach
        ]

        envs = [dict(env)]
        bound = set()
        applied = set()
        for quantifier in order_with_filters_first(self._join_order(box)):
            applicable = []
            for predicate in join_predicates:
                if id(predicate) in applied:
                    continue
                locals_needed = local_quantifiers_of(predicate)
                if locals_needed <= (bound | {quantifier}):
                    applicable.append(predicate)
            # Equality predicates give per-tuple parameter bindings.
            bindable = []
            post = []
            for predicate in applicable:
                binding = _binding_equality(predicate, quantifier, local, bound)
                if binding is not None:
                    bindable.append(binding)
                else:
                    post.append(predicate)
            new_envs = []
            bindable_fns = [(column, self._fn(e)) for column, e in bindable]
            post_fns = [self._pred(p) for p in post]
            for current in envs:
                per_env_filters = dict(pushed.get(quantifier, {}))
                skip = False
                for column, probe_fn in bindable_fns:
                    value = probe_fn(current)
                    if value is None:
                        skip = True
                        break
                    existing = per_env_filters.get(column)
                    if existing is not None and existing != value:
                        skip = True
                        break
                    per_env_filters[column] = value
                if skip:
                    continue
                self.stats.correlated_evaluations += 1
                for row in self._eval_box(
                    quantifier.input_box, current, per_env_filters
                ):
                    self.stats.join_probes += 1
                    self._checkpoint(box)
                    extended = dict(current)
                    extended[quantifier] = row
                    if all(fn(extended) for fn in post_fns):
                        new_envs.append(extended)
            envs = new_envs
            for predicate in applicable:
                applied.add(id(predicate))
            bound.add(quantifier)
            if not envs:
                break

        for predicate in join_predicates:
            if id(predicate) not in applied:
                envs = [e for e in envs if predicate_holds(predicate, e)]

        for quantifier in scalar_quantifiers:
            new_envs = []
            for current in envs:
                rows = self._eval_box(quantifier.input_box, current, {})
                if len(rows) > 1:
                    raise ExecutionError(
                        "scalar subquery %r returned %d rows"
                        % (quantifier.name, len(rows))
                    )
                row = rows[0] if rows else tuple(
                    [None] * len(quantifier.input_box.columns)
                )
                extended = dict(current)
                extended[quantifier] = row
                new_envs.append(extended)
            envs = new_envs
        for predicate in deferred:
            if not (local_quantifiers_of(predicate) & set(filter_quantifiers)):
                envs = [e for e in envs if predicate_holds(predicate, e)]

        for quantifier in filter_quantifiers:
            attached = [
                p for p in deferred if quantifier in local_quantifiers_of(p)
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
        if residual_filters:
            ordinals = [
                (box.column_ordinal(name), value)
                for name, value in residual_filters.items()
            ]
            rows = [
                row
                for row in rows
                if all(row[ordinal] == value for ordinal, value in ordinals)
            ]
        return rows

    def _passes_filter_quantifier(self, quantifier, predicates, env):
        child = quantifier.input_box
        if quantifier.qtype == QuantifierType.EXISTENTIAL:
            # Push equality bindings into the subquery evaluation.
            filters = {}
            post = []
            for predicate in predicates:
                binding = _binding_equality(
                    predicate, quantifier, {quantifier}, set()
                )
                if binding is not None:
                    column, probe_expr = binding
                    value = evaluate(probe_expr, env)
                    if value is None:
                        return False
                    filters[column] = value
                else:
                    post.append(predicate)
            self.stats.correlated_evaluations += 1
            for row in self._eval_box(child, env, filters):
                extended = dict(env)
                extended[quantifier] = row
                if all(predicate_holds(p, extended) for p in post):
                    return True
            return False
        # ANTI: no pushdown (NOT IN must observe NULLs in the inner table).
        self.stats.correlated_evaluations += 1
        rows = self._eval_box(child, env, {})
        saw_unknown = False
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            values = [evaluate(p, extended) for p in predicates]
            if all(v is True for v in values):
                return False
            if quantifier.null_aware and all(v is not False for v in values):
                saw_unknown = True
        return not (quantifier.null_aware and saw_unknown)

    # -- groupby boxes --------------------------------------------------------------------

    def _eval_groupby(self, box, env, filters):
        from repro.engine.aggregates import make_accumulator

        quantifier = box.quantifiers[0]
        child = quantifier.input_box

        # A filter on a group-key output column pushes into the input; a
        # filter on an aggregate column is applied after aggregation.
        child_filters = {}
        post_filters = {}
        for name, value in filters.items():
            column = box.column(name)
            expr = column.expr
            if (
                not isinstance(expr, qe.QAggregate)
                and isinstance(expr, qe.QColRef)
                and expr.quantifier is quantifier
            ):
                child_filters[expr.column.lower()] = value
            else:
                post_filters[name] = value

        input_rows = self._eval_box(child, env, child_filters)

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

        rows = []
        if not groups and not box.group_keys:
            accumulators = [
                make_accumulator(agg.func, star=agg.arg is None, distinct=agg.distinct)
                for _, agg in aggregate_columns
            ]
            agg_iter = iter(accumulators)
            row = tuple(
                next(agg_iter).result()
                if isinstance(column.expr, qe.QAggregate)
                else None
                for column in box.columns
            )
            rows = [row]
        else:
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
        if post_filters:
            ordinals = [
                (box.column_ordinal(name), value)
                for name, value in post_filters.items()
            ]
            rows = [
                row
                for row in rows
                if all(row[ordinal] == value for ordinal, value in ordinals)
            ]
        return rows

    def _eval_outerjoin(self, box, env, filters):
        """LEFT OUTER JOIN, tuple-at-a-time: filters on preserved-side
        columns push into the left child; everything else is residual (a
        filter on the NULL-padded side cannot be pushed)."""
        left_q, right_q = box.quantifiers
        left_filters = {}
        residual = {}
        for name, value in filters.items():
            expr = box.column(name).expr
            if isinstance(expr, qe.QColRef) and expr.quantifier is left_q:
                left_filters[expr.column.lower()] = value
            else:
                residual[name] = value
        left_rows = self._eval_box(left_q.input_box, env, left_filters)
        null_row = tuple([None] * len(right_q.input_box.columns))
        rows = []
        for left_row in left_rows:
            base_env = dict(env)
            base_env[left_q] = left_row
            # Per-tuple pushdown into the right side via ON equalities.
            right_filters = {}
            post = []
            skip = False
            for predicate in box.predicates:
                binding = _binding_equality(
                    predicate, right_q, set(box.quantifiers), {left_q}
                )
                if binding is not None:
                    column, probe = binding
                    value = evaluate(probe, base_env)
                    if value is None:
                        skip = True
                        break
                    right_filters[column] = value
                else:
                    post.append(predicate)
            matched = False
            if not skip:
                self.stats.correlated_evaluations += 1
                for right_row in self._eval_box(
                    right_q.input_box, base_env, right_filters
                ):
                    extended = dict(base_env)
                    extended[right_q] = right_row
                    if all(predicate_holds(p, extended) for p in post):
                        matched = True
                        rows.append(
                            tuple(evaluate(c.expr, extended) for c in box.columns)
                        )
            if not matched:
                extended = dict(base_env)
                extended[right_q] = null_row
                rows.append(tuple(evaluate(c.expr, extended) for c in box.columns))
        if residual:
            ordinals = [
                (box.column_ordinal(name), value) for name, value in residual.items()
            ]
            rows = [
                row
                for row in rows
                if all(row[ordinal] == value for ordinal, value in ordinals)
            ]
        return rows

    def _eval_intersect_except(self, box, env, filters):
        left_child = box.quantifiers[0].input_box
        right_child = box.quantifiers[1].input_box
        left = self._eval_box(left_child, env, _map_positional(filters, box, left_child))
        right = self._eval_box(
            right_child, env, _map_positional(filters, box, right_child)
        )
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
            else:
                remaining = dict(right_counts)
                for row in left:
                    if remaining.get(row, 0) > 0:
                        remaining[row] -= 1
                        rows.append(row)
        else:
            if box.distinct == DistinctMode.ENFORCE:
                emitted = set()
                for row in left:
                    if row not in right_counts and row not in emitted:
                        emitted.add(row)
                        rows.append(row)
            else:
                remaining = dict(right_counts)
                for row in left:
                    if remaining.get(row, 0) > 0:
                        remaining[row] -= 1
                    else:
                        rows.append(row)
        return rows


def _map_positional(filters, box, child):
    """Translate output-column filters of a set-op box onto the child's
    positional column names."""
    if not filters:
        return {}
    own_names = [c.name.lower() for c in box.columns]
    child_names = [c.name.lower() for c in child.columns]
    out = {}
    for name, value in filters.items():
        position = own_names.index(name)
        out[child_names[position]] = value
    return out


def _binding_equality(predicate, quantifier, local, bound):
    """If ``predicate`` is ``quantifier.col = <expr over bound/outer>``,
    return (column_name_lower, probe_expr); else None."""
    if not (isinstance(predicate, qe.QBinary) and predicate.op == "="):
        return None
    for side, other in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if not isinstance(side, qe.QColRef) or side.quantifier is not quantifier:
            continue
        other_locals = {
            ref.quantifier for ref in qe.column_refs(other) if ref.quantifier in local
        }
        if quantifier in other_locals:
            continue
        if other_locals <= bound:
            return (side.column.lower(), other)
    return None
