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

What a box *means* — the groupby fold, bag INTERSECT/EXCEPT, the E/A
tests, scalar-subquery binding, the post-join phase of a select box — is
the :class:`~repro.engine.evaluator.Evaluator`'s; this module only decides
how boxes are reached: derived tables last, one evaluation per binding,
the binding pushed down as column filters.

Set ``memoize=True`` for the ablation where repeated bindings reuse the
previous evaluation (not something the 1990s systems did).
"""

from __future__ import annotations

from repro.errors import ExecutionError, NotSupportedError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType
from repro.engine.evaluator import (
    Evaluator,
    dedupe,
    hashable_equality,
    intersect_except,
    quantifier_passes,
    self_recursive,
)
from repro.engine.storage import index_matches


class CorrelatedEvaluator(Evaluator):
    """Tuple-at-a-time evaluation with per-binding pushdown."""

    def __init__(
        self, graph, database, join_orders=None, memoize=False,
        governor=None, params=None,
    ):
        super().__init__(
            graph, database, join_orders=join_orders,
            memoize_correlated=memoize, governor=governor, params=params,
        )
        if any(
            len(component) > 1 or self_recursive(component[0])
            for component in self._components
        ):
            raise NotSupportedError(
                "the correlated strategy does not support recursive queries"
            )

    # -- dispatch ------------------------------------------------------------

    def rows_for(self, box, env, filters=None):
        """Rows of ``box`` under outer bindings ``env``, restricted by
        ``filters`` (lower-cased output column name → required value).
        Nothing is materialised across calls (unless memoising): every
        reference to a box evaluates it again."""
        filters = filters or {}
        self.stats.box_evaluations += 1
        if self.governor is not None:
            # An environment that binds a quantifier (more than the root
            # environment holds) makes this a per-binding evaluation.
            if len(env) > len(self.root_env):
                self.governor.charge_correlated(
                    "correlated evaluation of box %r" % box.name
                )
            else:
                self.governor.check_deadline("evaluation of box %r" % box.name)
        # A correlated box's rows depend on more than the pushed filters.
        memoizable = self.memoize_correlated and not self._externals(box)
        if memoizable:
            key = (id(box), tuple(sorted(filters.items())))
            cached = self._correlated_memo.get(key)
            if cached is not None:
                return cached
        if box.kind == BoxKind.BASE:
            rows = self._base_rows(box, filters)
        elif box.kind == BoxKind.SELECT:
            rows = self._select_rows(box, env, filters)
        elif box.kind == BoxKind.GROUPBY:
            rows = self._groupby_rows(box, env, filters)
        elif box.kind == BoxKind.UNION:
            rows = []
            for quantifier in box.quantifiers:
                child = quantifier.input_box
                rows.extend(
                    self.rows_for(child, env, _map_positional(filters, box, child))
                )
        elif box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT):
            left, right = [
                self.rows_for(
                    q.input_box, env, _map_positional(filters, box, q.input_box)
                )
                for q in box.quantifiers
            ]
            rows = intersect_except(box, left, right)
        elif box.kind == BoxKind.OUTERJOIN:
            rows = self._outerjoin_rows(box, env, filters)
        else:
            raise ExecutionError("cannot evaluate box kind %r" % box.kind)
        if box.distinct == DistinctMode.ENFORCE:
            rows = dedupe(rows)
        self.stats.rows_produced += len(rows)
        if self.governor is not None:
            self.governor.charge_rows(len(rows), "evaluation of box %r" % box.name)
        if memoizable:
            self._correlated_memo[key] = rows
        return rows

    # -- base tables -------------------------------------------------------------

    def _base_rows(self, box, filters):
        table = self.database.table(box.table_name)
        if not filters:
            return table.rows
        # Use a hash index on the first filter column (the index access path
        # correlated execution depends on), then filter the rest.
        items = sorted(filters.items())
        first_col, first_value = items[0]
        candidates = index_matches(table.index_on(first_col), first_value)
        ordinals = [(table.schema.column_ordinal(c), v) for c, v in items[1:]]
        return [
            row
            for row in candidates
            if all(row[ordinal] == value for ordinal, value in ordinals)
        ]

    # -- select boxes ---------------------------------------------------------------

    def _join_order(self, box):
        """Join order with every derived-table reference moved last.

        This is what *correlation* means: a view reference becomes a
        correlated subquery, evaluated once per row of the (base-table)
        outer — the strategy cannot choose to materialise the view first.
        Base-table quantifiers keep the plan optimizer's relative order.
        """
        ordered = super()._join_order(box)
        base = [q for q in ordered if q.input_box.kind == BoxKind.BASE]
        derived = [q for q in ordered if q.input_box.kind != BoxKind.BASE]
        return base + derived

    def _select_rows(self, box, env, filters):
        plan = self._select_plan(box)
        pushed, residual = _split_filters(box, filters, plan.local)
        # Tuple-at-a-time execution starts from the quantifiers the binding
        # restricts (the index access path the correlated plan is built
        # around), keeping the optimizer's relative order otherwise.
        order = self._join_order(box)
        order = [q for q in order if q in pushed] + [
            q for q in order if q not in pushed
        ]
        envs = [dict(env)]
        bound = set()
        applied = set()
        for quantifier in order:
            applicable = plan.applicable(quantifier, bound, applied)
            # Equality predicates give per-tuple parameter bindings.
            bindable, post = self._split_bindable(
                applicable, quantifier, plan.local, bound
            )
            envs = self._pair(
                box, quantifier, envs,
                self._pushdown_candidates(
                    quantifier, pushed.get(quantifier), bindable
                ),
                [self._pred(p) for p in post],
            )
            applied.update(id(p) for p in applicable)
            bound.add(quantifier)
            if not envs:
                break
        rows = self.project(box, self.surviving(box, envs, applied))
        return _restrict(box, rows, residual)

    def _split_bindable(self, predicates, quantifier, local, bound):
        """Divide ``predicates`` into the ``(column, compiled probe)`` pairs
        of the hashable equalities (:func:`~repro.engine.evaluator.
        hashable_equality`) whose key is a plain column of ``quantifier``
        — each binds that column to a value known from ``bound`` or outer
        quantifiers — and the rest, to be checked row by row."""
        bindable = []
        post = []
        for predicate in predicates:
            pair = hashable_equality(predicate, quantifier, local, bound)
            if pair is not None and isinstance(pair[0], qe.QColRef):
                bindable.append((pair[0].column.lower(), self._fn(pair[1])))
            else:
                post.append(predicate)
        return bindable, post

    def _pushdown_candidates(self, quantifier, filters, bindable):
        """``candidates(env)``: the rows of ``quantifier``'s input, from one
        evaluation under ``env`` with ``filters`` and the values of the
        ``bindable`` probes pushed down — none when a probe is NULL or two
        bind one column differently."""
        child = quantifier.input_box

        def candidates(current):
            child_filters = _bind_filters(filters, bindable, current)
            if child_filters is None:
                return ()
            self.stats.correlated_evaluations += 1
            return self.rows_for(child, current, child_filters)

        return candidates

    def _filter_test(self, quantifier, predicates):
        # Push equality bindings into the subquery evaluation. ANTI gets
        # no pushdown: NOT IN must observe NULLs in the inner table.
        bindable = []
        if quantifier.qtype == QuantifierType.EXISTENTIAL:
            bindable, predicates = self._split_bindable(
                predicates, quantifier, {quantifier}, set()
            )
        fns = [self._fn(p) for p in predicates]
        candidates = self._pushdown_candidates(quantifier, None, bindable)
        return lambda env: quantifier_passes(
            quantifier, fns, env, candidates(env)
        )

    # -- groupby boxes --------------------------------------------------------------------

    def _groupby_rows(self, box, env, filters):
        # A filter on a group-key output column pushes into the input; a
        # filter on an aggregate column is applied after aggregation.
        quantifier = box.quantifiers[0]
        pushed, post = _split_filters(box, filters, {quantifier})
        input_rows = self.rows_for(quantifier.input_box, env, pushed.get(quantifier))
        return _restrict(box, self.fold_groups(box, input_rows, env), post)

    # -- outer joins ----------------------------------------------------------------------

    def _outerjoin_rows(self, box, env, filters):
        """LEFT OUTER JOIN, tuple-at-a-time: filters on preserved-side
        columns push into the left child; everything else is residual (a
        filter on the NULL-padded side cannot be pushed). Each preserved
        row's ON equalities push into an evaluation of the right side."""
        left_q, right_q = box.quantifiers
        pushed, residual = _split_filters(box, filters, {left_q})
        left_rows = self.rows_for(left_q.input_box, env, pushed.get(left_q))
        bindable, post = self._split_bindable(
            box.predicates, right_q, set(box.quantifiers), {left_q}
        )
        tests = [self._pred(p) for p in post]
        candidates = self._pushdown_candidates(right_q, None, bindable)

        def matches(current):
            # Unlike a select box's join, no join probe is charged here.
            matched = []
            for row in candidates(current):
                extended = dict(current)
                extended[right_q] = row
                if all(fn(extended) for fn in tests):
                    matched.append(extended)
            return matched

        rows = self.outer_join(box, env, left_rows, matches)
        return _restrict(box, rows, residual)


def _split_filters(box, filters, pushable):
    """Divide the output-column ``filters`` of ``box``: a filter on a column
    that is a plain reference to a quantifier in ``pushable`` becomes a
    filter on that quantifier's input column, the rest stay on the output.
    Returns ``({quantifier: {column: value}}, {output column: value})``."""
    pushed = {}
    residual = {}
    for name, value in filters.items():
        expr = box.column(name).expr
        if isinstance(expr, qe.QColRef) and expr.quantifier in pushable:
            pushed.setdefault(expr.quantifier, {})[expr.column.lower()] = value
        else:
            residual[name] = value
    return pushed, residual


def _bind_filters(filters, bindable, env):
    """``filters`` extended by the value each ``(column, probe closure)`` of
    ``bindable`` takes in ``env``; None when no row can match (a NULL probe
    value, or two different values required of one column)."""
    bound = dict(filters or {})
    for column, probe in bindable:
        value = probe(env)
        if value is None:
            return None
        existing = bound.get(column)
        if existing is not None and existing != value:
            return None
        bound[column] = value
    return bound


def _restrict(box, rows, filters):
    """The ``rows`` of ``box`` whose columns equal ``filters`` (lower-cased
    output column name → required value)."""
    if not filters:
        return rows
    ordinals = [
        (box.column_ordinal(name), value) for name, value in filters.items()
    ]
    return [
        row
        for row in rows
        if all(row[ordinal] == value for ordinal, value in ordinals)
    ]


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
