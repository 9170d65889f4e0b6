"""The operators of a compiled program: the run-time half.

:mod:`repro.engine.columnar.program` lowers every box of a query graph to
one operator, once. An operator holds only what the graph and the join
orders decide — quantifier order, which predicates hash and which filter,
compiled vector closures, accumulator factories — and is never written to
after compilation. Everything an execution produces (materialised rows,
transient hash indexes, counters, the governor's budget, parameter values)
lives in the *execution state* handed to :meth:`run`, a
:class:`~repro.engine.columnar.batch.BatchEvaluator`. One operator object
therefore serves any number of concurrent executions.

Row-level semantics are those of the tuple :class:`Evaluator`, and the
``EvaluatorStats`` counters are charged exactly as the batch interpreter
these operators replaced charged them: one batch per pipeline step and one
for the projection, ``join_probes`` per hash match / nested-loop pairing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import ExecutionError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind
from repro.engine.aggregates import GROUPED_KERNELS, accumulator_factory
from repro.engine.evaluator import (
    CHECKPOINT_INTERVAL,
    Evaluator,
    quantifier_passes,
)
from repro.engine.expressions import compile_expr
from repro.engine.storage import (
    NUMBER_TYPES,
    STRING_TYPES,
    build_index,
    probe_index,
)
from repro.engine.columnar.columns import Batch
from repro.engine.columnar.vector import compile_vector


def keep_true(batch, predicate):
    """The positions of ``batch`` where ``predicate`` is TRUE (not UNKNOWN)."""
    if batch.length == 0:
        # The tuple engine never evaluates predicates over an empty env
        # list; an early-out may also leave quantifiers unbound.
        return batch
    values = predicate(batch)
    positions = [i for i, value in enumerate(values) if value is True]
    if len(positions) == batch.length:
        return batch
    return batch.take(positions)


class HashLookup:
    """A hash index over one quantifier's input rows and the key
    extractors on both sides of it.

    A base table indexed on plain columns uses the table's persistent
    index (warm across queries); anything else gets a transient index in
    the execution state, built with vectorized key extraction. Both are
    built by :func:`~repro.engine.storage.build_index` (unique when the
    keys are distinct, bucketed otherwise) and probed through
    :func:`~repro.engine.storage.probe_index`. One-column indexes are
    keyed on the bare value, wider ones on value tuples; NULL keys never
    join.
    """

    __slots__ = (
        "quantifier", "child", "table_columns", "cache_key",
        "key_fns", "probe_fns",
    )

    def __init__(self, quantifier, pairs):
        """``pairs``: ``(key expr over quantifier, probe expr)`` per column."""
        self.quantifier = quantifier
        self.child = child = quantifier.input_box
        key_exprs = [key for key, _ in pairs]
        single = len(pairs) == 1
        self.table_columns = None
        if child.kind == BoxKind.BASE and all(
            isinstance(key, qe.QColRef) for key in key_exprs
        ):
            names = tuple(key.column for key in key_exprs)
            self.table_columns = names[0] if single else names
        # The first element lets the fixpoint drop a member's indexes by
        # box; the second is an int here and a tuple in the inherited
        # (tuple-keyed) `_hash_index`, so the two never share an entry.
        self.cache_key = (
            id(child),
            id(key_exprs[0]) if single else tuple(map(id, key_exprs)),
        )
        self.key_fns = [compile_vector(key) for key in key_exprs]
        self.probe_fns = [compile_vector(probe) for _, probe in pairs]

    def index(self, state):
        if self.table_columns is not None:
            table = state.database.table(self.child.table_name)
            return table.index_on(self.table_columns)
        index = state._index_cache.get(self.cache_key)
        if index is None:
            index = state._index_cache[self.cache_key] = self._build(state)
        return index

    def _build(self, state):
        quantifier = self.quantifier
        rows = state.rows_for(self.child, state.root_env)
        build = Batch(
            len(rows),
            slots={quantifier: rows},
            constants=state.root_env,
            column_sources=state.scan_sources(self.child, rows, quantifier),
        )
        columns = [fn(build) for fn in self.key_fns]
        keys = columns[0] if len(columns) == 1 else list(zip(*columns))
        return build_index(keys, rows)

    def keys(self, batch):
        """One probe key per batch position; None where a NULL operand
        rules a match out."""
        columns = [fn(batch) for fn in self.probe_fns]
        if len(columns) == 1:
            return columns[0]
        return [None if None in key else key for key in zip(*columns)]


# -- pipeline steps of a select box ----------------------------------------------------


class Step:
    """Attaching one foreach quantifier to the pipeline's batch.

    ``attach(state, batch)`` joins the quantifier in; the pipeline then
    applies ``filters`` and counts the result as one batch.
    """

    label = None
    __slots__ = ("box", "quantifier", "predicates", "filters")

    def __init__(self, box, quantifier, predicates, filters=None):
        self.box = box
        self.quantifier = quantifier
        #: Every predicate that becomes applicable at this step (EXPLAIN).
        self.predicates = predicates
        #: Those of them checked position by position after the attach:
        #: all, unless the attach itself enforces some.
        self.filters = [
            compile_vector(p)
            for p in (predicates if filters is None else filters)
        ]


class HashStep(Step):
    """Batch hash-join build/probe; the equalities it hashes on are the
    ``predicates`` that are not ``filters``."""

    label = "HASHJOIN"
    __slots__ = ("lookup",)

    def __init__(self, box, quantifier, pairs, predicates, residual):
        super().__init__(box, quantifier, predicates, residual)
        self.lookup = HashLookup(quantifier, pairs)

    def attach(self, state, batch):
        lookup = self.lookup
        index = lookup.index(state)
        keys = lookup.keys(batch)
        total = len(keys)
        # Governed executions checkpoint between chunks of at most
        # CHECKPOINT_INTERVAL probes; ungoverned ones run in one chunk.
        span = CHECKPOINT_INTERVAL if state.governor is not None else total
        if span >= total:
            positions, rows = probe_index(index, keys)
            state.bulk_checkpoint(self.box, total)
        else:
            # ``positions`` stays None while every chunk so far matched
            # one row per key.
            positions = None
            rows = []
            for start in range(0, total, span):
                chunk = keys[start:start + span]
                found_at, found = probe_index(index, chunk, start)
                if found_at is not None and positions is None:
                    positions = list(range(start))
                if positions is not None:
                    positions.extend(
                        range(start, start + len(chunk))
                        if found_at is None else found_at
                    )
                rows.extend(found)
                state.bulk_checkpoint(self.box, len(chunk))
        stats = state.stats
        # A NULL key matches nothing: with every key matched, none is NULL.
        stats.batch_probes += (
            total if positions is None else total - keys.count(None)
        )
        stats.batch_probe_matches += len(rows)
        stats.join_probes += len(rows)
        if positions is None:
            # Every position matched one row: the batch keeps its slots
            # and column sources as they are and gains the new one.
            batch.add_slot(self.quantifier, rows)
            return batch
        return batch.expand(positions, self.quantifier, rows)


class ScanStep(Step):
    """The first quantifier of a pipeline without a usable hash key: a
    straight scan of its input, no replication."""

    label = "SCAN"
    __slots__ = ()

    def attach(self, state, batch):
        quantifier = self.quantifier
        child = quantifier.input_box
        rows = state.rows_for(child, state.root_env)
        count = len(rows)
        state.stats.join_probes += count
        state.bulk_checkpoint(self.box, count)
        return Batch(
            count,
            slots={quantifier: rows},
            constants=batch.constants,
            column_sources=state.scan_sources(child, rows, quantifier),
        )


class CrossStep(Step):
    """A later quantifier without a usable hash key: batched cross
    product."""

    label = "NLJOIN"
    __slots__ = ()

    def attach(self, state, batch):
        rows = state.rows_for(self.quantifier.input_box, state.root_env)
        count = len(rows)
        state.stats.join_probes += batch.length * count
        state.bulk_checkpoint(self.box, batch.length * count)
        positions = [i for i in range(batch.length) for _ in range(count)]
        return batch.expand(positions, self.quantifier, rows * batch.length)


#: Per ``column OP bound`` comparison: which end of the range a bisect of
#: ``bound`` moves, and with which bisect.
_RANGE_ENDS = {
    "<": ("hi", bisect_left),
    "<=": ("hi", bisect_right),
    ">": ("lo", bisect_right),
    ">=": ("lo", bisect_left),
}


class RangeStep(CrossStep):
    """A later quantifier over a base table whose leading applicable
    predicates compare one of its columns with values already bound
    (``column OP bound``, OP one of ``< <= > >=``; a second such predicate
    narrows the same range): each outer position bisects the table's
    sorted access path (:meth:`~repro.engine.storage.Table.sorted_on`) and
    joins the rows in range in table order. That is the cross product's
    output, row for row and in order, without comparing every pair; the
    other applicable predicates filter afterwards.

    Where bisecting cannot answer exactly as the cross product does — a
    column mixing numbers and strings or holding no value to bisect, a
    bound of the other family (the comparison raises), a bound that fails
    to evaluate, input rows that are not the table's row view — the whole
    attach is the cross product, filtered by the range predicates: it
    raises, or not, as the tuple engine's nested loop does.

    ``join_probes`` is charged for every pair, as the tuple engine's
    nested loop charges it; ``batch_probes`` counts the bisects and
    ``batch_probe_matches`` the rows they joined.
    """

    label = "RANGEJOIN"
    __slots__ = ("ordinal", "ends", "range_filters")

    def __init__(self, box, quantifier, ordinal, bounds, predicates):
        """``bounds``: ``(op, bound expr)`` per leading predicate of
        ``predicates``, read as ``column OP bound``."""
        ranged = len(bounds)
        super().__init__(box, quantifier, predicates, predicates[ranged:])
        self.ordinal = ordinal
        self.ends = [
            _RANGE_ENDS[op] + (compile_vector(bound),) for op, bound in bounds
        ]
        self.range_filters = [compile_vector(p) for p in predicates[:ranged]]

    def attach(self, state, batch):
        child = self.quantifier.input_box
        rows = state.rows_for(child, state.root_env)
        table = state.database.table(child.table_name)
        if rows is table.rows:
            path = table.sorted_on(self.ordinal)
            joined = self._bisect(state, batch, rows, path)
            if joined is not None:
                return joined
        batch = super().attach(state, batch)
        for predicate in self.range_filters:
            batch = keep_true(batch, predicate)
        return batch

    def _bisect(self, state, batch, rows, path):
        """The joined batch, or None where the cross product must answer."""
        if path is None or not path[0]:
            # Unsortable, or no value whose family the bounds could be
            # checked against.
            return None
        values, positions = path
        try:
            bounds = [fn(batch) for _, _, fn in self.ends]
        except Exception:
            # Any exception a scalar function raises (ABS of a string is a
            # TypeError): the cross product decides whether a pair reaches
            # the failing bound, and raises it if one does.
            return None
        family = {type(None)} | (
            NUMBER_TYPES if type(values[0]) in NUMBER_TYPES else STRING_TYPES
        )
        if any(not set(map(type, column)) <= family for column in bounds):
            return None
        box = self.box
        row_at = rows.__getitem__
        governed = state.governor is not None
        size = len(values)
        out_positions = []
        out_rows = []
        bisects = pending = 0
        for i, outer in enumerate(zip(*bounds)):
            lo, hi = 0, size
            for (end, bisect, _), value in zip(self.ends, outer):
                # No comparison with NULL or NaN is TRUE.
                if value is None or value != value:
                    hi = lo
                    break
                bisects += 1
                if end == "hi":
                    hi = bisect(values, value, lo, hi)
                else:
                    lo = bisect(values, value, lo, hi)
            if lo < hi:
                matched = positions[lo:hi]
                matched.sort()
                out_positions.extend([i] * len(matched))
                out_rows.extend(map(row_at, matched))
            if governed:
                # A bisect is work too: a run of misses still checkpoints.
                pending += 1 + hi - lo
                if pending >= CHECKPOINT_INTERVAL:
                    state.bulk_checkpoint(box, pending)
                    pending = 0
        state.bulk_checkpoint(box, pending)
        stats = state.stats
        stats.join_probes += batch.length * len(rows)
        stats.batch_probes += bisects
        stats.batch_probe_matches += len(out_rows)
        return batch.expand(out_positions, self.quantifier, out_rows)


class CorrelatedStep(Step):
    """A quantifier whose input is correlated: its rows are computed per
    binding, so the attach is a loop over row environments."""

    label = "NLJOIN correlated"
    __slots__ = ()

    def attach(self, state, batch):
        child = self.quantifier.input_box
        positions = []
        rows = []
        for i, current in enumerate(batch.row_envs()):
            child_rows = state.rows_for(child, current)
            state.bulk_checkpoint(self.box, len(child_rows))
            positions.extend([i] * len(child_rows))
            rows.extend(child_rows)
        state.stats.join_probes += len(rows)
        return batch.expand(positions, self.quantifier, rows)


class ScalarStep:
    """Bind a scalar-subquery quantifier at every position.

    A decorrelated subquery holds one row per binding; its selector
    predicates pick the current position's match — no match binds NULLs
    and the position survives. Equality selectors over an uncorrelated
    input probe a hash index with vectorized keys; everything else checks
    one binding at a time.
    """

    __slots__ = ("quantifier", "null_row", "lookup", "selectors")

    def __init__(self, quantifier, pairs):
        """``pairs`` is the ``(key, probe)`` list when every selector is a
        hashable equality over an uncorrelated input, else None."""
        self.quantifier = quantifier
        self.null_row = (None,) * len(quantifier.input_box.columns)
        self.lookup = HashLookup(quantifier, pairs) if pairs else None
        self.selectors = [
            compile_expr(p) for p in quantifier.selector_predicates
        ]

    def attach(self, state, batch):
        if batch.length == 0:
            rows = []
        elif self.lookup is not None:
            rows = self._probe(state, batch)
        else:
            rows = [self._bind(state, env) for env in batch.row_envs()]
        batch.add_slot(self.quantifier, rows)
        return batch

    def _probe(self, state, batch):
        lookup = self.lookup
        keys = lookup.keys(batch)
        positions, matches = probe_index(lookup.index(state), keys)
        if positions is None:
            return matches
        rows = [self.null_row] * len(keys)
        previous = None
        for position, row in zip(positions, matches):
            if position == previous:
                raise self._too_many(
                    positions.count(position), " for one binding"
                )
            rows[position] = row
            previous = position
        return rows

    def _bind(self, state, env):
        quantifier = self.quantifier
        rows = state.rows_for(quantifier.input_box, env)
        if not quantifier.decorrelated and len(rows) > 1:
            raise self._too_many(len(rows), "")
        match = None
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            if all(fn(extended) is True for fn in self.selectors):
                if match is not None:
                    raise self._too_many(2, " for one binding")
                match = row
        return self.null_row if match is None else match

    def _too_many(self, count, where):
        return ExecutionError(
            "scalar subquery %r returned %d rows%s"
            % (self.quantifier.name, count, where)
        )


class FilterQuantifierStep:
    """Semi-join (E) / anti-join (A): keep the positions whose binding
    passes. Inherently one subquery evaluation per binding, so each
    position's environment runs the reference test,
    :func:`~repro.engine.evaluator.quantifier_passes`, over the predicates
    the compiler attached to the quantifier, compiled here once."""

    __slots__ = ("quantifier", "predicate_fns")

    def __init__(self, quantifier, predicates):
        self.quantifier = quantifier
        self.predicate_fns = [compile_expr(p) for p in predicates]

    def attach(self, state, batch):
        quantifier = self.quantifier
        child = quantifier.input_box
        fns = self.predicate_fns
        positions = [
            i
            for i, env in enumerate(batch.row_envs())
            if quantifier_passes(quantifier, fns, env, state.rows_for(child, env))
        ]
        if len(positions) != batch.length:
            return batch.take(positions)
        return batch


# -- box operators ---------------------------------------------------------------------


class SelectOp:
    """A select box as a join pipeline: attach the foreach quantifiers in
    plan order, then bind scalar subqueries, apply the predicates that
    waited for them, test E/A quantifiers (:meth:`select`), and project
    (:meth:`project`)."""

    __slots__ = (
        "box", "steps", "tail_predicates", "tail", "scalars", "deferred",
        "filters", "projection", "passthrough",
    )

    def __init__(self, box, steps, tail, scalars, deferred, filters):
        self.box = box
        self.steps = steps
        #: The join predicates of a box with no foreach quantifier to
        #: attach them to (every step applies all it can).
        self.tail_predicates = tail
        self.tail = [compile_vector(p) for p in tail]
        self.scalars = scalars
        self.deferred = [compile_vector(p) for p in deferred]
        self.filters = filters
        self.projection = [compile_vector(c.expr) for c in box.columns]
        #: The quantifier whose rows *are* the output rows, if any.
        self.passthrough = _passthrough(box, steps)

    def run(self, state, env):
        return self.project(self.select(state, env))

    def select(self, state, env):
        """The batch of the box's surviving bindings under ``env``: every
        foreach quantifier bound (unless no position survived) to rows of
        its input — for a base table, the very tuples of its row view."""
        stats = state.stats
        # One position, no slots: the batch analogue of ``[dict(env)]``.
        batch = Batch(1, constants=env)
        for step in self.steps:
            batch = step.attach(state, batch)
            for predicate in step.filters:
                batch = keep_true(batch, predicate)
            stats.batches += 1
            stats.batch_rows += batch.length
            if batch.length == 0:
                break
        for predicate in self.tail:
            batch = keep_true(batch, predicate)
        for step in self.scalars:
            batch = step.attach(state, batch)
        for predicate in self.deferred:
            batch = keep_true(batch, predicate)
        for step in self.filters:
            batch = step.attach(state, batch)
        stats.batches += 1
        stats.batch_rows += batch.length
        return batch

    def project(self, batch):
        """The output rows of the box, one per position of ``batch``."""
        if batch.length == 0:
            return []
        if self.passthrough is not None:
            # A copy: no caller may alias a table's or a member's rows.
            return list(batch.slots[self.passthrough])
        columns = [fn(batch) for fn in self.projection]
        if not columns:
            return [()] * batch.length
        return list(zip(*columns))


def _passthrough(box, steps):
    """The foreach quantifier whose columns ``box`` projects, all of them
    and in order (its rows are then the box's rows), or None."""
    refs = [column.expr for column in box.columns]
    if not refs or not all(isinstance(ref, qe.QColRef) for ref in refs):
        return None
    quantifier = refs[0].quantifier
    child = quantifier.input_box
    if len(child.columns) != len(refs) or quantifier not in {
        step.quantifier for step in steps
    }:
        return None
    for ordinal, ref in enumerate(refs):
        if (
            ref.quantifier is not quantifier
            or child.column_ordinal(ref.column) != ordinal
        ):
            return None
    return quantifier


class GroupByOp:
    """A groupby box over key and argument columns extracted once.

    Grouped aggregation whose aggregates are all plain COUNT / SUM / AVG /
    MIN / MAX runs the single-pass kernels of
    :data:`~repro.engine.aggregates.GROUPED_KERNELS` (one sweep per
    aggregate over a group-id column, no per-group objects). Scalar
    aggregates (no keys: the one group is the whole column) and DISTINCT
    or registered aggregates feed accumulators column slices through
    ``add_many``. Both visit a group's values in input order, so results
    match the tuple engine bit for bit.
    """

    __slots__ = (
        "box", "quantifier", "key_fns", "arg_fns", "factories", "kernels",
        "outputs",
    )

    def __init__(self, box):
        self.box = box
        self.quantifier = box.quantifiers[0]
        self.key_fns = [compile_vector(key) for key in box.group_keys]
        aggregates = [
            column.expr
            for column in box.columns
            if isinstance(column.expr, qe.QAggregate)
        ]
        self.arg_fns = [
            None if agg.arg is None else compile_vector(agg.arg)
            for agg in aggregates
        ]
        self.factories = [
            accumulator_factory(
                agg.func, star=agg.arg is None, distinct=agg.distinct
            )
            for agg in aggregates
        ]
        kernels = [GROUPED_KERNELS.get(factory) for factory in self.factories]
        self.kernels = (
            kernels if self.key_fns and None not in kernels else None
        )
        # Per output column: an aggregate slot, a bare column reference
        # gathered from its extracted vector, or (rare) an expression
        # evaluated against one representative row per group — matching
        # the tuple engine, which also evaluates non-aggregate outputs
        # against one representative row.
        outputs = []
        slot = 0
        for column in box.columns:
            expr = column.expr
            if isinstance(expr, qe.QAggregate):
                outputs.append(("agg", slot))
                slot += 1
            elif isinstance(expr, qe.QColRef):
                outputs.append(("col", compile_vector(expr)))
            else:
                outputs.append(("expr", compile_expr(expr)))
        self.outputs = outputs

    def run(self, state, env):
        quantifier = self.quantifier
        child = quantifier.input_box
        input_rows = state.rows_for(child, env)
        if not input_rows:
            if self.key_fns:
                return []
            # Scalar aggregate over an empty input: one row.
            results = [factory().result() for factory in self.factories]
            return [
                tuple(
                    results[payload] if kind == "agg" else None
                    for kind, payload in self.outputs
                )
            ]
        total = len(input_rows)
        batch = Batch(
            total,
            slots={quantifier: input_rows},
            constants=env,
            column_sources=state.scan_sources(child, input_rows, quantifier),
        )
        state.bulk_checkpoint(self.box, total)
        key_columns = [fn(batch) for fn in self.key_fns]
        arg_columns = [
            None if fn is None else fn(batch) for fn in self.arg_fns
        ]
        if not key_columns:
            keys = None
        elif len(key_columns) == 1:
            keys = key_columns[0]
        else:
            keys = zip(*key_columns)
        state.stats.batches += 1
        state.stats.batch_rows += total
        if self.kernels is not None:
            firsts, results = self._single_pass(keys, arg_columns)
        else:
            firsts, results = self._accumulate(keys, arg_columns, total)
        columns = []
        for kind, payload in self.outputs:
            if kind == "agg":
                columns.append(results[payload])
            elif kind == "col":
                values = payload(batch)
                columns.append([values[first] for first in firsts])
            else:
                column = []
                for first in firsts:
                    representative = dict(env)
                    representative[quantifier] = input_rows[first]
                    column.append(payload(representative))
                columns.append(column)
        return list(zip(*columns))

    def _single_pass(self, keys, arg_columns):
        """``(first position per group, result column per aggregate)``
        with groups numbered in first-seen order."""
        numbers = {}
        group_ids = []
        firsts = []
        for i, key in enumerate(keys):
            number = numbers.get(key)
            if number is None:
                number = numbers[key] = len(firsts)
                firsts.append(i)
            group_ids.append(number)
        results = [
            kernel(group_ids, column, len(firsts))
            for kernel, column in zip(self.kernels, arg_columns)
        ]
        return firsts, results

    def _accumulate(self, keys, arg_columns, total):
        """As :meth:`_single_pass`, through one accumulator per group and
        aggregate."""
        if keys is None:
            groups = [list(range(total))]
        else:
            members = {}
            for i, key in enumerate(keys):
                positions = members.get(key)
                if positions is None:
                    members[key] = [i]
                else:
                    positions.append(i)
            groups = members.values()
        firsts = []
        results = [[] for _ in self.factories]
        for positions in groups:
            firsts.append(positions[0])
            for factory, column, out in zip(
                self.factories, arg_columns, results
            ):
                accumulator = factory()
                if column is None:
                    # COUNT(*): only the slice length matters.
                    accumulator.add_many(positions)
                elif len(positions) == total:
                    accumulator.add_many(column)
                else:
                    accumulator.add_many([column[p] for p in positions])
                out.append(accumulator.result())
        return firsts, results


class InheritedOp:
    """A box kind with no columnar lowering yet (BASE, UNION, INTERSECT,
    EXCEPT, OUTERJOIN, custom ``evaluate``): the tuple engine's
    implementation, run against the same execution state."""

    __slots__ = ("box",)

    def __init__(self, box):
        self.box = box

    def run(self, state, env):
        return Evaluator.evaluate_box(state, self.box, env)


class FailedOp:
    """A box whose lowering raised: the error surfaces when (and only if)
    the box is evaluated, as it did when boxes were interpreted."""

    __slots__ = ("box", "error")

    def __init__(self, box, error):
        self.box = box
        self.error = error

    def run(self, state, env):
        raise self.error.with_traceback(None)

    select = run
