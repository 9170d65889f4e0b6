"""The columnar batch executor: the execution state of a compiled program.

The batch engine is split in two. :func:`~repro.engine.columnar.program.
compile_program` lowers a rewritten graph to an immutable
:class:`~repro.engine.columnar.program.Program` of operators, once;
:class:`BatchEvaluator` is one *execution* of that program: it owns the
materialised rows, the transient hash indexes, the correlated memo, the
``EvaluatorStats``, the governor's probe budget and the parameter values,
and nothing else ever writes to them. Any number of executions may share
one program, on threads or across ``fork``.

Select and groupby boxes run their compiled operators — vectorized
predicates and projections (one closure call per *column*), batch hash
joins, columnar group-by. Box kinds not lowered yet (set operations, outer
joins, custom boxes), correlation handling, ``DISTINCT`` enforcement and
fixpoint orchestration are inherited from the tuple
:class:`~repro.engine.evaluator.Evaluator`, so the two engines share one
semantics definition wherever rows are produced one at a time anyway: an
outer join here is the tuple engine's, and a semi-join or anti-join tests
each position with the tuple engine's ``quantifier_passes``. Those row
paths call :func:`~repro.engine.expressions.compile_expr` closures, every
operator a :func:`~repro.engine.columnar.vector.compile_vector` one —
the only two definitions of what an expression means. The tuple engine
remains the differential-testing oracle: both must produce identical row
sets, and raise the same error on the same input.

Cooperative cancellation keeps the tuple engine's contract — a governor
checkpoint at least every :data:`~repro.engine.evaluator.CHECKPOINT_INTERVAL`
probes — by charging batched work against the shared probe budget.
"""

from __future__ import annotations

from repro.qgm.model import BoxKind
from repro.engine.evaluator import CHECKPOINT_INTERVAL, Evaluator
from repro.engine.columnar.program import compile_program


class BatchEvaluator(Evaluator):
    """Drop-in :class:`Evaluator` replacement with columnar execution.

    ``program`` is the compiled form of ``(graph, join_orders)``; callers
    that execute one graph repeatedly compile it once and pass it to every
    execution. Without it the graph is compiled here.
    """

    def __init__(
        self, graph, database, join_orders=None, memoize_correlated=True,
        governor=None, params=None, program=None,
    ):
        if program is None:
            program = compile_program(graph, join_orders)
        self.program = program
        super().__init__(
            graph, database, join_orders=join_orders,
            memoize_correlated=memoize_correlated, governor=governor,
            params=params,
        )

    # -- what the program already knows ------------------------------------------

    def _dependency_components(self):
        return self.program.components, self.program.component_of

    def fixpoint_plan(self, component):
        return self.program.fixpoints[self.program.component_of[id(component[0])]]

    def _externals(self, box):
        return self.program.externals[id(box)]

    def evaluate_box(self, box, env):
        return self.program.operators[id(box)].run(self, env)

    # -- services the operators call ---------------------------------------------

    def bulk_checkpoint(self, box, count):
        """Charge ``count`` units of batched work against the shared probe
        budget, checkpointing the governor at the same amortized
        granularity as the tuple engine's per-probe `_checkpoint`."""
        if self.governor is None or count <= 0:
            return
        self._probe_budget -= count
        while self._probe_budget <= 0:
            self._probe_budget += CHECKPOINT_INTERVAL
            self.governor.checkpoint("join processing in box %r" % box.name)

    def scan_sources(self, child, rows, quantifier):
        """Zero-copy column accessors when ``rows`` is a base table's own
        row view — extraction then reads the stored column arrays."""
        if child.kind == BoxKind.BASE:
            table = self.database.table(child.table_name)
            if rows is table.rows:
                return {quantifier: table.column_data}
        return None
