"""Compile a rewritten query graph to a reusable operator program.

The paper's Table 1 times the execution of *already optimized* queries: a
real system compiles QGM to a plan once and runs it many times.
:func:`compile_program` is that step for the batch executor. Everything an
execution can know from the graph and the join orders alone is decided
here, once:

* the strongly connected components of the box dependency graph, and for
  each recursive one its :class:`~repro.engine.recursion.FixpointPlan`
  (stratification, semi-naive members, the proven-duplicate-free set);
* per box, its *externals* — the correlation quantifiers bound outside its
  subtree;
* per SELECT box a join pipeline in plan order (a linear recursive
  rule's delta quantifier first): for every foreach
  quantifier whether it attaches by hash probe (and with which key and
  probe extractors), by bisecting a base table's sorted column, by scan,
  cross product or per-binding loop, which
  predicates filter at that point, then the scalar-subquery bindings, the
  predicates that waited for them, the E/A filters and the projection;
* per GROUPBY box the key/argument extractors, accumulator factories,
  single-pass kernels and output plan.

A :class:`Program` is immutable after compilation and holds no rows, no
indexes and no parameter values, so one program runs concurrently on any
number of threads and is inherited as-is by forked workers. It depends on
the graph, the join orders and the schema (column ordinals) — never on
data: DML does not invalidate it, DDL does (the plan cache keys on the
catalog version, a :class:`~repro.api.PreparedQuery` is bound to one
graph). Mutating a graph after compiling it is not supported.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind
from repro.qgm.stratum import correlation_externals, reduced_dependency_graph
from repro.engine.evaluator import (
    SelectPlan,
    ordered_foreach,
    self_recursive,
    split_hashable,
)
from repro.engine.recursion import FixpointPlan
from repro.engine.columnar.operators import (
    CorrelatedStep,
    CrossStep,
    FailedOp,
    FilterQuantifierStep,
    GroupByOp,
    HashStep,
    InheritedOp,
    RangeStep,
    ScalarStep,
    ScanStep,
    SelectOp,
)


class Program:
    """The compiled form of one ``(graph, join orders)`` pair."""

    __slots__ = (
        "graph", "join_orders", "components", "component_of", "externals",
        "operators", "fixpoints",
    )

    def __init__(self, graph, join_orders):
        self.graph = graph
        self.join_orders = join_orders
        #: Box dependency SCCs, producers first, and ``id(box) -> index``.
        self.components, self.component_of = reduced_dependency_graph(graph)
        boxes = [box for component in self.components for box in component]
        #: ``id(box) -> [quantifier, ...]`` bound outside the box's subtree.
        self.externals = correlation_externals(boxes)
        #: ``component index -> FixpointPlan`` for the recursive ones.
        self.fixpoints = {
            index: FixpointPlan(component)
            for index, component in enumerate(self.components)
            if len(component) > 1 or self_recursive(component[0])
        }
        # ``id(box) -> its delta quantifier``, per linear recursive rule.
        deltas = {
            box_id: quantifier
            for fixpoint in self.fixpoints.values()
            if fixpoint.violation is None
            for box_id, quantifier in fixpoint.linear.items()
            if quantifier is not None
        }
        #: ``id(box) -> operator`` (see :mod:`.operators`).
        self.operators = {
            id(box): _lower(
                box, join_orders.get(box.box_id), self.externals,
                deltas.get(id(box)),
            )
            for box in boxes
        }


def compile_program(graph, join_orders=None):
    """Lower ``graph`` under ``join_orders`` (``box id -> [quantifier
    name, ...]``, as in :class:`~repro.optimizer.plan.GraphPlan`) to a
    :class:`Program`."""
    return Program(graph, join_orders or {})


def _lower(box, order_names, externals, delta):
    """The operator for one box; ``delta`` is the quantifier a
    semi-naive round binds to its member's new rows, if any."""
    try:
        if box.kind == BoxKind.SELECT:
            return _lower_select(box, order_names, externals, delta)
        if box.kind == BoxKind.GROUPBY:
            return GroupByOp(box)
    except ReproError as error:
        return FailedOp(box, error)
    return InheritedOp(box)


def _lower_select(box, order_names, externals, delta):
    """Decide the join pipeline of a select box — the static counterpart
    of the tuple engine's join phase, over the same :class:`SelectPlan`.

    A linear recursive rule's ``delta`` quantifier leads, ahead of magic
    quantifiers too: each round then scans only the new rows and probes
    the rest, instead of rescanning the plan's first input and indexing
    the delta. The optimizer's order stays the rule's sip order (EMST
    reads it), and the tuple engine keeps it."""
    plan = SelectPlan(box)
    order = ordered_foreach(box, order_names)
    if delta is not None:
        order = [delta] + [q for q in order if q is not delta]
    steps = []
    bound = set()
    applied = set()
    for quantifier in order:
        applicable = plan.applicable(quantifier, bound, applied)
        pairs, residual = split_hashable(applicable, quantifier, plan.local, bound)
        if externals[id(quantifier.input_box)]:
            step = CorrelatedStep(box, quantifier, applicable)
        elif pairs:
            step = HashStep(box, quantifier, pairs, applicable, residual)
        elif not steps:
            step = ScanStep(box, quantifier, applicable)
        else:
            ranged = _range_bounds(applicable, quantifier, plan.local, bound)
            if ranged is not None:
                step = RangeStep(box, quantifier, *ranged, applicable)
            else:
                step = CrossStep(box, quantifier, applicable)
        steps.append(step)
        applied.update(id(p) for p in applicable)
        bound.add(quantifier)

    return SelectOp(
        box,
        steps,
        tail=[p for p in plan.join_predicates if id(p) not in applied],
        scalars=[
            ScalarStep(q, _selector_pairs(q, externals)) for q in plan.scalars
        ],
        deferred=plan.deferred,
        filters=[
            FilterQuantifierStep(q, attached) for q, attached in plan.filters
        ],
    )


#: ``a OP b`` read from ``b``'s side: ``b FLIPPED[OP] a``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _range_bounds(applicable, quantifier, local, bound):
    """``(ordinal, [(op, bound expr), ...])`` when the leading applicable
    predicates compare one column of ``quantifier``'s base table with an
    expression over what is already ``bound`` (each read as ``column OP
    bound``), else None.

    Only a leading run: the tuple engine tests a pair's predicates in
    order and stops at the first that is not TRUE, so a predicate ahead
    of a range comparison sees every pair, and may raise on one the range
    would have skipped."""
    child = quantifier.input_box
    if child.kind != BoxKind.BASE:
        return None
    ordinal = None
    bounds = []
    for predicate in applicable:
        found = _range_bound(predicate, quantifier, local, bound)
        if found is None:
            break
        column = child.column_ordinal(found[0])
        if ordinal is not None and column != ordinal:
            break
        ordinal = column
        bounds.append(found[1:])
    return (ordinal, bounds) if bounds else None


def _range_bound(predicate, quantifier, local, bound):
    """``(column, op, bound expr)`` when ``predicate`` compares a column
    of ``quantifier`` with an expression over bound quantifiers only."""
    if not (isinstance(predicate, qe.QBinary) and predicate.op in _FLIPPED):
        return None
    for side, other, op in (
        (predicate.left, predicate.right, predicate.op),
        (predicate.right, predicate.left, _FLIPPED[predicate.op]),
    ):
        if isinstance(side, qe.QColRef) and side.quantifier is quantifier:
            refs = {ref.quantifier for ref in qe.column_refs(other)}
            if quantifier not in refs and refs & local <= bound:
                return side.column, op, other
    return None


def _selector_pairs(quantifier, externals):
    """The hash ``(key, probe)`` pairs of a decorrelated scalar
    quantifier whose selectors are all equalities over an uncorrelated
    input; None when it must check one binding at a time."""
    selectors = quantifier.selector_predicates
    if (
        not quantifier.decorrelated
        or not selectors
        or externals[id(quantifier.input_box)]
    ):
        return None
    pairs, residual = split_hashable(selectors, quantifier, {quantifier}, set())
    return None if residual else pairs
