"""Prepared-statement parameter discovery and binding over QGM graphs.

A graph built from SQL containing ``?`` markers carries
:class:`~repro.qgm.expr.QParam` nodes wherever a constant would sit. The
rewrite pipeline treats them exactly like literals (that is the point:
the rewritten, optimized graph is reusable for *any* values with the
same binding pattern). At execution time there are two ways to supply
the values:

* pass them to the execution — ``PreparedQuery.execute(params=...)``,
  ``Evaluator(..., params=...)`` — and the graph stays as it is: a
  ``QParam`` reads its slot of the execution's parameter vector. This is
  what the query server does with its cached plans;
* :func:`bind_parameters`, which substitutes plain
  :class:`~repro.qgm.expr.QLiteral` values in place. The ``correlated``
  strategy needs this (it pushes constants down into index lookups).

Binding mutates the graph it is given; bind a *clone* when the unbound
graph must stay reusable::

    bound = bind_parameters(clone_graph(cached.graph), values)
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.qgm import expr as qe


def parameter_indices(graph):
    """Sorted list of distinct parameter indices appearing in ``graph``."""
    indices = set()
    for box in graph.boxes():
        for expression in box.all_expressions():
            for node in qe.walk(expression):
                if isinstance(node, qe.QParam):
                    indices.add(node.index)
    return sorted(indices)


def parameter_count(graph):
    """Number of parameter slots the graph expects (max index + 1)."""
    indices = parameter_indices(graph)
    return indices[-1] + 1 if indices else 0


def bind_parameters(graph, values):
    """Replace every :class:`QParam` in ``graph`` with the corresponding
    literal from ``values`` (a sequence indexed by parameter position).

    Mutates and returns ``graph``. Raises :class:`ExecutionError` when a
    parameter index has no value (too few values is the common client
    bug; surplus values are tolerated so clients may over-provide).
    """
    values = list(values)

    def substitute(node):
        if isinstance(node, qe.QParam):
            if node.index >= len(values):
                raise ExecutionError(
                    "statement expects parameter ?%d but only %d value(s) "
                    "were bound" % (node.index + 1, len(values)),
                    context={"parameter": node.index, "bound": len(values)},
                )
            return qe.QLiteral(value=values[node.index])
        return node

    for box in graph.boxes():
        for column in box.columns:
            if column.expr is not None:
                column.expr = qe.map_expr(column.expr, substitute)
        box.predicates = [qe.map_expr(p, substitute) for p in box.predicates]
        box.group_keys = [qe.map_expr(k, substitute) for k in box.group_keys]
        for quantifier in box.quantifiers:
            if quantifier.selector_predicates:
                quantifier.selector_predicates = [
                    qe.map_expr(p, substitute)
                    for p in quantifier.selector_predicates
                ]
    return graph
