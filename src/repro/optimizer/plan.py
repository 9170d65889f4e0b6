"""Whole-graph plan optimization.

``optimize_graph`` runs the per-box join-order optimizer on every select
box and aggregates a total plan cost. The result carries the *join-order
oracle* (box id → quantifier-name order) that the EMST rule consumes in
rewrite phase 2, and a comparable total cost for the §3.2 heuristic's
before/after comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.qgm.model import BoxKind
from repro.qgm.stratum import correlation_externals
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.joinorder import optimize_select_box


@dataclass
class BoxPlan:
    """Plan information for one box."""

    box_name: str
    kind: str
    order: List[str] = field(default_factory=list)
    cost: float = 0.0
    rows: float = 0.0
    multiplicity: float = 1.0  # >1 when the box is correlated (re-evaluated)

    @property
    def total_cost(self):
        return self.cost * self.multiplicity


@dataclass
class GraphPlan:
    """The plan for a whole query graph."""

    plans: Dict[int, BoxPlan] = field(default_factory=dict)
    total_cost: float = 0.0
    optimizer_invocations: int = 1
    #: Every catalog statistic the plan was computed from, ``{(table,
    #: column or None) -> reading}`` (see
    #: :func:`~repro.optimizer.cardinality.read_statistic`).
    statistics_read: Dict = field(default_factory=dict)

    @property
    def join_orders(self):
        """The join-order oracle consumed by the EMST rule."""
        return {
            box_id: plan.order for box_id, plan in self.plans.items() if plan.order
        }

    def describe(self):
        lines = ["total cost: %.1f" % self.total_cost]
        for box_id in sorted(self.plans):
            plan = self.plans[box_id]
            lines.append(
                "  box %d %s %s: rows=%.1f cost=%.1f x%.0f order=(%s)"
                % (
                    box_id,
                    plan.kind,
                    plan.box_name,
                    plan.rows,
                    plan.cost,
                    plan.multiplicity,
                    " > ".join(plan.order),
                )
            )
        return "\n".join(lines)


def _correlation_multiplicity(graph, estimator):
    """Estimate how many times each correlated box gets re-evaluated: the
    cardinality of the box owning the quantifiers it references."""
    multiplicity = {}
    boxes = graph.boxes()
    externals = correlation_externals(boxes)
    for box in boxes:
        owners = {q.parent_box for q in externals[id(box)]}
        if owners:
            multiplicity[id(box)] = max(
                estimator.rows(owner) for owner in owners
            )
    return multiplicity


def optimize_graph(graph, catalog=None):
    """Plan every box of ``graph``; returns a :class:`GraphPlan`."""
    catalog = catalog or graph.catalog
    estimator = CardinalityEstimator(catalog, root=graph.top_box)
    plan = GraphPlan(statistics_read=estimator.statistics_read)
    multiplicity = _correlation_multiplicity(graph, estimator)
    total = 0.0
    for box in graph.boxes():
        if box.kind == BoxKind.BASE:
            continue
        box_plan = BoxPlan(box_name=box.name, kind=box.kind)
        box_plan.rows = estimator.rows(box)
        box_plan.multiplicity = max(multiplicity.get(id(box), 1.0), 1.0)
        if box.kind == BoxKind.SELECT:
            order, cost, rows = optimize_select_box(box, estimator)
            box_plan.order = order
            box_plan.cost = cost + rows
        elif box.kind == BoxKind.GROUPBY:
            box_plan.cost = estimator.rows(box.quantifiers[0].input_box) + box_plan.rows
        else:
            box_plan.cost = (
                sum(estimator.rows(q.input_box) for q in box.quantifiers)
                + box_plan.rows
            )
        plan.plans[box.box_id] = box_plan
        total += box_plan.total_cost
    plan.total_cost = total
    return plan
