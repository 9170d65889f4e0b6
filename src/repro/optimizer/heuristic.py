"""The cost-based join-order heuristic of §3.2 and the three-phase rewrite
control of §3.3 (Figure 3).

``optimize_with_heuristic`` runs the full Starburst pipeline:

1. query-rewrite phase 1 (every rule except EMST — no join orders needed),
2. plan optimization pass 1 → join orders + cost of the non-magic plan,
3. query-rewrite phase 2 with the EMST rule active, consuming the orders,
4. query-rewrite phase 3 (EMST disabled) to simplify the transformed graph,
5. plan optimization pass 2 → cost of the magic plan,
6. keep whichever plan is cheaper.

Plan optimization runs exactly twice; the back edge from the plan optimizer
to the query-rewrite optimizer (Figure 2) is the hand-off of join orders
between steps 2 and 3. The §3.2 guarantee — using the EMST rule cannot
degrade the plan chosen without it — follows from step 6.

``optimize_exhaustive_emst`` is the strawman §3.2 argues against: apply
EMST once per candidate join order and plan each alternative (O(2^n) plan
optimizer invocations); the optimization-time benchmark compares the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.qgm.clone import clone_graph
from repro.optimizer.plan import GraphPlan, optimize_graph


@dataclass
class HeuristicResult:
    """Everything the pipeline produced, for execution and for the
    benchmarks that reproduce Figures 2 and 3."""

    graph: object
    plan: GraphPlan
    used_emst: bool
    cost_without_emst: float
    cost_with_emst: float
    optimizer_invocations: int
    phase_firings: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Names of special-role boxes whose DISTINCT enforcement the key
    #: fixpoint proved redundant between phases 2 and 3.
    relaxed_distinct: List[str] = field(default_factory=list)
    graph_without_emst: Optional[object] = None
    plan_without_emst: Optional[GraphPlan] = None
    #: The RuleContext of the run (per-rule timings, rollbacks, quarantines).
    context: Optional[object] = None
    #: The statistics every plan pass read (the choice between the plans
    #: depends on all of them), as in :attr:`GraphPlan.statistics_read`.
    statistics_read: Dict = field(default_factory=dict)

    @property
    def join_orders(self):
        return self.plan.join_orders


def _clear_magic_links(graph):
    """Between phases 2 and 3 the linked magic tables have served their
    purpose (the restrictions were passed down); clearing the links lets
    the merge rule fold single-use magic boxes away."""
    for box in graph.boxes():
        box.linked_magic = []


def optimize_with_heuristic(graph, catalog=None, engine=None, use_emst=True,
                            resilience=None):
    """Run the full rewrite + plan pipeline on ``graph`` (mutating it).

    Returns a :class:`HeuristicResult`. With ``use_emst=False`` only phase 1
    and one plan pass run (the baseline the heuristic compares against).
    ``resilience`` (a :class:`~repro.resilience.ResiliencePolicy`) enables
    per-firing rollback/quarantine and governor budgets inside each phase.
    """
    from repro.rewrite.engine import RewriteEngine, default_rules

    catalog = catalog or graph.catalog
    if engine is None:
        rules = default_rules(include_emst=use_emst)
        if resilience is not None:
            rules = resilience.rules_for(rules)
        engine = RewriteEngine(rules)

    phase_firings = {}

    context = engine.run_phase(graph, 1, resilience=resilience)
    phase_firings[1] = dict(context.firing_counts)

    plan_before = optimize_graph(graph, catalog)
    optimizer_invocations = 1

    if not use_emst:
        return HeuristicResult(
            graph=graph,
            plan=plan_before,
            used_emst=False,
            cost_without_emst=plan_before.total_cost,
            cost_with_emst=float("inf"),
            optimizer_invocations=optimizer_invocations,
            phase_firings=phase_firings,
            context=context,
            statistics_read=plan_before.statistics_read,
        )

    # Keep a pristine copy of the non-magic graph: the heuristic guarantees
    # we can fall back to it when EMST does not pay off.
    snapshot = clone_graph(graph)

    before = dict(context.firing_counts)
    context = engine.run_phase(
        graph, 2, join_orders=plan_before.join_orders, context=context,
        resilience=resilience,
    )
    phase_firings[2] = _delta(before, context.firing_counts)

    # Whole-graph duplicate-freeness sweep: shed provably redundant
    # DISTINCT enforcement from magic/supplementary boxes (including
    # recursive ones) so phase 3 can merge them away.
    from repro.magic.magic_boxes import relax_proven_duplicate_free

    relaxed = [box.name for box in relax_proven_duplicate_free(graph)]

    _clear_magic_links(graph)

    before = dict(context.firing_counts)
    context = engine.run_phase(graph, 3, context=context, resilience=resilience)
    phase_firings[3] = _delta(before, context.firing_counts)

    plan_after = optimize_graph(graph, catalog)
    optimizer_invocations += 1

    used_emst = plan_after.total_cost <= plan_before.total_cost
    if used_emst:
        chosen_graph, chosen_plan = graph, plan_after
    else:
        chosen_graph, chosen_plan = snapshot, plan_before

    return HeuristicResult(
        graph=chosen_graph,
        plan=chosen_plan,
        used_emst=used_emst,
        cost_without_emst=plan_before.total_cost,
        cost_with_emst=plan_after.total_cost,
        optimizer_invocations=optimizer_invocations,
        phase_firings=phase_firings,
        relaxed_distinct=relaxed,
        graph_without_emst=snapshot,
        plan_without_emst=plan_before,
        context=context,
        statistics_read={
            **plan_before.statistics_read, **plan_after.statistics_read
        },
    )


def optimize_exhaustive_emst(graph, catalog=None, max_quantifiers=6):
    """The strawman: apply EMST under *every* join order of the top box and
    plan each alternative. Returns (best_result, optimizer_invocations).

    Exists to reproduce the paper's optimization-time argument: the number
    of plan-optimizer invocations explodes combinatorially, while the
    heuristic needs exactly two.
    """
    from repro.rewrite.engine import RewriteEngine, default_rules

    catalog = catalog or graph.catalog

    base = clone_graph(graph)
    engine = RewriteEngine(default_rules(include_emst=False))
    engine.run_phase(base, 1)
    plan_before = optimize_graph(base, catalog)
    invocations = 1

    top = base.top_box
    foreach = [q.name for q in top.foreach_quantifiers()]
    if len(foreach) > max_quantifiers:
        foreach = foreach[:max_quantifiers]

    best = None
    statistics_read = dict(plan_before.statistics_read)
    for permutation in itertools.permutations(foreach):
        candidate = clone_graph(base)
        orders = dict(plan_before.join_orders)
        orders[candidate.top_box.box_id] = list(permutation)
        emst_engine = RewriteEngine(default_rules(include_emst=True))
        context = emst_engine.run_phase(candidate, 2, join_orders=orders)
        _clear_magic_links(candidate)
        emst_engine.run_phase(candidate, 3, context=context)
        plan = optimize_graph(candidate, catalog)
        invocations += 1
        statistics_read.update(plan.statistics_read)
        if best is None or plan.total_cost < best[1].total_cost:
            best = (candidate, plan)

    chosen_graph, chosen_plan = best
    if plan_before.total_cost < chosen_plan.total_cost:
        chosen_graph, chosen_plan = base, plan_before
    result = HeuristicResult(
        graph=chosen_graph,
        plan=chosen_plan,
        used_emst=chosen_graph is not base,
        cost_without_emst=plan_before.total_cost,
        cost_with_emst=chosen_plan.total_cost,
        optimizer_invocations=invocations,
        statistics_read=statistics_read,
    )
    return result, invocations


def _delta(before, after):
    return {
        name: count - before.get(name, 0)
        for name, count in after.items()
        if count - before.get(name, 0) > 0
    }
