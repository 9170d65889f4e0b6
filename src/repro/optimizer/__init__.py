"""Plan optimization: System-R style cardinality/cost estimation and
dynamic-programming join ordering [SAC+79, Loh88].

The paper's EMST rule consumes *join orders* ("sips") produced here; the
two-pass cost-based heuristic of §3.2 lives in
:mod:`repro.optimizer.heuristic`.
"""

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.joinorder import optimize_select_box
from repro.optimizer.plan import GraphPlan, BoxPlan, optimize_graph
from repro.optimizer.heuristic import (
    HeuristicResult,
    optimize_exhaustive_emst,
    optimize_with_heuristic,
)

__all__ = [
    "CardinalityEstimator",
    "optimize_select_box",
    "GraphPlan",
    "BoxPlan",
    "optimize_graph",
    "HeuristicResult",
    "optimize_with_heuristic",
    "optimize_exhaustive_emst",
]

