"""Resilience layer: per-query resource budgets, rewrite rollback with
rule quarantine, strategy fallback, and deterministic fault injection.

The paper's engineering claim is that magic sets can live inside a
*production* system: a rewrite rule that throws, a transformation that
corrupts the graph, or a transformed query that recurses forever must
degrade the query — never take down query processing. This package makes
the pipeline fail soft:

* :class:`ResourceGovernor` — cooperative per-query budgets (wall-clock
  deadline, rewrite sweeps, fixpoint rounds, materialized rows, correlated
  invocations) raising :class:`~repro.errors.ResourceExhaustedError`,
* :class:`ResiliencePolicy` — rule-level rollback + quarantine,
* ``fallback.run_with_fallback`` — the one strategy degradation ladder
  ``emst -> phase1 -> original`` (connection and server alike),
* :class:`FaultPlan` — a seedable fault-injection harness that wraps
  rewrite rules and builds a governor firing box faults, so the failure
  paths are exercised by real tests (``python -m repro.resilience.chaos``).
"""

from repro.resilience.governor import ResourceGovernor
from repro.resilience.fallback import (
    FallbackReport,
    QuarantineRegistry,
    ResiliencePolicy,
)
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.breaker import CircuitBreaker, StrategyBreakerBoard
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ResourceGovernor",
    "ResiliencePolicy",
    "QuarantineRegistry",
    "FallbackReport",
    "FaultPlan",
    "InjectedFault",
    "CircuitBreaker",
    "StrategyBreakerBoard",
    "RetryPolicy",
]
