"""Fault-tolerant multi-session query server.

The paper argues magic sets belong in a *production* relational system;
this package supplies the serving half of that claim: an asyncio TCP
server speaking a length-prefixed JSON protocol, with

* an adornment-keyed prepared-plan cache — rewritten + optimized QGM is
  reused across executions and sessions, keyed on ``(statement
  fingerprint, strategy)`` and served only under the catalog version it
  was prepared against, so DDL *invalidates* plans instead of corrupting
  them (:mod:`repro.server.plan_cache`),
* per-query deadlines with cooperative cancellation threaded through the
  evaluator checkpoints (:class:`~repro.resilience.ResourceGovernor`),
* admission control and load shedding with machine-readable
  ``retry_after`` hints (:mod:`repro.server.admission`),
* per-rewrite-strategy circuit breakers demoting along
  ``emst -> phase1 -> original``
  (:class:`~repro.resilience.StrategyBreakerBoard`),
* a retrying synchronous client (:mod:`repro.server.client`) and a
  session-boundary chaos harness (``python -m repro.server.chaos``),
* a fork-based worker pool executing queries in separate processes over
  shared-memory column blocks, with crash respawn and a crash breaker
  (:mod:`repro.server.workers`, ``ServerConfig(workers=N)``),
* a cross-request result cache keyed on ``(fingerprint, strategy,
  catalog version, bindings, table versions)`` so a cached result can
  never be stale (:mod:`repro.server.result_cache`).

Run ``python -m repro.server --workload`` for a demo server.
"""

from repro.server.admission import AdmissionController
from repro.server.client import SyncQueryClient
from repro.server.core import QueryServer, ServerConfig
from repro.server.plan_cache import AdornmentPlanCache, CachedPlan
from repro.server.result_cache import ResultCache
from repro.server.session import serve
from repro.server.workers import WorkerPool, fork_available

__all__ = [
    "AdmissionController",
    "AdornmentPlanCache",
    "CachedPlan",
    "QueryServer",
    "ResultCache",
    "ServerConfig",
    "SyncQueryClient",
    "WorkerPool",
    "fork_available",
    "serve",
]
