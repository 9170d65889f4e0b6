"""Adornment-keyed prepared-plan cache, and the one way to run a
prepared statement over it.

A parameterized statement is the paper's magic-sets use case in miniature:
the rewrite binds the parameter positions exactly like a magic set binds a
view's columns, so the rewritten + optimized graph is reusable for *any*
values with the same binding pattern. The cache keys each entry on
``(statement fingerprint, strategy)`` and serves it only under the catalog
version it was prepared against:

* **fingerprint** — sha256 of the parameterized statement's canonical SQL
  (:func:`repro.sql.parameterize.fingerprint_query`): constants collapsed,
  whitespace and literal spelling irrelevant,
* **strategy** — emst/phase1/original plans differ structurally,
* **catalog version** — any durable DDL makes every older entry
  unreachable; DDL *invalidates* plans, it can never corrupt them.

Each entry records its **binding adornment** — one ``b``/``c``/``f``
letter per parameter slot (§2's vocabulary applied to the statement's
bindings): ``b`` when the slot is used in an equality predicate, ``c`` in
any other predicate, ``f`` when it only feeds output expressions. The
fingerprint determines it, so it never tells two entries apart; it is
reported with every result.

Entries also record every catalog statistic their plan passes read, so
statistics staleness is detectable: an entry is stale exactly when one of
those values reads differently now (a stale plan is still correct — plans
never embed rows — just possibly suboptimal). A plan is a deterministic
function of the graph and the statistics it read, so an entry that is not
stale is exactly the plan a fresh prepare would give.

Execution never writes to a cached entry: the graph keeps its
:class:`~repro.qgm.expr.QParam` nodes, each request's values travel as the
execution's parameter vector, and the batch executor's compiled program
(:attr:`CachedPlan.program`, built by the first execution that needs it)
holds no per-execution state. Graph and program are immutable by
convention and shared across executor threads and forked workers.

:func:`run_prepared` walks the fallback chain for one request, reading
each rung's plan through the cache; the server's in-process path and
every pool worker call it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.api import run_plan
from repro.magic.adornment import BOUND, CONDITIONED, FREE
from repro.optimizer.cardinality import moved_tables
from repro.qgm import expr as qe
from repro.qgm.params import parameter_count
from repro.resilience.fallback import run_with_fallback
from repro.resilience.governor import ResourceGovernor


def statement_adornment(graph):
    """The binding adornment of a (possibly rewritten) graph: one letter
    per parameter slot, ``b`` if the slot appears in an equality conjunct
    anywhere in the graph, ``c`` if it appears in any other predicate,
    ``f`` otherwise. Bound wins over conditioned. Zero-parameter
    statements adorn as ``""``."""
    letters = {}

    def classify(predicate):
        bound = isinstance(predicate, qe.QBinary) and predicate.op == "="
        for node in qe.walk(predicate):
            if isinstance(node, qe.QParam):
                if bound:
                    letters[node.index] = BOUND
                else:
                    letters.setdefault(node.index, CONDITIONED)

    highest = -1
    for box in graph.boxes():
        for predicate in box.predicates:
            classify(predicate)
        for quantifier in box.quantifiers:
            for predicate in quantifier.selector_predicates or []:
                classify(predicate)
        for expression in box.all_expressions():
            for node in qe.walk(expression):
                if isinstance(node, qe.QParam):
                    highest = max(highest, node.index)
    return "".join(
        letters.get(index, FREE) for index in range(highest + 1)
    )


@dataclass
class CachedPlan:
    """One rewritten + optimized statement, ready to execute with any
    parameter values."""

    fingerprint: str
    adornment: str
    strategy: str
    catalog_version: int
    graph: object
    plan: Optional[object]
    heuristic: Optional[object]
    param_count: int
    #: ``{(table, column or None) -> reading}``: every statistic the plan
    #: passes read (see :func:`~repro.optimizer.cardinality.read_statistic`);
    #: compared against the current catalog to detect staleness.
    statistics: dict = field(default_factory=dict)
    hits: int = 0
    #: The batch executor's compiled program (see
    #: :func:`repro.api.run_plan`); depends on ``graph`` and ``plan``
    #: only, so it lives exactly as long as the entry.
    program: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def key(self):
        return (self.fingerprint, self.strategy)

    def staleness(self, catalog):
        """Tables some statistic of which the plan read has moved in
        ``catalog`` since this plan was optimized."""
        return moved_tables(self.statistics, catalog)


class AdornmentPlanCache:
    """A bounded LRU of :class:`CachedPlan` keyed on ``(fingerprint,
    strategy)``, thread-safe. An entry prepared under an older catalog
    version is purged on sight and counted as ``invalidated``.
    """

    def __init__(self, capacity=128):
        self.capacity = capacity
        self._lock = threading.Lock()
        #: Serializes misses: preparing may register statement-scoped
        #: inline views in the shared catalog.
        self._prepare_lock = threading.Lock()
        self._entries = OrderedDict()  # (fingerprint, strategy) -> CachedPlan
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.stale_replans = 0

    def after_fork(self):
        """Replace the locks after a fork: the parent may have held one at
        fork time, and a child that inherits a locked lock deadlocks on
        first use. Only the forking worker's private copy is touched."""
        self._lock = threading.Lock()
        self._prepare_lock = threading.Lock()

    def lookup(self, fingerprint, strategy, catalog_version):
        key = (fingerprint, strategy)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.catalog_version != catalog_version:
                # DDL happened since this plan was prepared: the view it
                # was expanded against may be gone. Purge, never serve.
                del self._entries[key]
                self.invalidated += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            return entry

    def store(self, entry):
        with self._lock:
            self._entries.pop(entry.key, None)
            self._entries[entry.key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def entry_for(self, handle, strategy, connection, governor=None):
        """Read-through lookup: the cached plan for ``handle`` under
        ``strategy``, prepared on ``connection`` (serialized) on a miss.
        Callers hold the server's read lock, so the catalog version read
        here stays valid for the whole execution. Returns ``(entry,
        state)``, ``state`` being ``"hit"``, ``"miss"`` or ``"replan"``.

        A hit some statistic of whose plan passes has moved since is
        *evicted and re-prepared* — the stale plan was still correct
        (plans never embed rows), but it was optimized against dead
        statistics, and serving it forever would make ANALYZE pointless.
        A write that moves no statistic the plan read (an UPDATE of a
        column it never estimated over) keeps it.
        """
        database = connection.database
        catalog_version = database.schema_version()
        entry, state = self._usable(handle, strategy, database, catalog_version)
        if entry is not None:
            return entry, state
        with self._prepare_lock:
            # Another thread may have prepared it while we waited.
            entry, again = self._usable(
                handle, strategy, database, catalog_version
            )
            if entry is not None:
                return entry, again
            if again == "replan":
                state = again
            if governor is not None:
                governor.checkpoint("prepare of %s" % handle.fingerprint)
            with database.catalog.scoped_views(handle.views):
                graph, plan, heuristic, _ = connection.prepare(
                    handle.query, strategy
                )
            # What the plan passes read, and nothing else: DML that moves
            # no statistic of theirs must not make this plan look stale.
            planned = heuristic if heuristic is not None else plan
            return self.store(CachedPlan(
                fingerprint=handle.fingerprint,
                adornment=statement_adornment(graph),
                strategy=strategy,
                catalog_version=catalog_version,
                graph=graph,
                plan=plan,
                heuristic=heuristic,
                param_count=parameter_count(graph),
                statistics=(
                    planned.statistics_read if planned is not None else {}
                ),
            )), state

    def _usable(self, handle, strategy, database, catalog_version):
        """``(entry, "hit")`` for a cached plan with current statistics,
        else ``(None, "miss")``, or ``(None, "replan")`` after evicting one
        whose statistics went stale (counted as ``stale_replans``)."""
        entry = self.lookup(handle.fingerprint, strategy, catalog_version)
        if entry is None:
            return None, "miss"
        if not entry.staleness(database.catalog):
            return entry, "hit"
        with self._lock:
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]
                self.stale_replans += 1
        return None, "replan"

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def stats(self):
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "stale_replans": self.stale_replans,
            }


def run_prepared(cache, connection, handle, values, start, deadline_seconds,
                 max_rows, cancel_event=None):
    """Run a prepared statement down the fallback chain from ``start``
    under a governor holding the request's budgets; returns ``(response,
    FallbackReport)``. Each rung's plan is read through ``cache`` and
    prepared on ``connection``. Choosing ``start`` and recording the
    report belong to the caller (the server's breaker board)."""
    database = connection.database
    governor = ResourceGovernor(
        deadline_seconds=deadline_seconds, max_materialized_rows=max_rows
    )
    if cancel_event is not None:
        governor.attach_cancel_token(cancel_event, "client disconnected")

    def attempt(strategy):
        entry, cache_state = cache.entry_for(
            handle, strategy, connection, governor
        )
        # The cached graph is never touched: the values travel as the
        # execution's parameter vector, and every concurrent execution of
        # this entry shares its compiled program and nothing else.
        run = run_plan(
            entry, database, handle.executor,
            governor=governor,
            params=values if entry.param_count else None,
            retry_on_tuple=True,
        )
        result = run.result
        return {
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "row_count": len(result.rows),
            "cache": cache_state,
            "fingerprint": entry.fingerprint,
            "adornment": entry.adornment,
            "executor": run.executor,
            "stale_tables": entry.staleness(database.catalog),
        }, run

    return run_with_fallback(
        handle.strategy, attempt, executor=handle.executor, start=start
    )
