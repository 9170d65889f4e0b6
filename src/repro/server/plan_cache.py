"""Adornment-keyed prepared-plan cache.

A parameterized statement is the paper's magic-sets use case in miniature:
the rewrite binds the parameter positions exactly like a magic set binds a
view's columns, so the rewritten + optimized graph is reusable for *any*
values with the same binding pattern. The cache keys each entry on

``(statement fingerprint, binding adornment, strategy, catalog version)``

* **fingerprint** — sha256 of the parameterized statement's canonical SQL
  (:func:`repro.sql.parameterize.fingerprint_query`): constants collapsed,
  whitespace and literal spelling irrelevant,
* **binding adornment** — one ``b``/``c``/``f`` letter per parameter slot
  (§2's vocabulary applied to the statement's bindings): ``b`` when the
  slot is used in an equality predicate, ``c`` in any other predicate,
  ``f`` when it only feeds output expressions,
* **strategy** — emst/phase1/original plans differ structurally,
* **catalog version** — any durable DDL makes every older entry
  unreachable; DDL *invalidates* plans, it can never corrupt them.

Entries also record the data versions of the tables they were optimized
against, so statistics staleness is detectable (a stale plan is still
correct — plans never embed rows — just possibly suboptimal).

Execution never writes to a cached entry: the graph keeps its
:class:`~repro.qgm.expr.QParam` nodes, each request's values travel as the
execution's parameter vector, and the batch executor's compiled program
(:attr:`CachedPlan.program`, built by the first execution that needs it)
holds no per-execution state. Graph and program are immutable by
convention and shared across executor threads and forked workers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.magic.adornment import BOUND, CONDITIONED, FREE
from repro.qgm import expr as qe


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
    #: ``{table name (lower) -> data version}`` at optimization time;
    #: compared against current versions to detect statistics staleness.
    table_versions: dict = field(default_factory=dict)
    hits: int = 0
    #: The batch executor's compiled program (see
    #: :func:`repro.api.run_plan`); depends on ``graph`` and ``plan``
    #: only, so it lives exactly as long as the entry.
    program: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def key(self):
        return (
            self.fingerprint,
            self.adornment,
            self.strategy,
            self.catalog_version,
        )

    def staleness(self, current_versions):
        """Tables whose data version moved since this plan was optimized."""
        return sorted(
            name
            for name, version in self.table_versions.items()
            if current_versions.get(name, version) != version
        )


class AdornmentPlanCache:
    """A bounded LRU of :class:`CachedPlan`, thread-safe.

    Lookups present ``(fingerprint, strategy, catalog_version)`` — the
    adornment is a property of the fingerprint (same parameterized shape,
    same binding pattern), so a secondary index resolves the full
    adornment-bearing key. Entries stored under an older catalog version
    are purged on sight and counted as ``invalidated``.
    """

    def __init__(self, capacity=128):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # full key -> CachedPlan
        self._by_lookup = {}  # (fingerprint, strategy) -> full key
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.stale_replans = 0

    def _after_fork(self):
        """Replace the lock after a fork: the parent may have held it at
        fork time, and a child that inherits a locked lock deadlocks on
        first use. Only the forking worker's private copy is touched."""
        self._lock = threading.Lock()

    def evict_stale(self, key):
        """Drop an entry whose statistics went stale so the caller can
        re-prepare against current table versions. Counted separately
        from capacity evictions (``stale_replans``)."""
        with self._lock:
            if key in self._entries:
                self._drop(key)
                self.stale_replans += 1
                return True
            return False

    def lookup(self, fingerprint, strategy, catalog_version):
        with self._lock:
            key = self._by_lookup.get((fingerprint, strategy))
            if key is None:
                self.misses += 1
                return None
            entry = self._entries.get(key)
            if entry is None:
                del self._by_lookup[(fingerprint, strategy)]
                self.misses += 1
                return None
            if entry.catalog_version != catalog_version:
                # DDL happened since this plan was prepared: the view it
                # was expanded against may be gone. Purge, never serve.
                self._drop(key)
                self.invalidated += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            return entry

    def store(self, entry):
        with self._lock:
            lookup = (entry.fingerprint, entry.strategy)
            previous = self._by_lookup.get(lookup)
            if previous is not None and previous in self._entries:
                self._drop(previous)
            self._entries[entry.key] = entry
            self._by_lookup[lookup] = entry.key
            while len(self._entries) > self.capacity:
                oldest, _ = self._entries.popitem(last=False)
                self._by_lookup.pop((oldest[0], oldest[2]), None)
                self.evictions += 1
        return entry

    def _drop(self, key):
        self._entries.pop(key, None)
        self._by_lookup.pop((key[0], key[2]), None)

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._by_lookup.clear()

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
