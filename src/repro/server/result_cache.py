"""Cross-request result cache.

A prepared plan makes repeated executions cheap; a *result* cache makes
them free — but only when it can prove the cached rows are the rows the
query would produce right now. The key carries that proof:

``(fingerprint, strategy, catalog version, bindings, table data
versions)``

* **fingerprint** — the parameterized statement (constants collapsed),
  same as the plan cache,
* **strategy** — kept separate for observability (the row sets are
  differentially tested equal, but a hit must report the strategy that
  produced it); the server has one engine per strategy, so the strategy
  also fixes the engine a hit reports,
* **catalog version** — DDL makes every older entry unreachable,
* **bindings** — the concrete parameter values (client-sent plus
  auto-extracted literals), the part the plan cache deliberately
  abstracts over,
* **table data versions** — ``{table -> Table.version}`` at execution
  time. Any DML bumps the mutated table's version, so an entry computed
  before the DML can never match a lookup after it. This is the
  :meth:`~repro.server.plan_cache.CachedPlan.staleness` plumbing turned
  from a report into a key: staleness is not *detected*, it is
  *unrepresentable*.

Lookups and stores both happen under the server's read lock, and DML
runs under the write lock, so the versions in a key cannot move between
lookup and serve — the hypothesis interleaving test in
``tests/test_server_multiprocess.py`` hammers exactly this invariant.

Entries are frozen (tuple-of-tuples rows) and materialized into fresh
response dicts on every serve, so one request annotating its response
cannot corrupt the cached copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class ResultCache:
    """A bounded LRU of frozen query results, thread-safe.

    ``capacity=0`` disables the cache entirely (every lookup misses,
    every store is a bypass); ``max_rows`` keeps monster results from
    evicting the whole working set.
    """

    def __init__(self, capacity=256, max_rows=10000):
        self.capacity = capacity
        self.max_rows = max_rows
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> frozen response template
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypassed = 0

    @staticmethod
    def make_key(fingerprint, strategy, catalog_version, values,
                 table_versions):
        """Build (and hash-check) a cache key; None if any binding value
        is unhashable (such a request simply bypasses the cache)."""
        key = (
            fingerprint,
            strategy,
            catalog_version,
            tuple(values),
            tuple(sorted(table_versions.items())),
        )
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def lookup(self, key):
        """A fresh response dict for the key, or None. Counts a miss for
        None keys so bypasses are visible in the hit rate."""
        if key is None or not self.capacity:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            frozen = self._entries.get(key)
            if frozen is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return self._materialize(frozen)

    def store(self, key, response):
        """Freeze and cache a successful response. Returns True if the
        entry was stored, False on bypass (disabled, oversized result,
        unhashable key)."""
        if key is None or not self.capacity:
            with self._lock:
                self.bypassed += 1
            return False
        rows = response.get("rows") or []
        if len(rows) > self.max_rows:
            with self._lock:
                self.bypassed += 1
            return False
        frozen = {
            "columns": tuple(response.get("columns") or ()),
            "rows": tuple(tuple(row) for row in rows),
            # worker_pid is dropped: it names the process that produced
            # the entry, which is meaningless (and possibly dead) by the
            # time a hit serves it.
            "extra": {
                name: value
                for name, value in response.items()
                if name not in ("columns", "rows", "row_count", "worker_pid")
                and isinstance(value, (str, int, float, bool, type(None)))
            },
        }
        with self._lock:
            self._entries[key] = frozen
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return True

    @staticmethod
    def _materialize(frozen):
        response = dict(frozen["extra"])
        response["columns"] = list(frozen["columns"])
        response["rows"] = [list(row) for row in frozen["rows"]]
        response["row_count"] = len(frozen["rows"])
        return response

    def clear(self):
        with self._lock:
            self._entries.clear()

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
                "bypassed": self.bypassed,
            }
