"""Per-rewrite-strategy circuit breakers.

The per-request fallback chain (``emst -> phase1 -> original``) absorbs a
*single* failing strategy, but it pays the failure cost on every request:
a rewrite bug that reliably kills ``emst`` makes every query attempt the
broken pipeline, fail, roll back and re-prepare under ``phase1``. A
:class:`CircuitBreaker` adds memory across requests: after
``failure_threshold`` consecutive failures a strategy's circuit *opens*
and the serving layer starts requests further down the chain directly for
``cooldown_seconds``; after the cooldown one trial request is let through
(*half-open*) — success closes the circuit, failure re-opens it. A trial
that never reports back (deadline, cancellation, a crashed worker, a
query no rung could answer) is given up on after another
``cooldown_seconds`` and a new trial admitted.

The breaker is deliberately time-source-injectable (``clock``) so tests
exercise the state machine without sleeping.
"""

from __future__ import annotations

import threading
import time

from repro.resilience.fallback import DEFAULT_FALLBACK_CHAIN, describe_error


class CircuitBreaker:
    """A classic closed → open → half-open breaker, behind its own lock
    (one per strategy on the :class:`StrategyBreakerBoard`; the worker
    pool's crash breaker is another)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold=3, cooldown_seconds=30.0, clock=None):
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock or time.monotonic
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None
        self.trial_started_at = None
        #: Lifetime counters for observability.
        self.total_failures = 0
        self.total_successes = 0
        self.times_opened = 0
        self.last_error = None

    def allows(self):
        """May a request start under this strategy right now? Transitions
        OPEN → HALF_OPEN when the cooldown has elapsed (the caller's
        request becomes the trial)."""
        with self._lock:
            if self.state == self.CLOSED:
                return True
            now = self.clock()
            if self.state == self.OPEN:
                if now - self.opened_at < self.cooldown_seconds:
                    return False
                self.state = self.HALF_OPEN
            elif now - self.trial_started_at < self.cooldown_seconds:
                # HALF_OPEN: further requests stay demoted until the trial
                # reports back, or is overdue and presumed lost.
                return False
            self.trial_started_at = now
            return True

    def record_success(self):
        with self._lock:
            self.total_successes += 1
            self.consecutive_failures = 0
            self.state = self.CLOSED
            self.opened_at = None

    def record_failure(self, error=None):
        """``error`` is an exception or its description."""
        with self._lock:
            self.total_failures += 1
            self.consecutive_failures += 1
            self.last_error = (
                error if error is None or isinstance(error, str)
                else describe_error(error)
            )
            if (
                self.state == self.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold
            ):
                self.state = self.OPEN
                self.opened_at = self.clock()
                self.times_opened += 1

    def snapshot(self):
        with self._lock:
            remaining = None
            if self.state == self.OPEN and self.opened_at is not None:
                remaining = max(
                    self.cooldown_seconds - (self.clock() - self.opened_at),
                    0.0,
                )
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "total_failures": self.total_failures,
                "total_successes": self.total_successes,
                "times_opened": self.times_opened,
                "cooldown_remaining": remaining,
                "last_error": self.last_error,
            }


class StrategyBreakerBoard:
    """One breaker per rewrite strategy plus the demotion policy.

    :meth:`select` returns the first strategy at or below ``requested``
    whose circuit admits traffic; the chain's last entry (``original`` —
    no rewrite at all) is never blocked, so a query can always run.
    :meth:`record` feeds one answered request's
    :class:`~repro.resilience.fallback.FallbackReport` back in; a request
    that no rung answered has no report and charges no strategy.
    Thread-safe: the serving layer calls it from executor threads.
    """

    def __init__(self, failure_threshold=3, cooldown_seconds=30.0,
                 clock=None):
        self.chain = DEFAULT_FALLBACK_CHAIN
        self._lock = threading.Lock()
        self.breakers = {
            strategy: CircuitBreaker(
                failure_threshold=failure_threshold,
                cooldown_seconds=cooldown_seconds,
                clock=clock,
            )
            for strategy in self.chain
        }
        self.demotions = 0

    def select(self, requested):
        """The strategy to *start* the request under. Strategies outside
        the chain (``correlated``, ``norewrite``) have no breaker and pass
        through unchanged."""
        if requested not in self.chain:
            return requested
        with self._lock:
            index = self.chain.index(requested)
            for strategy in self.chain[index:-1]:
                if self.breakers[strategy].allows():
                    if strategy != requested:
                        self.demotions += 1
                    return strategy
                self.demotions += 1
            return self.chain[-1]

    def record_failure(self, strategy, error=None):
        breaker = self.breakers.get(strategy)
        if breaker is not None:
            breaker.record_failure(error)

    def record(self, report):
        """A failure for every rung the request failed on before a later
        one answered, a success for the one that answered."""
        for strategy, error in report.attempts:
            self.record_failure(strategy, error)
        breaker = self.breakers.get(report.executed)
        if breaker is not None:
            breaker.record_success()

    def snapshot(self):
        with self._lock:
            return {
                "demotions": self.demotions,
                "strategies": {
                    name: breaker.snapshot()
                    for name, breaker in self.breakers.items()
                },
            }
