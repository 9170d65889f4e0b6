"""Per-query resource budgets, checked cooperatively by the pipeline.

A :class:`ResourceGovernor` is handed to the rewrite engine, the fixpoint
machinery and the evaluators; each checks its own budget at natural
yield points (once per sweep, per round, per box materialisation) and
raises :class:`~repro.errors.ResourceExhaustedError` with structured
context when a limit trips. The historical hard-coded caps (200 sweeps
in the rewrite engine, 100000 rounds in the fixpoint loop) live on as
the governor's defaults.

Counters for cumulative budgets (rows, correlated invocations, the
deadline clock) are per *query*: :meth:`begin_query` resets them, and
:class:`~repro.api.Connection` calls it before every query so one
governor instance can police a whole connection. Sweep and round budgets
are local to each ``run_phase``/``run_fixpoint`` call — two independent
recursive components each get the full round budget.
"""

from __future__ import annotations

import time

from repro.errors import QueryCancelledError, ResourceExhaustedError

#: Historical cap from ``rewrite/engine.py``.
DEFAULT_MAX_REWRITE_SWEEPS = 200
#: Historical cap from ``engine/recursion.py``.
DEFAULT_MAX_FIXPOINT_ROUNDS = 100000


class ResourceGovernor:
    """Cooperative per-query budget checks.

    ``None`` for any limit means "unlimited" — except the two historical
    caps, which default to their pre-governor values so a runaway rewrite
    or fixpoint is always stopped.
    """

    def __init__(
        self,
        deadline_seconds=None,
        max_rewrite_sweeps=DEFAULT_MAX_REWRITE_SWEEPS,
        max_fixpoint_rounds=DEFAULT_MAX_FIXPOINT_ROUNDS,
        max_materialized_rows=None,
        max_correlated_invocations=None,
    ):
        self.deadline_seconds = deadline_seconds
        self.max_rewrite_sweeps = max_rewrite_sweeps
        self.max_fixpoint_rounds = max_fixpoint_rounds
        self.max_materialized_rows = max_materialized_rows
        self.max_correlated_invocations = max_correlated_invocations
        self.begin_query()

    # -- lifecycle ---------------------------------------------------------------

    def begin_query(self):
        """Reset cumulative counters and restart the deadline clock.

        The cancel token is also cleared: cancellation is a per-query
        signal, and a governor reused across a connection must not let a
        stale token kill the next query.
        """
        self._started_at = time.perf_counter()
        self.materialized_rows = 0
        self.correlated_invocations = 0
        self._cancel_event = None
        self._cancel_reason = None

    def elapsed_seconds(self):
        return time.perf_counter() - self._started_at

    def remaining(self):
        """A machine-readable snapshot of the unspent budgets.

        Keys mirror the constructor arguments; a value of ``None`` means
        "unlimited". The admission layer uses this to decide whether a
        queued request still has enough budget to be worth dispatching,
        and it is surfaced verbatim in server ``stats`` responses.
        """
        deadline_remaining = None
        if self.deadline_seconds is not None:
            deadline_remaining = max(
                self.deadline_seconds - self.elapsed_seconds(), 0.0
            )
        rows_remaining = None
        if self.max_materialized_rows is not None:
            rows_remaining = max(
                self.max_materialized_rows - self.materialized_rows, 0
            )
        correlated_remaining = None
        if self.max_correlated_invocations is not None:
            correlated_remaining = max(
                self.max_correlated_invocations - self.correlated_invocations, 0
            )
        return {
            "deadline_seconds": deadline_remaining,
            "max_materialized_rows": rows_remaining,
            "max_correlated_invocations": correlated_remaining,
            # Sweep/round budgets are per run_phase/run_fixpoint call, not
            # cumulative; the full limit is always available to a new call.
            "max_rewrite_sweeps": self.max_rewrite_sweeps,
            "max_fixpoint_rounds": self.max_fixpoint_rounds,
        }

    # -- cancellation ------------------------------------------------------------

    def attach_cancel_token(self, event, reason="cancelled"):
        """Arm cooperative cancellation: ``event`` is any object with an
        ``is_set()`` method (``threading.Event`` in practice). Once set,
        the next checkpoint raises :class:`QueryCancelledError`."""
        self._cancel_event = event
        self._cancel_reason = reason

    def cancel(self, reason="cancelled"):
        """Cancel from the governor itself (no external event needed)."""

        class _Set:
            @staticmethod
            def is_set():
                return True

        self._cancel_event = _Set()
        self._cancel_reason = reason

    @property
    def cancelled(self):
        return self._cancel_event is not None and self._cancel_event.is_set()

    # -- raising -----------------------------------------------------------------

    def _exhausted(self, limit, value, where, progress, retry_after=None):
        raise ResourceExhaustedError(
            "%s exceeded %s=%s (%s)" % (where, limit, value, progress),
            limit=limit,
            where=where,
            progress=progress,
            retry_after=retry_after,
        )

    # -- checks ------------------------------------------------------------------

    def check_cancelled(self, where):
        if self.cancelled:
            raise QueryCancelledError(
                "query cancelled during %s (%s)" % (where, self._cancel_reason),
                where=where,
                reason=self._cancel_reason,
            )

    def checkpoint(self, where):
        """The cooperative yield point the engine loops call: observes the
        cancel token and the wall-clock deadline (both cheap)."""
        self.check_deadline(where)

    def check_deadline(self, where):
        """Cheap wall-clock check; called from every other check too."""
        self.check_cancelled(where)
        if self.deadline_seconds is None:
            return
        elapsed = self.elapsed_seconds()
        if elapsed > self.deadline_seconds:
            self._exhausted(
                "deadline_seconds",
                self.deadline_seconds,
                where,
                "%.3fs elapsed" % elapsed,
                # A fresh attempt gets a full budget; hint clients to wait
                # for roughly one budget before retrying a timed-out query.
                retry_after=self.deadline_seconds,
            )

    def check_rewrite_sweeps(self, sweeps, phase):
        where = "rewrite phase %s" % phase
        self.check_deadline(where)
        if self.max_rewrite_sweeps is not None and sweeps > self.max_rewrite_sweeps:
            self._exhausted(
                "max_rewrite_sweeps",
                self.max_rewrite_sweeps,
                where,
                "no fixpoint after %d sweeps" % (sweeps - 1),
            )

    def check_fixpoint_rounds(self, rounds, component):
        """``component`` is the list of box names in the recursive SCC; it
        is echoed into the error so the offending view is identifiable."""
        where = "fixpoint over recursive component [%s]" % ", ".join(component)
        self.check_deadline(where)
        if self.max_fixpoint_rounds is not None and rounds > self.max_fixpoint_rounds:
            self._exhausted(
                "max_fixpoint_rounds",
                self.max_fixpoint_rounds,
                where,
                "no convergence after %d rounds" % (rounds - 1),
            )

    def charge_rows(self, count, where):
        self.check_deadline(where)
        self.materialized_rows += count
        if (
            self.max_materialized_rows is not None
            and self.materialized_rows > self.max_materialized_rows
        ):
            self._exhausted(
                "max_materialized_rows",
                self.max_materialized_rows,
                where,
                "%d rows materialized" % self.materialized_rows,
            )

    def charge_correlated(self, where):
        self.check_deadline(where)
        self.correlated_invocations += 1
        if (
            self.max_correlated_invocations is not None
            and self.correlated_invocations > self.max_correlated_invocations
        ):
            self._exhausted(
                "max_correlated_invocations",
                self.max_correlated_invocations,
                where,
                "%d correlated invocations" % self.correlated_invocations,
            )
