"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type. Subsystems raise the most specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``context`` carries structured diagnostics (which subsystem, how far
    along, which limit, ...) so callers can react programmatically instead
    of parsing the message. Subclasses that accept positional arguments
    keep working: ``context`` is keyword-only.
    """

    def __init__(self, *args, context=None):
        super().__init__(*args)
        self.context = dict(context or {})


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexError(SqlError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser cannot make sense of the token stream."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column or 0)
        super().__init__(message)
        self.line = line
        self.column = column


class CatalogError(ReproError):
    """Raised for unknown tables/columns or conflicting definitions."""


class BindError(ReproError):
    """Raised when names in a query cannot be resolved against the catalog."""


class QgmError(ReproError):
    """Raised when a QGM graph is malformed or an invariant is violated."""


class RewriteError(ReproError):
    """Raised when a rewrite rule produces or encounters an invalid graph."""


class MagicError(RewriteError):
    """Raised by the EMST machinery (adornment mismatch, bad sips, ...)."""


class ExecutionError(ReproError):
    """Raised by the execution engine (cardinality violations etc.)."""


class ResourceExhaustedError(ExecutionError):
    """Raised by the :class:`~repro.resilience.ResourceGovernor` when a
    per-query budget (wall-clock deadline, rewrite sweeps, fixpoint rounds,
    materialized rows, correlated invocations) is exceeded.

    ``limit`` names the budget that tripped, ``where`` the pipeline stage,
    and ``progress`` how far the query got; all three are repeated in
    :attr:`ReproError.context` for structured consumption. ``retry_after``
    (seconds, may be None) is a machine-readable hint for admission and
    retry layers: how long to wait before the same request is worth
    resubmitting — also mirrored into ``context`` so wire serializers
    need not special-case the attribute.
    """

    #: Budget errors are deterministic for a fixed query and budget: the
    #: same request retried immediately fails identically, so they are not
    #: retryable by default. Subclasses representing *load* conditions
    #: (queue full) override this.
    retryable = False

    def __init__(self, message, limit=None, where=None, progress=None,
                 retry_after=None, context=None):
        merged = {
            "limit": limit,
            "where": where,
            "progress": progress,
            "retry_after": retry_after,
        }
        merged.update(context or {})
        super().__init__(message, context=merged)
        self.limit = limit
        self.where = where
        self.progress = progress
        self.retry_after = retry_after


class QueryCancelledError(ExecutionError):
    """Raised at a cooperative cancellation checkpoint after the query's
    cancel token was set (client disconnect, server shutdown, admin kill).

    Distinct from :class:`ResourceExhaustedError`: a cancelled query did
    not exceed any budget, and retrying it (with a live client) is safe —
    the engine guarantees cancelled queries leave no partial state.
    """

    retryable = True

    def __init__(self, message, where=None, reason=None, context=None):
        merged = {"where": where, "reason": reason}
        merged.update(context or {})
        super().__init__(message, context=merged)
        self.where = where
        self.reason = reason


class ServerOverloadedError(ResourceExhaustedError):
    """Raised by the admission controller when the server sheds a request
    because the concurrency gate and its bounded queue are both full.

    Carries a ``retry_after`` hint (seconds) computed from the observed
    service rate, so well-behaved clients back off instead of hammering.
    Always retryable: load is transient by definition.
    """

    retryable = True

    def __init__(self, message, retry_after=None, queue_depth=None,
                 active=None, context=None):
        merged = {"queue_depth": queue_depth, "active": active}
        merged.update(context or {})
        super().__init__(
            message,
            limit="admission",
            where="admission control",
            progress="request shed before execution",
            retry_after=retry_after,
            context=merged,
        )
        self.queue_depth = queue_depth
        self.active = active


class WorkerCrashedError(ExecutionError):
    """Raised by the worker pool when the process executing a query died
    before replying (SIGKILL, OOM, hard crash).

    The crash consumed the in-flight request but left no partial state
    behind: result-cache entries are stored only after a complete reply,
    and the crashed worker's private plan cache died with it. The pool
    respawns a replacement before this error reaches the client, so a
    retry lands on a healthy worker — always retryable.
    """

    retryable = True

    def __init__(self, message, pid=None, retry_after=None, context=None):
        merged = {"pid": pid, "retry_after": retry_after}
        merged.update(context or {})
        super().__init__(message, context=merged)
        self.pid = pid
        self.retry_after = retry_after


class NotSupportedError(ReproError):
    """Raised for SQL constructs outside the supported subset."""
