"""Test helpers shared across modules."""

from __future__ import annotations

# The one row canonicaliser (floats rounded, rows sorted by repr so NULLs
# and mixed types compare), under the name the tests use.
from repro.workloads.experiments import canonical_rows as canonical


def assert_same_rows(left, right):
    assert canonical(left) == canonical(right)


def run_all_strategies(conn, sql, strategies=("original", "correlated", "emst")):
    """Execute under every strategy; assert all agree; return the rows."""
    reference = None
    for strategy in strategies:
        outcome = conn.explain_execute(sql, strategy=strategy)
        rows = canonical(outcome.rows)
        if reference is None:
            reference = rows
        else:
            assert rows == reference, "strategy %s disagrees on %r" % (strategy, sql)
    return reference
