"""Derivation of unique keys for QGM boxes.

The distinct-pullup rewrite rule (and hence the phase-3 merging of magic
boxes, see Example 4.1 in the paper) depends on *proving duplicate
freeness*: the paper infers "that duplicate magic tuples will not be
generated" so that the DISTINCT in statements SD3/SD4 can be dropped and the
magic boxes merged.

A *key* of a box is a set of output column names whose values are unique in
the box's output; the empty key means "at most one row". Since the dataflow
subsystem landed, this module is a thin façade over the fixpoint key
analysis (:mod:`repro.analysis.dataflow.keyflow`), which derives keys

* through recursive cycles (the historical recursive derivation bailed out
  and returned none),
* for zero-quantifier constant selects (at most one row — this is what
  proves constant magic seed boxes duplicate-free),
* for INTERSECT from *either* input (not just the left), and
* for outer joins (left key ∪ right key).

See the keyflow module for the per-box transfer functions and the
soundness/termination argument for the fixpoint.
"""

from __future__ import annotations


def box_keys(box, ignore_enforce=False):
    """Return the list of derivable keys for ``box``.

    Each key is a frozenset of lower-cased output column names. Set
    ``ignore_enforce`` to derive keys as if the box did *not* enforce
    DISTINCT (used to decide whether the enforcement is redundant).
    """
    # Imported lazily: repro.analysis.dataflow imports the QGM model, and
    # repro.qgm.__init__ imports this module.
    from repro.analysis.dataflow.keyflow import solve_box_keys

    return solve_box_keys(box, ignore_enforce=ignore_enforce)


def is_duplicate_free(box, ignore_enforce=False):
    """True when the box's output provably contains no duplicate rows."""
    return bool(box_keys(box, ignore_enforce=ignore_enforce))
