"""The distinct-pullup rule.

Relaxes ``DISTINCT`` enforcement to ``PERMIT`` when the box's output is
provably duplicate-free without it. The paper uses this rule twice during
phase 2 (Example 4.1) — the magic boxes EMST builds carry SELECT DISTINCT,
and proving the DISTINCT redundant is what later allows the merge rule to
fold them away in phase 3 ("This merge was possible only because we
inferred, in phase 2, that duplicates were guaranteed to be absent from the
magic tables").

Duplicate-freeness is decided by the fixpoint key analysis
(:func:`repro.qgm.facts.keyflow.is_duplicate_free`, asked through the rule
index, which remembers the verdict until the graph next changes) — so the
proof also works through recursive cycles, and :func:`repro.magic.magic_boxes.
relax_proven_duplicate_free` applies the same proof graph-wide between
phases 2 and 3.
"""

from __future__ import annotations

from repro.qgm.model import DistinctMode
from repro.rewrite.rule import RewriteRule


class DistinctPullupRule(RewriteRule):
    """ENFORCE → PERMIT when duplicate-freeness is provable."""

    name = "distinct-pullup"
    phases = frozenset({1, 2, 3})
    priority = 20

    def applies_to(self, box, context):
        return box.distinct == DistinctMode.ENFORCE

    def apply(self, box, context):
        if context.index.duplicate_free(box):
            box.distinct = DistinctMode.PERMIT
            return True
        return False
