"""Projection pruning: drop output columns nobody reads.

EMST's adorned copies often expose columns their single consumer never
references; pruning them shrinks intermediate results. Pruning is unsafe on
boxes that enforce DISTINCT (the column set defines the duplicate-
elimination key) and on the positional children of set operations.
"""

from __future__ import annotations

from repro.magic.adornment import Adornment
from repro.qgm.model import BoxKind, DistinctMode
from repro.rewrite.rule import RewriteRule


class ProjectionPruneRule(RewriteRule):
    """Remove unused output columns of derived boxes."""

    name = "projection-prune"
    phases = frozenset({1, 3})
    priority = 80

    def applies_to(self, box, context):
        return box.kind in (BoxKind.SELECT, BoxKind.GROUPBY)

    def apply(self, box, context):
        if box is context.graph.top_box:
            return False
        if box.distinct == DistinctMode.ENFORCE:
            return False
        if context.phase < 3 and box.is_special:
            return False
        index = context.index
        # Positional consumers (set ops) forbid pruning.
        if index.positionally_consumed(box):
            return False
        if index.total_uses(box) < 1:
            return False
        used = index.referenced_columns(box)
        keep = [c for c in box.columns if c.name.lower() in used]
        if not keep:
            keep = box.columns[:1]  # a box must output something
        if len(keep) == len(box.columns):
            return False
        if box.adornment is not None:
            # One letter per output column: pruned columns take theirs along.
            kept = {id(column) for column in keep}
            box.adornment = Adornment("".join(
                letter
                for letter, column in zip(box.adornment, box.columns)
                if id(column) in kept
            ))
        box.columns = keep
        return True
