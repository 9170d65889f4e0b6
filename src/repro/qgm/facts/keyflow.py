"""Key / duplicate-freeness dataflow.

A fact is a tuple of *keys*; each key is a frozenset of lower-cased output
column names whose values are unique in the box's output. The empty
frozenset is the strongest key — "at most one row" — and subsumes every
other. The lattice is ordered by claim strength (more/smaller keys above),
with top ``(frozenset(),)`` and bottom ``()``.

Transfer functions (one-step sound w.r.t. the evaluator's semantics):

* ``distinct=ENFORCE`` — the full output column set is a key (suppressed
  for the one box a ``ignore_enforce`` query targets).
* BASE — the declared primary/unique keys.
* GROUPBY — the group-key columns, when all group keys are exposed.
* SELECT — *determined-quantifier elimination*: a foreach quantifier whose
  full key is equated to expressions over quantifiers still under
  consideration (or constants) contributes no multiplicity; the keys of
  the remaining quantifiers combine into join keys. A child proven to
  yield at most one row (empty key) is eliminable unconditionally, and a
  select box with no foreach quantifiers yields at most one row itself.
* INTERSECT — keys of *either* input carry over positionally (the output
  is a sub-multiset of each input).
* EXCEPT — keys of the left input carry over positionally.
* OUTERJOIN — the union of a left key and a right key is a key (matched
  pairs are unique per key pair; null-extended rows are unique per left
  key).
* UNION — no structural keys (branches may overlap); only ENFORCE helps.

Unlike the historical recursive derivation, the fixpoint derives keys
*through* recursive cycles: a cyclic box's claim survives iff it is
self-consistent, which is sound because every row of the recursive least
fixpoint appears at a finite stage (see :mod:`engine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.qgm.facts.engine import BoxAnalysis, solve
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, DistinctMode

#: Cap on the cartesian combination of per-quantifier key choices.
_MAX_KEYS = 16

KeyFact = Tuple[frozenset, ...]


def minimal_keys(keys) -> List[frozenset]:
    """Drop keys that are supersets of other keys; deduplicate."""
    unique = sorted(set(keys), key=lambda key: (len(key), sorted(key)))
    out: List[frozenset] = []
    for key in unique:
        if not any(existing <= key and existing != key for existing in out):
            if key not in out:
                out.append(key)
    return out


class KeyAnalysis(BoxAnalysis):
    """Derives unique keys for every box of the solved subgraph."""

    name = "keyflow"

    def __init__(self, ignore_enforce_target: Optional[int] = None):
        #: ``id(box)`` whose DISTINCT enforcement is ignored (the
        #: ``ignore_enforce`` flag of :func:`solve_box_keys`).
        self.ignore_enforce_target = ignore_enforce_target

    def top(self, box) -> KeyFact:
        return (frozenset(),)

    def bottom(self, box) -> KeyFact:
        return ()

    def transfer(self, box, facts: Dict[int, KeyFact]) -> KeyFact:
        keys: List[frozenset] = []
        if (
            box.distinct == DistinctMode.ENFORCE
            and id(box) != self.ignore_enforce_target
        ):
            keys.append(frozenset(name.lower() for name in box.column_names))

        if box.kind == BoxKind.BASE:
            keys.extend(self._base_keys(box))
        elif box.kind == BoxKind.GROUPBY:
            keys.extend(self._groupby_keys(box))
        elif box.kind == BoxKind.SELECT:
            keys.extend(self._select_keys(box, facts))
        elif box.kind == BoxKind.INTERSECT:
            for quantifier in box.quantifiers:
                keys.extend(self._positional_keys(box, quantifier, facts))
        elif box.kind == BoxKind.EXCEPT:
            if box.quantifiers:
                keys.extend(self._positional_keys(box, box.quantifiers[0], facts))
        elif box.kind == BoxKind.OUTERJOIN:
            keys.extend(self._outerjoin_keys(box, facts))

        return tuple(minimal_keys(keys))

    # -- per-kind derivations -------------------------------------------------

    @staticmethod
    def _base_keys(box) -> List[frozenset]:
        if box.schema is None:
            return []
        available = {name.lower() for name in box.column_names}
        out = []
        for declared in box.schema.all_keys():
            lowered = frozenset(part.lower() for part in declared)
            if lowered <= available:
                out.append(lowered)
        return out

    @staticmethod
    def _groupby_keys(box) -> List[frozenset]:
        key_columns = {
            column.name.lower()
            for column in box.columns
            if not isinstance(column.expr, qe.QAggregate)
        }
        # The group keys functionally determine the whole row, so the set
        # of non-aggregate output columns is a key iff every group key is
        # exposed as an output column.
        exposed = 0
        for group_key in box.group_keys:
            for column in box.columns:
                if column.expr is not None and qe.expr_equal(column.expr, group_key):
                    exposed += 1
                    break
        if box.group_keys and exposed == len(box.group_keys):
            return [frozenset(key_columns)]
        if not box.group_keys:
            # Global aggregation produces exactly one row.
            return [frozenset()]
        return []

    @staticmethod
    def _positional_keys(box, quantifier, facts) -> List[frozenset]:
        child = quantifier.input_box
        child_names = [c.name.lower() for c in child.columns]
        own_names = [c.name.lower() for c in box.columns]
        position = {name: idx for idx, name in enumerate(child_names)}
        out = []
        for key in facts.get(id(child), ()):
            try:
                mapped = frozenset(own_names[position[part]] for part in key)
            except (KeyError, IndexError):
                continue
            out.append(mapped)
        return out

    def _select_keys(self, box, facts) -> List[frozenset]:
        foreach = box.foreach_quantifiers()
        if not foreach:
            # No foreach quantifiers: the box emits at most one row (its
            # constant column tuple, gated by any E/A subqueries). This is
            # what proves constant magic seeds duplicate-free.
            return [frozenset()]

        child_keys = {
            quantifier: list(facts.get(id(quantifier.input_box), ()))
            for quantifier in foreach
        }

        local = set(box.quantifiers)
        # bound_supports[q][col] = list of quantifier-support frozensets: one
        # per equality ``q.col = <expr>``, holding the foreach quantifiers
        # the other side references (empty for constants). A column counts
        # as bound only while all quantifiers of some support set are still
        # under consideration — this is what makes mutually-determined
        # quantifier pairs ineligible for joint elimination.
        bound_supports: Dict[object, Dict[str, List[frozenset]]] = {
            quantifier: {} for quantifier in foreach
        }
        for predicate in box.predicates:
            for conjunct in qe.conjuncts(predicate):
                if not (isinstance(conjunct, qe.QBinary) and conjunct.op == "="):
                    continue
                sides = (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                )
                for side, other in sides:
                    if not isinstance(side, qe.QColRef):
                        continue
                    quantifier = side.quantifier
                    if quantifier not in bound_supports:
                        continue
                    other_refs = qe.column_refs(other)
                    if any(ref.quantifier is quantifier for ref in other_refs):
                        continue
                    if any(ref.quantifier not in local for ref in other_refs):
                        continue
                    support = frozenset(
                        ref.quantifier
                        for ref in other_refs
                        if ref.quantifier in bound_supports
                    )
                    bound_supports[quantifier].setdefault(
                        side.column.lower(), []
                    ).append(support)

        remaining = list(foreach)

        def eliminable(quantifier):
            still = set(remaining) - {quantifier}
            supported = {
                col
                for col, supports in bound_supports[quantifier].items()
                if any(support <= still for support in supports)
            }
            return any(key <= supported for key in child_keys[quantifier])

        changed = True
        while changed and remaining:
            changed = False
            for quantifier in list(remaining):
                if eliminable(quantifier):
                    remaining.remove(quantifier)
                    changed = True
                    break

        if not remaining:
            return [frozenset()]

        # Union the remaining quantifiers' keys, mapped through the output.
        output_of = {}
        for column in box.columns:
            if isinstance(column.expr, qe.QColRef):
                output_of[(column.expr.quantifier, column.expr.column.lower())] = (
                    column.name.lower()
                )

        per_quantifier = []
        for quantifier in remaining:
            candidates = []
            for key in child_keys[quantifier]:
                try:
                    candidates.append(
                        frozenset(output_of[(quantifier, part)] for part in key)
                    )
                except KeyError:
                    continue
            if not candidates:
                return []
            per_quantifier.append(candidates)

        combined = [frozenset()]
        for candidates in per_quantifier:
            combined = [
                base | choice for base in combined for choice in candidates
            ][:_MAX_KEYS]
        return combined

    def _outerjoin_keys(self, box, facts) -> List[frozenset]:
        if len(box.quantifiers) != 2:
            return []
        output_of = {}
        for column in box.columns:
            if isinstance(column.expr, qe.QColRef):
                output_of[(column.expr.quantifier, column.expr.column.lower())] = (
                    column.name.lower()
                )
        per_side = []
        for quantifier in box.quantifiers:
            candidates = []
            for key in facts.get(id(quantifier.input_box), ()):
                try:
                    candidates.append(
                        frozenset(output_of[(quantifier, part)] for part in key)
                    )
                except KeyError:
                    continue
            if not candidates:
                return []
            per_side.append(candidates)
        combined = [frozenset()]
        for candidates in per_side:
            combined = [
                base | choice for base in combined for choice in candidates
            ][:_MAX_KEYS]
        return combined


def solve_keys(root_box, ignore_enforce: bool = False) -> Dict[int, KeyFact]:
    """Solve the key analysis over everything reachable from ``root_box``;
    returns ``id(box) -> tuple of keys``. ``ignore_enforce`` suppresses the
    DISTINCT-enforcement key of ``root_box`` itself (only)."""
    analysis = KeyAnalysis(
        ignore_enforce_target=id(root_box) if ignore_enforce else None
    )
    return solve(analysis, [root_box])


def solve_box_keys(box, ignore_enforce: bool = False) -> List[frozenset]:
    """The keys of one box, fixpoint-derived: frozensets of lower-cased
    output column names. ``ignore_enforce`` derives them as if the box did
    *not* enforce DISTINCT (to decide whether the enforcement is
    redundant)."""
    return list(solve_keys(box, ignore_enforce=ignore_enforce).get(id(box), ()))


def is_duplicate_free(box, ignore_enforce: bool = False) -> bool:
    """True when the box's output provably contains no duplicate rows."""
    return bool(solve_box_keys(box, ignore_enforce=ignore_enforce))
