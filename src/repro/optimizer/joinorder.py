"""Join-order optimization for one select box.

Left-deep enumeration with dynamic programming over quantifier subsets
(exact up to :data:`DP_LIMIT` quantifiers, greedy beyond — the pruning the
paper notes real optimizers must use). The cost metric is the classic sum
of intermediate result cardinalities, which is what the EMST join-order
heuristic needs: a *relative* ranking of orders plus comparable totals.
"""

from __future__ import annotations

from itertools import combinations

from repro.qgm.model import BoxKind

DP_LIMIT = 10


def _subset_cardinality(box, subset, estimator):
    cardinality = 1.0
    for quantifier in subset:
        cardinality *= estimator.rows(quantifier.input_box)
    for predicate in estimator.applicable_predicates(box, subset):
        cardinality *= estimator.selectivity(predicate)
    return max(cardinality, 1.0)


def optimize_select_box(box, estimator):
    """Choose a join order for the foreach quantifiers of ``box``.

    Returns ``(order, cost, output_rows)`` where ``order`` is the list of
    quantifier names. Magic quantifiers, when present, are pinned to the
    front of the order (the magic table is the filter that everything else
    joins against — Algorithm 4.2 assumes it comes first).
    """
    foreach = box.foreach_quantifiers()
    magic = [q for q in foreach if q.is_magic]
    regular = [q for q in foreach if not q.is_magic]

    output_rows = estimator.rows(box)
    if len(regular) <= 1:
        order = [q.name for q in magic + regular]
        cost = _subset_cardinality(box, set(foreach), estimator) if foreach else 1.0
        return order, cost, output_rows

    if len(regular) <= DP_LIMIT:
        ordered = _dp_order(box, magic, regular, estimator)
    else:
        ordered = _greedy_order(box, magic, regular, estimator)
    order = [q.name for q in magic + ordered]
    cost = _order_cost(box, magic + ordered, estimator)
    return order, cost, output_rows


def _order_cost(box, ordered, estimator):
    """Sum of intermediate cardinalities of a left-deep order."""
    cost = 0.0
    prefix = set()
    for quantifier in ordered:
        prefix.add(quantifier)
        cost += _subset_cardinality(box, prefix, estimator)
    return cost


def _dp_order(box, magic, regular, estimator):
    """Exact left-deep DP over subsets of the non-magic quantifiers."""
    base = frozenset(magic)
    best = {}  # frozenset(regular subset) -> (cost, order list)
    for quantifier in regular:
        subset = frozenset([quantifier])
        cost = _subset_cardinality(box, base | subset, estimator)
        best[subset] = (cost, [quantifier])
    for size in range(2, len(regular) + 1):
        for combo in combinations(regular, size):
            subset = frozenset(combo)
            subset_card = _subset_cardinality(box, base | subset, estimator)
            candidate = None
            for quantifier in combo:
                rest = subset - {quantifier}
                prev_cost, prev_order = best[rest]
                cost = prev_cost + subset_card
                # Tie-break: on equal cost, place derived tables later in
                # the order — a later derived table can receive bindings
                # (sideways information passing / magic), while a base
                # table accessed later still has its indexes.
                tie = 0 if quantifier.input_box.kind != BoxKind.BASE else 1
                key = (cost, tie)
                if candidate is None or key < candidate[0]:
                    candidate = (key, prev_order + [quantifier])
            best[subset] = (candidate[0][0], candidate[1])
    return best[frozenset(regular)][1]


def _greedy_order(box, magic, regular, estimator):
    """Greedy smallest-next-intermediate heuristic for wide joins."""
    remaining = list(regular)
    prefix = set(magic)
    ordered = []
    while remaining:
        choice = min(
            remaining,
            key=lambda q: (
                _subset_cardinality(box, prefix | {q}, estimator),
                0 if q.input_box.kind == BoxKind.BASE else 1,
            ),
        )
        remaining.remove(choice)
        prefix.add(choice)
        ordered.append(choice)
    return ordered
