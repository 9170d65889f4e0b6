"""Budgeted homomorphism search between tableaux.

The classical test: ``Q1 ⊑_Σ Q2`` iff there is a homomorphism from Q2's
tableau into ``chase_Σ(Q1)`` that fixes the head. The search here is a
plain backtracking matcher with three outcomes — found / definitely none /
budget exhausted — because translation validation must never confuse
"I gave up" with "there is none".

``require_iso=True`` asks for a bijection that also respects the
foreach/existential flag, builtins and non-null obligations: an
isomorphism of chased, ``bag_exact`` tableaux certifies *multiset*
equivalence, which is what lets the checker bless rewrites of boxes that
are not duplicate-free.
"""

from __future__ import annotations

from repro.analysis.equivalence.tableau import Builtin, Const
from repro.qgm.facts import domains

HOM_FOUND = "found"
HOM_NONE = "none"
HOM_BUDGET = "budget"


def _map_cmp(cmp, mapping):
    """Image of a comparison fact under a term mapping, or None when a
    variable side is not covered by the mapping."""

    def side(term):
        if isinstance(term, domains.Val):
            return term
        image = mapping.get(term)
        if image is None:
            return None
        if isinstance(image, Const):
            return domains.Val(image.value)
        return image

    left = side(cmp.left)
    if left is None:
        return None
    if cmp.op == "in":
        return domains.Cmp("in", left, cmp.right)
    right = side(cmp.right)
    if right is None:
        return None
    return domains.Cmp(cmp.op, left, right)


class _Budget(Exception):
    """Raised when the node budget is exhausted."""


def effective_nonnull(tableau):
    """Terms guaranteed non-NULL in ``tableau``: explicit obligations,
    non-NULL constants, and terms sitting in a declared NOT NULL column
    of some atom."""
    out = set(tableau.nonnull)
    for atom in tableau.atoms:
        schema = tableau.schemas.get(atom.relation)
        if schema is None:
            continue
        not_null = schema.not_null_columns()
        for column, term in zip(schema.columns, atom.terms):
            if column.name.lower() in not_null:
                out.add(term)
    for atom in tableau.atoms:
        for term in atom.terms:
            if isinstance(term, Const) and term.value is not None:
                out.add(term)
    for term in tableau.head:
        if isinstance(term, Const) and term.value is not None:
            out.add(term)
    return out


def _bind(mapping, inverse, src_term, dst_term):
    """Extend ``mapping`` with ``src_term -> dst_term``; None on conflict.

    Returns the list of keys added (for undo), or None when inconsistent.
    ``inverse`` is maintained only when injectivity is required.
    """
    added = []
    if isinstance(src_term, Const):
        if src_term != dst_term:
            return None
        return added
    if inverse is not None and isinstance(dst_term, Const):
        # An isomorphism renames variables onto variables; a variable
        # landing on a constant means one side is strictly more
        # constrained (e.g. an extra literal filter), not equivalent.
        return None
    bound = mapping.get(src_term)
    if bound is not None:
        if bound != dst_term:
            return None
        return added
    if inverse is not None:
        holder = inverse.get(dst_term)
        if holder is not None and holder != src_term:
            return None
        inverse[dst_term] = src_term
    mapping[src_term] = dst_term
    added.append(src_term)
    return added


def _unbind(mapping, inverse, added):
    for key in added:
        dst = mapping.pop(key)
        if inverse is not None:
            inverse.pop(dst, None)


def find_homomorphism(src, dst, budget, atoms_only=False, require_iso=False):
    """Search for a head-fixing homomorphism ``src -> dst``.

    Returns ``(status, mapping)`` with status one of :data:`HOM_FOUND`,
    :data:`HOM_NONE`, :data:`HOM_BUDGET`. With ``atoms_only`` the builtin
    and non-null obligations of ``src`` are ignored (used when proving
    that *no* variant of the witness row can be produced).
    """
    if len(src.head) != len(dst.head):
        return HOM_NONE, None
    if require_iso and len(src.atoms) != len(dst.atoms):
        return HOM_NONE, None

    mapping = {}
    inverse = {} if require_iso else None
    for src_term, dst_term in zip(src.head, dst.head):
        if _bind(mapping, inverse, src_term, dst_term) is None:
            return HOM_NONE, None

    dst_by_relation = {}
    for atom in dst.atoms:
        dst_by_relation.setdefault(atom.relation, []).append(atom)

    # Most-constrained-first: fewer candidate atoms, earlier failure.
    src_atoms = sorted(
        src.atoms,
        key=lambda atom: (len(dst_by_relation.get(atom.relation, ())), atom.relation),
    )

    dst_builtins = set(dst.builtins)
    dst_nonnull = effective_nonnull(dst)
    src_nonnull = effective_nonnull(src) if require_iso else src.nonnull
    # Interpreted comparison facts: containment needs the target to *imply*
    # each mapped source fact, not to carry a syntactically equal copy.
    dst_system = domains.system_of(dst.comparisons)
    src_system = domains.system_of(src.comparisons) if require_iso else None
    used = set()
    nodes = [0]

    def check_obligations():
        if atoms_only:
            return True
        for cmp in src.comparisons:
            image = _map_cmp(cmp, mapping)
            if image is None or not dst_system.implies(image):
                return False
        if require_iso:
            # Mutual implication: the two predicate sets must be logically
            # equivalent, else multiplicity-preserving equality fails.
            for cmp in dst.comparisons:
                image = _map_cmp(cmp, inverse)
                if image is None or not src_system.implies(image):
                    return False
        for builtin in src.builtins:
            image = []
            for term in builtin.terms:
                if isinstance(term, Const):
                    image.append(term)
                elif term in mapping:
                    image.append(mapping[term])
                else:
                    return False
            if Builtin(builtin.skeleton, tuple(image)) not in dst_builtins:
                return False
        for term in src_nonnull:
            image = term if isinstance(term, Const) else mapping.get(term)
            if image is None:
                return False
            if isinstance(image, Const):
                if image.value is None:
                    return False
            elif image not in dst_nonnull:
                return False
        if require_iso:
            if len(src.builtins) != len(dst.builtins):
                return False
            images = {
                Builtin(
                    b.skeleton,
                    tuple(
                        t if isinstance(t, Const) else mapping.get(t) for t in b.terms
                    ),
                )
                for b in src.builtins
            }
            if images != dst_builtins:
                return False
            # Constants are trivially non-null (a NULL constant is caught
            # as unsatisfiable upstream); only *variable* obligations say
            # anything about the row set, so only they must coincide.
            mapped_nonnull = set()
            for term in src_nonnull:
                image = term if isinstance(term, Const) else mapping.get(term)
                if image is None:
                    return False
                if not isinstance(image, Const):
                    mapped_nonnull.add(image)
            dst_var_nonnull = {
                term for term in dst_nonnull if not isinstance(term, Const)
            }
            if mapped_nonnull != dst_var_nonnull:
                return False
        return True

    def search(position):
        if position == len(src_atoms):
            return check_obligations()
        atom = src_atoms[position]
        for candidate in dst_by_relation.get(atom.relation, ()):
            if require_iso:
                if id(candidate) in used:
                    continue
                if candidate.existential != atom.existential:
                    continue
            nodes[0] += 1
            if nodes[0] > budget.max_hom_nodes:
                raise _Budget()
            added = []
            consistent = True
            for src_term, dst_term in zip(atom.terms, candidate.terms):
                step = _bind(mapping, inverse, src_term, dst_term)
                if step is None:
                    consistent = False
                    break
                added.extend(step)
            if consistent:
                if require_iso:
                    used.add(id(candidate))
                if search(position + 1):
                    return True
                if require_iso:
                    used.discard(id(candidate))
            _unbind(mapping, inverse, added)
        return False

    try:
        found = search(0)
    except _Budget:
        return HOM_BUDGET, None
    if found:
        return HOM_FOUND, dict(mapping)
    return HOM_NONE, None


def is_isomorphic(left, right, budget):
    """Three-valued bag-isomorphism test between two chased tableaux."""
    status, _ = find_homomorphism(left, right, budget, require_iso=True)
    return status


__all__ = [
    "HOM_BUDGET",
    "HOM_FOUND",
    "HOM_NONE",
    "effective_nonnull",
    "find_homomorphism",
    "is_isomorphic",
]
