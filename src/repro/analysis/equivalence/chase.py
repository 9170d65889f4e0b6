"""The chase: closing a tableau under the catalog's dependencies.

Equality-generating steps (from key FDs) unify the non-key columns of two
atoms that agree on a key; tuple-generating steps (from FK INDs) add the
parent atom a child atom promises. The result is a fixpoint — or, when
the deterministic budget runs out first, a partial chase marked
``chase_complete=False`` (still sound for proving containment *into* it,
never used to refute).

Two bag-semantics refinements ride along:

* **merge**: identical atoms over a table with a usable key denote the
  same stored row; merging them multiplies multiplicity by exactly one.
  Over keyless tables a merge is only set-sound, so it clears
  ``bag_exact``.
* **demote**: a ``foreach`` atom whose full key is anchored outside it
  (constants, head terms, or other foreach atoms) matches at most one
  row, so it contributes multiplicity 1-if-present — precisely the
  semantics of an existential atom. Demoting it lets the isomorphism
  test equate an FK join with its chase-implied existential parent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.equivalence.tableau import (
    Atom,
    Const,
    Tableau,
    Var,
    _resolve_cmps,
    _Unifier,
    _Unsat,
)
from repro.qgm.facts import domains


@dataclass
class ChaseBudget:
    """Deterministic resource caps; exceeding any yields UNKNOWN, never a
    wrong verdict."""

    max_atoms: int = 64
    max_steps: int = 400
    max_hom_nodes: int = 4000
    max_disjuncts: int = 8


def _merge_atoms(atoms, keyed_tables, state):
    """Deduplicate structurally identical atoms (post-resolution).

    Returns the merged list; updates ``state['bag_exact']`` when a merge
    over a keyless table makes multiplicities set-only.
    """
    merged = {}
    order = []
    for atom in atoms:
        key = (atom.relation, atom.terms)
        prior = merged.get(key)
        if prior is None:
            merged[key] = atom
            order.append(key)
            continue
        if not prior.existential and not atom.existential:
            # Two foreach copies of one row: merging multiplies by exactly
            # one only when a key guarantees row identity.
            if atom.relation not in keyed_tables:
                state["bag_exact"] = False
        if prior.existential and not atom.existential:
            merged[key] = atom
    return [merged[key] for key in order]


def _demote_anchored(atoms, head, schemas, fds):
    """Turn key-determined foreach atoms into existential atoms.

    A term is *determined* when it is a constant, a head term, or
    FD-implied from determined terms through some atom (the row a key
    pins is unique, so all its columns are pinned too). A foreach atom
    whose full key is determined matches at most one row for any output
    tuple, so it contributes multiplicity one-if-present — exactly an
    existential atom's semantics. The closure makes the result
    order-independent.
    """

    def fixed(term, determined):
        return isinstance(term, Const) or term in determined

    def closure(seeds):
        determined = set(seeds)
        grew = True
        while grew:
            grew = False
            for atom in atoms:
                for fd in fds.get(atom.relation, ()):
                    if all(fixed(atom.terms[o], determined) for o in fd.determinant):
                        for term in atom.terms:
                            if not fixed(term, determined):
                                determined.add(term)
                                grew = True
        return determined

    # Demote one atom at a time: each step seeds the closure with the head
    # and the terms of the *other* (still-foreach) atoms, so two atoms that
    # only anchor each other can never both be demoted — the second one's
    # key would no longer be determined. Closure may run through
    # existential atoms: a key-pinned existential witness is unique, so its
    # columns are pinned too.
    atoms = list(atoms)
    changed = True
    while changed:
        changed = False
        for index, atom in enumerate(atoms):
            if atom.existential or atom.relation not in fds:
                continue
            seeds = set(head)
            for other_index, other in enumerate(atoms):
                if other_index != index and not other.existential:
                    seeds.update(other.terms)
            determined = closure(seeds)
            if any(
                all(fixed(atom.terms[o], determined) for o in fd.determinant)
                for fd in fds.get(atom.relation, ())
            ):
                atoms[index] = Atom(atom.relation, atom.terms, existential=True)
                changed = True
    return atoms


def chase(tableau, deps, budget=None, repair=False):
    """Chase ``tableau`` with ``deps`` to (budgeted) fixpoint.

    With ``repair=True`` the nullable-FK inclusion dependencies join in;
    that mode builds counterexample databases, which must satisfy every
    declared constraint, not only the proving subset.
    """
    budget = budget or ChaseBudget()
    if tableau.unsatisfiable or deps is None or deps.is_empty():
        return tableau

    unifier = _Unifier()
    atoms = list(tableau.atoms)
    schemas = dict(tableau.schemas)
    next_var = tableau.next_var
    steps = 0
    complete = True
    state = {"bag_exact": tableau.bag_exact}
    keyed = deps.keyed_tables()

    def resolved(atom):
        return Atom(atom.relation, unifier.resolve(atom.terms), atom.existential)

    changed = True
    while changed:
        changed = False
        atoms = _merge_atoms([resolved(a) for a in atoms], keyed, state)

        # Equality-generating steps: atoms agreeing on a key are one row.
        try:
            for relation, table_fds in deps.fds.items():
                group = [a for a in atoms if a.relation == relation]
                for fd in table_fds:
                    buckets = {}
                    for atom in group:
                        key = tuple(
                            unifier.find(atom.terms[o]) for o in fd.determinant
                        )
                        buckets.setdefault(key, []).append(atom)
                    for bucket in buckets.values():
                        first = bucket[0]
                        for other in bucket[1:]:
                            for left, right in zip(first.terms, other.terms):
                                if unifier.union(left, right):
                                    changed = True
                                    steps += 1
        except _Unsat:
            return Tableau(
                atoms=(),
                builtins=tableau.builtins,
                head=tableau.head,
                comparisons=tableau.comparisons,
                nonnull=tableau.nonnull,
                schemas=schemas,
                derived=dict(tableau.derived),
                bag_exact=state["bag_exact"],
                next_var=next_var,
                chase_complete=True,
                unsatisfiable=True,
            )

        if steps > budget.max_steps:
            complete = False
            break

        # Tuple-generating steps: each child atom implies its FK parent.
        ind_map = dict(deps.inds)
        if repair:
            for child, extra in deps.repair_inds.items():
                ind_map.setdefault(child, [])
                ind_map[child] = ind_map[child] + extra
        additions = []
        atoms = [resolved(a) for a in atoms]
        present = {}
        for atom in atoms:
            present.setdefault(atom.relation, []).append(atom)
        for atom in list(atoms):
            for ind in ind_map.get(atom.relation, ()):
                child_terms = tuple(atom.terms[o] for o in ind.child_cols)
                satisfied = any(
                    tuple(parent.terms[o] for o in ind.parent_cols) == child_terms
                    for parent in present.get(ind.parent, ())
                )
                if satisfied:
                    continue
                parent_schema = deps.schemas.get(ind.parent)
                if parent_schema is None:
                    continue
                terms = []
                for ordinal in range(len(parent_schema.columns)):
                    if ordinal in ind.parent_cols:
                        terms.append(
                            child_terms[ind.parent_cols.index(ordinal)]
                        )
                    else:
                        terms.append(Var(next_var))
                        next_var += 1
                new_atom = Atom(ind.parent, tuple(terms), existential=True)
                additions.append(new_atom)
                present.setdefault(ind.parent, []).append(new_atom)
                schemas[ind.parent] = parent_schema
                steps += 1
                changed = True
                if len(atoms) + len(additions) > budget.max_atoms:
                    break
            if len(atoms) + len(additions) > budget.max_atoms or steps > budget.max_steps:
                break
        atoms.extend(additions)
        if len(atoms) > budget.max_atoms or steps > budget.max_steps:
            complete = False
            break

    atoms = _merge_atoms([resolved(a) for a in atoms], keyed, state)
    atoms = _demote_anchored(
        atoms, unifier.resolve(tableau.head), schemas, deps.fds
    )
    # Chase equalities may have merged comparison sides; re-normalize and
    # re-check for contradictions (e.g. an FD equating x with a constant
    # outside x's admitted range makes the block provably empty).
    comparisons, cmp_unsat = _resolve_cmps(tableau.comparisons, unifier.find)
    unsat = cmp_unsat or (
        bool(comparisons) and domains.system_of(comparisons).unsatisfiable()
    )
    return Tableau(
        atoms=tuple(atoms),
        builtins=tuple(
            type(b)(b.skeleton, unifier.resolve(b.terms)) for b in tableau.builtins
        ),
        head=unifier.resolve(tableau.head),
        comparisons=comparisons,
        nonnull=frozenset(unifier.find(t) for t in tableau.nonnull),
        schemas=schemas,
        derived=dict(tableau.derived),
        bag_exact=state["bag_exact"],
        next_var=next_var,
        chase_complete=complete and tableau.chase_complete,
        unsatisfiable=unsat,
    )


__all__ = ["ChaseBudget", "chase"]
