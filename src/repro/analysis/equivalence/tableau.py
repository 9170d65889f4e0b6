"""Canonicalization of QGM regions into tableaux (conjunctive queries).

A *tableau* is the classical representation used by chase-based
containment tests: a set of atoms over base tables whose arguments are
variables and constants, a conjunction of predicates, and a head (the
output row). ``canonicalize_box`` flattens a SELECT box — recursively
inlining quantifiers that range over other SELECT/BASE boxes — into one
tableau, and a top-level UNION of such blocks into a list of tableaux
(a union of conjunctive queries).

Three fragments beyond plain conjunctive blocks canonicalize too:

* **comparisons** — ``<,<=,>,>=,<>`` conjuncts (and the desugared forms
  of BETWEEN and IN) become structured
  :class:`~repro.qgm.facts.domains.Cmp` facts in
  ``Tableau.comparisons`` instead of opaque builtins, so containment can
  prove predicate *implication* and the chase can detect contradictory
  ranges (``unsatisfiable=True`` — a provably empty block);
* **GROUPBY** — an aggregation box becomes a *derived atom* over a
  per-tableau relation symbol whose meaning is an
  :class:`AggregateSpec`: the grouping core (a sub-tableau whose head is
  the group keys followed by the aggregate arguments) plus the aggregate
  output skeletons. The checker aligns specs across the two sides and
  compares the chased cores (see ``checker._align_derived``);
* **OUTERJOIN** — a LEFT join whose consumer null-rejects a column
  computed strictly from the non-preserved side is inlined as a plain
  inner join; otherwise the join expands into two disjuncts: the inner
  join, and the NULL-padded anti part guarded by an uninterpreted
  ``NOMATCH`` builtin that fingerprints the right side and ON condition.

Anything else outside the fragment (INTERSECT/EXCEPT, magic boxes unless
``allow_special`` is set, scalar or anti quantifiers, parameters,
correlation into an uncanonicalized scope, LIMIT) raises
:class:`CannotCanonicalize` carrying a stable
:class:`~repro.analysis.equivalence.reasons.Reason` code; callers
translate that into the ``UNKNOWN`` verdict. Refusing to canonicalize is
always safe — the checker never guesses.

Multiplicity bookkeeping
------------------------

SQL is a bag language, so each tableau tracks whether its multiplicities
are *exactly* those of the canonical conjunctive query:

* a ``foreach`` atom contributes one result row per matching base row;
* an ``existential`` atom (from an E quantifier) only filters;
* inlining a DISTINCT (ENFORCE) or PERMIT child whose duplicate-freeness
  is not provable loses exactness (``bag_exact=False``) but keeps the
  set-level reading, which is still enough for set equivalence of
  duplicate-free queries.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis.equivalence.reasons import Reason
from repro.qgm import expr as qe
from repro.qgm.facts import domains
from repro.qgm.facts.keyflow import is_duplicate_free
from repro.qgm.facts.nullflow import null_rejecting_refs, strict_refs
from repro.qgm.model import BoxKind, DistinctMode, QuantifierType


class CannotCanonicalize(Exception):
    """The region uses a feature outside the supported fragment.

    ``code`` is a stable ``fragment:*`` reason code (see
    :class:`~repro.analysis.equivalence.reasons.Reason`).
    """

    def __init__(self, reason, code=Reason.FRAGMENT_OTHER):
        super().__init__(reason)
        self.reason = reason
        self.code = code


class Term:
    """Base class for tableau terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    """A labelled null. Identity is the numeric id."""

    vid: int

    def __repr__(self):
        return "X%d" % self.vid


@dataclass(frozen=True)
class Const(Term):
    """A concrete value (``None`` is SQL NULL)."""

    value: object

    def __repr__(self):
        return "c(%r)" % (self.value,)


@dataclass(frozen=True)
class _RightMark:
    """Inert marker for a right-side column inside an outer-join NOMATCH
    guard; compares only to itself, so guards only match structurally
    identical expansions."""

    column: str


@dataclass(frozen=True)
class Atom:
    """``relation(terms)``; ``existential`` atoms filter but do not
    multiply (they come from E quantifiers or from chase steps)."""

    relation: str
    terms: Tuple[Term, ...]
    existential: bool = False

    def __repr__(self):
        flag = "?" if self.existential else ""
        return "%s%s(%s)" % (
            flag, self.relation, ", ".join(repr(t) for t in self.terms)
        )


@dataclass(frozen=True)
class Builtin:
    """An uninterpreted predicate: a serialized expression skeleton whose
    term positions are placeholders ``§0 .. §n`` into ``terms``."""

    skeleton: str
    terms: Tuple[Term, ...]

    def __repr__(self):
        return "[%s | %s]" % (self.skeleton, ", ".join(repr(t) for t in self.terms))


@dataclass
class AggregateSpec:
    """The meaning of one derived (GROUPBY) relation symbol.

    ``core`` is the grouping core: a tableau whose head lists the group
    key terms followed by every aggregate argument term. ``outputs``
    describes the derived relation's columns positionally:

    * ``("key", i)`` — the i-th group key;
    * ``("agg", func, distinct, skeleton, positions)`` — an aggregate
      whose argument skeleton (``"*"`` for COUNT(*)) plugs the core head
      terms at ``positions``.
    """

    core: "Tableau"
    group_arity: int
    outputs: Tuple[Tuple, ...]

    def __repr__(self):
        return "AggregateSpec(keys=%d, outputs=%r, core=%s)" % (
            self.group_arity, self.outputs, _tableau_fingerprint(self.core),
        )


@dataclass
class Tableau:
    """One conjunctive block.

    ``comparisons`` holds the interpreted order/membership facts (sides
    are :class:`Var` or :class:`~repro.qgm.facts.domains.Val`
    after ``finish``); ``nonnull`` lists terms the block's own
    predicates force to be non-NULL (SQL comparisons never hold on
    NULL). ``schemas`` maps each atom relation to its
    :class:`~repro.catalog.schema.TableSchema`; ``derived`` maps
    aggregate relation symbols to their :class:`AggregateSpec`.
    """

    atoms: Tuple[Atom, ...]
    builtins: Tuple[Builtin, ...]
    head: Tuple[Term, ...]
    comparisons: Tuple[domains.Cmp, ...] = ()
    nonnull: FrozenSet[Term] = frozenset()
    schemas: Dict[str, object] = field(default_factory=dict)
    derived: Dict[str, AggregateSpec] = field(default_factory=dict)
    bag_exact: bool = True
    next_var: int = 0
    chase_complete: bool = True
    unsatisfiable: bool = False

    def has_builtins(self):
        return bool(self.builtins)


@dataclass
class CanonicalQuery:
    """A union of conjunctive blocks plus top-level duplicate bookkeeping."""

    disjuncts: List[Tableau]
    duplicate_free: bool
    bag_exact: bool
    arity: int


def _domain_side(term):
    """Tableau term -> comparison-domain side (constants become Val)."""
    if isinstance(term, Const):
        return domains.Val(term.value)
    return term


def _resolve_cmps(comparisons, find):
    """Resolve comparison sides through a unifier and normalize.

    Returns ``(kept, unsat)`` like
    :func:`~repro.qgm.facts.domains.normalize_cmps`.
    """
    resolved = []
    for cmp in comparisons:
        left = _domain_side(find(cmp.left))
        if cmp.op == "in":
            resolved.append(domains.Cmp("in", left, cmp.right))
        else:
            resolved.append(
                domains.Cmp(cmp.op, left, _domain_side(find(cmp.right)))
            )
    return domains.normalize_cmps(resolved)


def _tableau_fingerprint(tableau):
    """Deterministic structural rendering (used for NOMATCH guards and
    aggregate-spec reprs; variable numbering is allocation-ordered, so
    structurally identical regions render identically)."""
    return "atoms=%r builtins=%r cmps=%r head=%r nonnull=%s derived=%s" % (
        tableau.atoms,
        tableau.builtins,
        tableau.comparisons,
        tableau.head,
        sorted(map(repr, tableau.nonnull)),
        sorted((name, repr(spec)) for name, spec in tableau.derived.items()),
    )


class _Unsat(Exception):
    """Internal: two distinct constants were equated."""


class _Unifier:
    """Union-find over terms; constants win as representatives."""

    def __init__(self):
        self._parent = {}

    def find(self, term):
        root = term
        while root in self._parent:
            root = self._parent[root]
        while term in self._parent:
            self._parent[term], term = root, self._parent[term]
        return root

    def union(self, left, right):
        left, right = self.find(left), self.find(right)
        if left == right:
            return False
        if isinstance(left, Const) and isinstance(right, Const):
            # Two distinct constants: the block is unsatisfiable.
            raise _Unsat()
        if isinstance(right, Const):
            left, right = right, left
        # left is the representative (a Const when one side is).
        self._parent[right] = left
        return True

    def resolve(self, terms):
        return tuple(self.find(term) for term in terms)


class _BlockState:
    """Mutable scratch state while canonicalizing one conjunctive block."""

    def __init__(self, var_start=0, allow_special=False, oj_modes=None):
        self.atoms = []           # [(relation, [terms], existential)]
        self.builtins = []        # [(skeleton, [terms])]
        self.comparisons = []     # [domains.Cmp with Term sides]
        self.nonnull = set()
        self.schemas = {}
        self.derived = {}         # symbol -> AggregateSpec
        self.unifier = _Unifier()
        self.bag_exact = True
        self.unsat = False
        #: Canonicalize magic/supplementary regions too (scoped firing
        #: validation treats the region as a standalone query).
        self.allow_special = allow_special
        #: id(quantifier) -> "inner"/"anti" for outer joins the caller
        #: expands into disjuncts (see ``canonicalize_box``).
        self.oj_modes = oj_modes or {}
        self._next_var = var_start
        # (id(quantifier) -> {column lower -> Term}); quantifier objects are
        # kept alive in _quantifiers so ids stay unique for the call.
        self.env = {}
        self._quantifiers = []

    def fresh_var(self):
        var = Var(self._next_var)
        self._next_var += 1
        return var

    def fresh_derived_symbol(self):
        return "~agg?%d" % len(self.derived)

    def bind(self, quantifier, column_terms):
        self._quantifiers.append(quantifier)
        self.env[id(quantifier)] = column_terms

    def term_for(self, ref):
        columns = self.env.get(id(ref.quantifier))
        if columns is None:
            raise CannotCanonicalize(
                "correlated reference %s escapes the canonicalized region" % ref,
                code=Reason.FRAGMENT_CORRELATION,
            )
        term = columns.get(ref.column.lower())
        if term is None:
            raise CannotCanonicalize(
                "reference %s to a column outside the canonicalized region" % ref,
                code=Reason.FRAGMENT_CORRELATION,
            )
        return term

    def finish(self, head_terms):
        resolve = self.unifier.resolve
        atoms = tuple(
            Atom(relation, resolve(terms), existential)
            for relation, terms, existential in self.atoms
        )
        builtins = tuple(
            Builtin(skeleton, resolve(terms)) for skeleton, terms in self.builtins
        )
        nonnull = frozenset(self.unifier.find(t) for t in self.nonnull)
        comparisons, cmp_unsat = _resolve_cmps(self.comparisons, self.unifier.find)
        unsat = self.unsat or cmp_unsat
        if not unsat and comparisons:
            unsat = domains.system_of(comparisons).unsatisfiable()
        return Tableau(
            atoms=atoms,
            builtins=builtins,
            head=resolve(head_terms),
            comparisons=comparisons,
            nonnull=nonnull,
            schemas=dict(self.schemas),
            derived=dict(self.derived),
            bag_exact=self.bag_exact,
            next_var=self._next_var,
            unsatisfiable=unsat,
        )


# ---------------------------------------------------------------------------
# Expression serialization
# ---------------------------------------------------------------------------


def _serialize(expr, state, terms):
    """Render ``expr`` as a deterministic skeleton, collecting its terms.

    Column references and literals become placeholders so that the chase's
    equalities apply inside builtins too.
    """
    if isinstance(expr, qe.QParam):
        raise CannotCanonicalize(
            "prepared-statement parameter in predicate",
            code=Reason.FRAGMENT_PARAMETER,
        )
    if isinstance(expr, qe.QAggregate):
        raise CannotCanonicalize(
            "aggregate inside canonicalized expression",
            code=Reason.FRAGMENT_GROUPBY,
        )
    if isinstance(expr, qe.QColRef):
        terms.append(state.term_for(expr))
        return "§%d" % (len(terms) - 1)
    if isinstance(expr, qe.QLiteral):
        terms.append(Const(expr.value))
        return "§%d" % (len(terms) - 1)
    if isinstance(expr, qe.QUnary):
        return "%s(%s)" % (expr.op, _serialize(expr.operand, state, terms))
    if isinstance(expr, qe.QBinary):
        return "(%s %s %s)" % (
            _serialize(expr.left, state, terms),
            expr.op,
            _serialize(expr.right, state, terms),
        )
    if isinstance(expr, qe.QFunc):
        return "%s(%s)" % (
            expr.name,
            ", ".join(_serialize(arg, state, terms) for arg in expr.args),
        )
    if isinstance(expr, qe.QIsNull):
        return "(%s IS %sNULL)" % (
            _serialize(expr.operand, state, terms),
            "NOT " if expr.negated else "",
        )
    if isinstance(expr, qe.QLike):
        return "(%s %sLIKE %s)" % (
            _serialize(expr.operand, state, terms),
            "NOT " if expr.negated else "",
            _serialize(expr.pattern, state, terms),
        )
    if isinstance(expr, qe.QCase):
        parts = ["CASE"]
        for cond, value in expr.branches:
            parts.append(
                "WHEN %s THEN %s"
                % (_serialize(cond, state, terms), _serialize(value, state, terms))
            )
        if expr.default is not None:
            parts.append("ELSE %s" % _serialize(expr.default, state, terms))
        parts.append("END")
        return " ".join(parts)
    raise CannotCanonicalize(
        "unsupported expression node %r" % type(expr).__name__,
        code=Reason.FRAGMENT_EXPRESSION,
    )


def _term_of_simple(expr, state):
    """Return the term for a bare column reference or literal, else None."""
    if isinstance(expr, qe.QParam):
        raise CannotCanonicalize(
            "prepared-statement parameter in predicate",
            code=Reason.FRAGMENT_PARAMETER,
        )
    if isinstance(expr, qe.QColRef):
        return state.term_for(expr)
    if isinstance(expr, qe.QLiteral):
        return Const(expr.value)
    return None


_INTERVAL_OPS = ("<", "<=", ">", ">=", "<>", "!=")


def _absorb_predicate(predicate, state):
    for conjunct in qe.conjuncts(predicate):
        if isinstance(conjunct, qe.QBinary) and conjunct.op == "=":
            left = _term_of_simple(conjunct.left, state)
            right = _term_of_simple(conjunct.right, state)
            if left is not None and right is not None:
                if (isinstance(left, Const) and left.value is None) or (
                    isinstance(right, Const) and right.value is None
                ):
                    # ``x = NULL`` never holds: the block is empty.
                    state.unsat = True
                    continue
                try:
                    state.unifier.union(left, right)
                except _Unsat:
                    state.unsat = True
                state.nonnull.add(left)
                state.nonnull.add(right)
                continue
        if isinstance(conjunct, qe.QBinary) and conjunct.op in _INTERVAL_OPS:
            left = _term_of_simple(conjunct.left, state)
            right = _term_of_simple(conjunct.right, state)
            if left is not None and right is not None:
                # Interpreted comparison: a structured fact, not a builtin.
                # Under 3VL a true comparison grounds both operands.
                state.comparisons.extend(
                    domains.comparison_cmps(conjunct.op, left, right)
                )
                state.nonnull.add(left)
                state.nonnull.add(right)
                continue
        if isinstance(conjunct, qe.QIsNull):
            term = _term_of_simple(conjunct.operand, state)
            if term is not None:
                if isinstance(term, Const):
                    is_null = term.value is None
                    if is_null == conjunct.negated:
                        state.unsat = True
                    continue
                if conjunct.negated:
                    state.nonnull.add(term)
                    continue
        member = domains.membership(conjunct)
        if member is not None:
            operand, values = member
            term = _term_of_simple(operand, state)
            if term is not None:
                if isinstance(term, Const):
                    stripped = tuple(v for v in values if v is not None)
                    if term.value is None or term.value not in stripped:
                        state.unsat = True
                    continue
                state.comparisons.append(domains.Cmp("in", term, values))
                state.nonnull.add(term)
                continue
        terms = []
        skeleton = _serialize(conjunct, state, terms)
        state.builtins.append((skeleton, terms))


# ---------------------------------------------------------------------------
# Box flattening
# ---------------------------------------------------------------------------


def _check_plain(box, allow_special=False):
    if allow_special:
        return
    if box.is_special or box.linked_magic:
        raise CannotCanonicalize(
            "box %r belongs to a magic region" % box.name,
            code=Reason.FRAGMENT_MAGIC,
        )


def _inline_base(quantifier, box, state, existential):
    schema = box.schema
    if schema is None:
        raise CannotCanonicalize(
            "base box %r has no schema" % box.name, code=Reason.FRAGMENT_SCHEMA
        )
    relation = (box.table_name or schema.name).lower()
    terms = [state.fresh_var() for _ in schema.columns]
    state.atoms.append((relation, terms, existential))
    state.schemas[relation] = schema
    state.bind(
        quantifier,
        {
            column.name.lower(): term
            for column, term in zip(schema.columns, terms)
        },
    )


def _inline_select(quantifier, box, state, existential, skip_predicates):
    """Flatten a SELECT child referenced by ``quantifier`` into ``state``."""
    _check_plain(box, state.allow_special)
    if box.group_keys:
        raise CannotCanonicalize(
            "GROUP BY box %r" % box.name, code=Reason.FRAGMENT_GROUPBY
        )
    if box.distinct in (DistinctMode.ENFORCE, DistinctMode.PERMIT):
        # Inlining counts derivations: exact multiplicities survive only
        # when the child is provably duplicate-free without enforcement.
        if not is_duplicate_free(box, ignore_enforce=True):
            state.bag_exact = False
    _inline_body(box, state, existential, skip_predicates)
    columns = {}
    for column in box.columns:
        columns[column.name.lower()] = _output_term(column, state)
    state.bind(quantifier, columns)


def _output_term(column, state):
    if column.expr is None:
        raise CannotCanonicalize(
            "output column %r has no defining expression" % column.name,
            code=Reason.FRAGMENT_EXPRESSION,
        )
    term = _term_of_simple(column.expr, state)
    if term is not None:
        if isinstance(term, Const) and term.value is None:
            return term
        return term
    # A computed output column: introduce a fresh variable defined by an
    # assignment builtin. The tableau is no longer builtin-free, which
    # (correctly) disables counterexample freezing.
    terms = [state.fresh_var()]
    skeleton = "§0 := %s" % _serialize(column.expr, state, terms)
    state.builtins.append((skeleton, terms))
    return terms[0]


# -- GROUPBY: derived atoms over aggregate specs ------------------------------


def _aggregate_spec(box, allow_special):
    """Build the :class:`AggregateSpec` of one GROUPBY box."""
    _check_plain(box, allow_special)
    foreach = box.foreach_quantifiers()
    if len(foreach) != 1 or len(box.quantifiers) != 1:
        raise CannotCanonicalize(
            "GROUPBY box %r does not range over exactly one foreach input"
            % box.name,
            code=Reason.FRAGMENT_GROUPBY,
        )
    if box.predicates:
        raise CannotCanonicalize(
            "GROUPBY box %r carries predicates" % box.name,
            code=Reason.FRAGMENT_GROUPBY,
        )
    state = _BlockState(allow_special=allow_special)
    _inline_quantifier(foreach[0], state, existential=False)
    key_terms = []
    for key in box.group_keys:
        term = _term_of_simple(key, state)
        if term is None:
            raise CannotCanonicalize(
                "computed group key %s in box %r" % (key, box.name),
                code=Reason.FRAGMENT_GROUPBY,
            )
        key_terms.append(term)
    outputs = []
    agg_terms = []
    for column in box.columns:
        expr = column.expr
        if expr is None:
            raise CannotCanonicalize(
                "output column %r of GROUPBY box %r has no expression"
                % (column.name, box.name),
                code=Reason.FRAGMENT_GROUPBY,
            )
        if isinstance(expr, qe.QAggregate):
            if expr.arg is None:
                outputs.append(("agg", expr.func.upper(), expr.distinct, "*", ()))
                continue
            terms = []
            skeleton = _serialize(expr.arg, state, terms)
            base = len(key_terms) + len(agg_terms)
            positions = tuple(range(base, base + len(terms)))
            outputs.append(
                ("agg", expr.func.upper(), expr.distinct, skeleton, positions)
            )
            agg_terms.extend(terms)
            continue
        matched = None
        for index, key in enumerate(box.group_keys):
            if qe.expr_equal(expr, key):
                matched = index
                break
        if matched is None:
            raise CannotCanonicalize(
                "output column %r of GROUPBY box %r is neither a group key "
                "nor an aggregate" % (column.name, box.name),
                code=Reason.FRAGMENT_GROUPBY,
            )
        outputs.append(("key", matched))
    core = state.finish(key_terms + agg_terms)
    return AggregateSpec(
        core=core, group_arity=len(key_terms), outputs=tuple(outputs)
    )


def _inline_groupby(quantifier, box, state, existential):
    """Represent a GROUPBY child as a derived atom over its spec."""
    spec = _aggregate_spec(box, state.allow_special)
    symbol = state.fresh_derived_symbol()
    terms = [state.fresh_var() for _ in box.columns]
    state.atoms.append((symbol, terms, existential))
    state.derived[symbol] = spec
    if box.distinct in (DistinctMode.ENFORCE, DistinctMode.PERMIT):
        if not is_duplicate_free(box, ignore_enforce=True):
            state.bag_exact = False
    state.bind(
        quantifier,
        {
            column.name.lower(): term
            for column, term in zip(box.columns, terms)
        },
    )


# -- OUTERJOIN: inner conversion and two-disjunct expansion -------------------


def _outerjoin_sides(box):
    """(left, right) quantifiers of a canonical LEFT join box."""
    if (
        len(box.quantifiers) != 2
        or any(q.qtype != QuantifierType.FOREACH for q in box.quantifiers)
        or box.properties.get("preserved", "left") != "left"
    ):
        raise CannotCanonicalize(
            "OUTERJOIN box %r is not a canonical two-input LEFT join"
            % box.name,
            code=Reason.FRAGMENT_OUTERJOIN,
        )
    return box.quantifiers[0], box.quantifiers[1]


def _inner_convertible(parent_box, quantifier, skip_predicates=None):
    """True when ``parent_box``'s surviving predicates null-reject an
    output column of the OUTERJOIN child that is strict in the
    non-preserved side — NULL-padded rows cannot survive, so the join is
    semantically inner (the classical outer-to-inner simplification, fed
    by the nullflow lattice's strictness rules)."""
    box = quantifier.input_box
    try:
        _, right = _outerjoin_sides(box)
    except CannotCanonicalize:
        return False
    predicates = [
        p
        for p in parent_box.predicates
        if not (skip_predicates and id(p) in skip_predicates)
    ]
    rejected = null_rejecting_refs(predicates)
    for column in box.columns:
        if (id(quantifier), column.name.lower()) not in rejected:
            continue
        if column.expr is None:
            continue
        if any(qid == id(right) for qid, _ in strict_refs(column.expr)):
            return True
    return False


def _inline_outerjoin(quantifier, box, state, existential, mode):
    """Inline an OUTERJOIN box in ``mode`` ("inner" or "anti").

    * ``inner`` — both children plus the ON condition: the padded rows
      are known (or assumed, in the matched disjunct) to be absent.
    * ``anti`` — the left child only; right-side output columns become
      NULL constants, and a ``NOMATCH`` guard builtin (fingerprinting
      the right side and the ON condition over the left row) stands for
      "no right row matched". The guard is uninterpreted, so two anti
      disjuncts only ever map onto each other when they expanded
      structurally identical joins — which is exactly the sound case.
    """
    left_q, right_q = _outerjoin_sides(box)
    _check_plain(box, state.allow_special)
    _inline_quantifier(left_q, state, existential)
    if mode == "inner":
        _inline_quantifier(right_q, state, existential)
        for predicate in box.predicates:
            _absorb_predicate(predicate, state)
    else:
        fingerprint = _region_fingerprint(right_q.input_box, state)
        marker_env = {
            name.lower(): Const(_RightMark(name.lower()))
            for name in right_q.output_column_names()
        }
        state.bind(right_q, marker_env)
        terms = []
        condition = " AND ".join(
            _serialize(conjunct, state, terms)
            for predicate in box.predicates
            for conjunct in qe.conjuncts(predicate)
        )
        state.builtins.append(
            ("NOMATCH{%s}[%s]" % (fingerprint, condition), terms)
        )
        state.bind(
            right_q,
            {name.lower(): Const(None) for name in right_q.output_column_names()},
        )
    if box.distinct in (DistinctMode.ENFORCE, DistinctMode.PERMIT):
        if not is_duplicate_free(box, ignore_enforce=True):
            state.bag_exact = False
    if quantifier is not None:
        columns = {}
        for column in box.columns:
            columns[column.name.lower()] = _output_term(column, state)
        state.bind(quantifier, columns)


def _region_fingerprint(box, state):
    """Deterministic fingerprint of a standalone region (for NOMATCH)."""
    try:
        query = canonicalize_box(box, allow_special=state.allow_special)
    except CannotCanonicalize as exc:
        raise CannotCanonicalize(
            "LEFT JOIN right side %r cannot be fingerprinted: %s"
            % (box.name, exc.reason),
            code=Reason.FRAGMENT_OUTERJOIN,
        )
    return "∪".join(_tableau_fingerprint(t) for t in query.disjuncts)


def _expandable_outerjoins(box, skip_predicates=None):
    """FOREACH outer-join children that need two-disjunct expansion."""
    out = []
    for quantifier in box.quantifiers:
        if (
            quantifier.qtype == QuantifierType.FOREACH
            and quantifier.input_box.kind == BoxKind.OUTERJOIN
            and not _inner_convertible(box, quantifier, skip_predicates)
        ):
            out.append(quantifier)
    return out


def _inline_body(box, state, existential, skip_predicates=None):
    """Absorb ``box``'s quantifiers and predicates into ``state``."""
    for quantifier in box.quantifiers:
        _inline_quantifier(
            quantifier, state, existential, skip_predicates, parent=box
        )
    for predicate in box.predicates:
        if skip_predicates and id(predicate) in skip_predicates:
            continue
        _absorb_predicate(predicate, state)


def _inline_quantifier(
    quantifier, state, existential, skip_predicates=None, parent=None
):
    """Dispatch one quantifier's child box into ``state``."""
    if quantifier.is_magic and not state.allow_special:
        raise CannotCanonicalize(
            "magic quantifier %r" % quantifier.name, code=Reason.FRAGMENT_MAGIC
        )
    if quantifier.qtype == QuantifierType.FOREACH:
        child_existential = existential
    elif quantifier.qtype == QuantifierType.EXISTENTIAL:
        child_existential = True
    else:
        raise CannotCanonicalize(
            "%s quantifier %r" % (quantifier.qtype, quantifier.name),
            code=Reason.FRAGMENT_SUBQUERY,
        )
    child = quantifier.input_box
    if child.kind == BoxKind.BASE:
        _inline_base(quantifier, child, state, child_existential)
    elif child.kind == BoxKind.SELECT:
        _inline_select(
            quantifier, child, state, child_existential, skip_predicates
        )
    elif child.kind == BoxKind.GROUPBY:
        _inline_groupby(quantifier, child, state, child_existential)
    elif child.kind == BoxKind.OUTERJOIN:
        mode = state.oj_modes.get(id(quantifier))
        if mode is None:
            if parent is not None and _inner_convertible(
                parent, quantifier, skip_predicates
            ):
                mode = "inner"
            else:
                raise CannotCanonicalize(
                    "LEFT JOIN %r is not null-rejected by its consumer"
                    % child.name,
                    code=Reason.FRAGMENT_OUTERJOIN,
                )
        _inline_outerjoin(quantifier, child, state, child_existential, mode)
    else:
        raise CannotCanonicalize(
            "%s box %r under a SELECT" % (child.kind, child.name),
            code=Reason.FRAGMENT_SETOP,
        )
    if quantifier.selector_predicates:
        raise CannotCanonicalize(
            "decorrelated selector predicates on %r" % quantifier.name,
            code=Reason.FRAGMENT_SUBQUERY,
        )


def _tableau_for_select(
    box, skip_predicates=None, head_extra=None, allow_special=False, oj_modes=None
):
    """Canonicalize one SELECT box into a tableau.

    ``head_extra`` is a list of column references appended to the head —
    used by the implied-predicate probe to observe whether the chase
    equates two columns.
    """
    _check_plain(box, allow_special)
    if box.kind != BoxKind.SELECT:
        raise CannotCanonicalize(
            "box %r is %s, not SELECT" % (box.name, box.kind),
            code=Reason.FRAGMENT_OTHER,
        )
    if box.group_keys:
        raise CannotCanonicalize(
            "GROUP BY box %r" % box.name, code=Reason.FRAGMENT_GROUPBY
        )
    state = _BlockState(allow_special=allow_special, oj_modes=oj_modes)
    _inline_body(box, state, existential=False, skip_predicates=skip_predicates)
    head = [_output_term(column, state) for column in box.columns]
    if head_extra:
        head.extend(state.term_for(ref) for ref in head_extra)
    if box.distinct in (DistinctMode.ENFORCE, DistinctMode.PERMIT):
        if not is_duplicate_free(box, ignore_enforce=True):
            state.bag_exact = False
    return state.finish(head)


def _tableau_for_base(box):
    state = _BlockState()
    schema = box.schema
    if schema is None:
        raise CannotCanonicalize(
            "base box %r has no schema" % box.name, code=Reason.FRAGMENT_SCHEMA
        )
    relation = (box.table_name or schema.name).lower()
    terms = [state.fresh_var() for _ in schema.columns]
    state.atoms.append((relation, terms, False))
    state.schemas[relation] = schema
    return state.finish(terms)


def _tableau_for_groupby(box, allow_special):
    """A top-level GROUPBY box: a single derived atom, all columns out."""
    state = _BlockState(allow_special=allow_special)
    spec = _aggregate_spec(box, allow_special)
    symbol = state.fresh_derived_symbol()
    terms = [state.fresh_var() for _ in box.columns]
    state.atoms.append((symbol, terms, False))
    state.derived[symbol] = spec
    return state.finish(terms)


def _tableau_for_outerjoin(box, mode, allow_special):
    state = _BlockState(allow_special=allow_special)
    _inline_outerjoin(None, box, state, existential=False, mode=mode)
    head = [_output_term(column, state) for column in box.columns]
    return state.finish(head)


def _select_disjuncts(box, allow_special, max_disjuncts):
    """One tableau per outer-join expansion choice (usually just one)."""
    expand = _expandable_outerjoins(box)
    if not expand:
        return [_tableau_for_select(box, allow_special=allow_special)]
    if 2 ** len(expand) > max_disjuncts:
        raise CannotCanonicalize(
            "%d outer joins expand past the disjunct budget" % len(expand),
            code=Reason.FRAGMENT_OUTERJOIN,
        )
    disjuncts = []
    for modes in itertools.product(("inner", "anti"), repeat=len(expand)):
        oj_modes = {
            id(quantifier): mode for quantifier, mode in zip(expand, modes)
        }
        disjuncts.append(
            _tableau_for_select(
                box, allow_special=allow_special, oj_modes=oj_modes
            )
        )
    return disjuncts


def canonicalize_box(box, max_disjuncts=8, allow_special=False):
    """Canonicalize ``box`` into a :class:`CanonicalQuery`.

    Accepts SELECT, BASE, GROUPBY and OUTERJOIN boxes, and UNION boxes
    whose inputs are such boxes (a union of conjunctive queries). Raises
    :class:`CannotCanonicalize` for everything else. ``allow_special``
    additionally admits magic/supplementary regions — sound only when
    the caller compares the region as a standalone query (scoped firing
    validation), never inside a whole-graph reading.
    """
    _check_plain(box, allow_special)
    if box.kind == BoxKind.SELECT:
        disjuncts = _select_disjuncts(box, allow_special, max_disjuncts)
    elif box.kind == BoxKind.BASE:
        disjuncts = [_tableau_for_base(box)]
    elif box.kind == BoxKind.GROUPBY:
        disjuncts = [_tableau_for_groupby(box, allow_special)]
    elif box.kind == BoxKind.OUTERJOIN:
        disjuncts = [
            _tableau_for_outerjoin(box, "inner", allow_special),
            _tableau_for_outerjoin(box, "anti", allow_special),
        ]
    elif box.kind == BoxKind.UNION:
        disjuncts = []
        for quantifier in box.quantifiers:
            if quantifier.qtype != QuantifierType.FOREACH:
                raise CannotCanonicalize(
                    "%s quantifier under UNION" % quantifier.qtype,
                    code=Reason.FRAGMENT_UNION,
                )
            child = quantifier.input_box
            if child.kind == BoxKind.SELECT:
                disjuncts.extend(
                    _select_disjuncts(child, allow_special, max_disjuncts)
                )
            elif child.kind == BoxKind.BASE:
                disjuncts.append(_tableau_for_base(child))
            elif child.kind == BoxKind.GROUPBY:
                disjuncts.append(_tableau_for_groupby(child, allow_special))
            else:
                raise CannotCanonicalize(
                    "%s box %r under UNION" % (child.kind, child.name),
                    code=Reason.FRAGMENT_UNION,
                )
        if len(disjuncts) > max_disjuncts:
            raise CannotCanonicalize(
                "union width %d exceeds the disjunct budget" % len(disjuncts),
                code=Reason.FRAGMENT_UNION,
            )
        arities = {len(tableau.head) for tableau in disjuncts}
        if len(arities) > 1:
            raise CannotCanonicalize(
                "union inputs disagree on arity", code=Reason.FRAGMENT_UNION
            )
    else:
        raise CannotCanonicalize(
            "cannot canonicalize %s box %r" % (box.kind, box.name),
            code=Reason.FRAGMENT_SETOP
            if box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT)
            else Reason.FRAGMENT_OTHER,
        )

    duplicate_free = box.distinct == DistinctMode.ENFORCE or is_duplicate_free(box)
    bag_exact = all(tableau.bag_exact for tableau in disjuncts)
    if box.kind == BoxKind.UNION:
        # UNION ALL sums multiplicities; with ENFORCE/PERMIT the exact bag
        # is only determined when duplicate-freeness needs no enforcement.
        if box.distinct in (DistinctMode.ENFORCE, DistinctMode.PERMIT):
            bag_exact = bag_exact and is_duplicate_free(box, ignore_enforce=True)
    arity = len(box.columns) if box.columns else (
        len(disjuncts[0].head) if disjuncts else 0
    )
    return CanonicalQuery(
        disjuncts=disjuncts,
        duplicate_free=duplicate_free,
        bag_exact=bag_exact,
        arity=arity,
    )


def canonicalize_graph(graph, max_disjuncts=8):
    """Canonicalize a whole query graph (its top box)."""
    if graph.top_box is None:
        raise CannotCanonicalize("graph has no top box")
    if graph.limit is not None:
        raise CannotCanonicalize(
            "LIMIT changes which rows survive", code=Reason.FRAGMENT_LIMIT
        )
    return canonicalize_box(graph.top_box, max_disjuncts=max_disjuncts)


def probe_implied_equality(box, predicate):
    """Canonicalize ``box`` *without* ``predicate``, exposing the two sides
    of the (simple) equality as extra head columns.

    Returns ``(tableau, left_index, right_index)`` — after chasing the
    tableau, the predicate is dependency-implied iff the two extra head
    terms are equal. Returns None when ``predicate`` is not a simple
    equality between column references.
    """
    sides = qe.equality_sides(predicate)
    if sides is None:
        return None
    tableau = _tableau_for_select(
        box, skip_predicates={id(predicate)}, head_extra=list(sides)
    )
    return tableau, len(tableau.head) - 2, len(tableau.head) - 1


__all__ = [
    "AggregateSpec",
    "Atom",
    "Builtin",
    "CannotCanonicalize",
    "CanonicalQuery",
    "Const",
    "Tableau",
    "Term",
    "Var",
    "canonicalize_box",
    "canonicalize_graph",
    "probe_implied_equality",
]
