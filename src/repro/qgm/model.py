"""Core QGM objects: boxes, quantifiers and the query graph.

A :class:`Box` is a unit of evaluation (the paper's QGM box). A
:class:`Quantifier` is a table reference inside a box, ranging over another
box. The :class:`QueryGraph` owns the top box and bookkeeping shared across
the rewrite machinery (id allocation, the adorned-copy cache, base-box
sharing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import QgmError
from repro.qgm import expr as qe


class BoxKind:
    """Operation types of QGM boxes. New kinds may be registered by
    customizers (see :mod:`repro.magic.properties`)."""

    SELECT = "SELECT"
    GROUPBY = "GROUPBY"
    UNION = "UNION"
    INTERSECT = "INTERSECT"
    EXCEPT = "EXCEPT"
    #: Left outer join — the paper's example of a customizer-added complex
    #: NMQ operation. Quantifier 0 is the preserved (left) side; the box's
    #: predicates are the ON condition.
    OUTERJOIN = "OUTERJOIN"
    BASE = "BASE"


class DistinctMode:
    """Starburst's duplicate-handling property of a box.

    * ``ENFORCE`` — the box must eliminate duplicates from its output.
    * ``PRESERVE`` — the box must deliver exactly the duplicates implied by
      its operation (the default SQL bag semantics).
    * ``PERMIT`` — duplicates may be eliminated or kept freely; the
      consumer does not care. The distinct-pullup rule relaxes ENFORCE to
      PERMIT when duplicate-freeness is provable, which is what allows
      phase-3 merging of magic boxes.
    """

    ENFORCE = "ENFORCE"
    PRESERVE = "PRESERVE"
    PERMIT = "PERMIT"


class MagicRole:
    """Classification of boxes introduced by the EMST rule (§4.1)."""

    REGULAR = "REGULAR"
    MAGIC = "MAGIC"
    SUPPLEMENTARY = "SUPPLEMENTARY"
    CONDITION_MAGIC = "CONDITION_MAGIC"


class QuantifierType:
    """Quantifier flavours.

    * ``F`` — foreach (a plain FROM-clause reference, contributes columns).
    * ``E`` — existential (IN / EXISTS / = ANY subqueries; semi-join).
    * ``A`` — anti-existential (NOT IN / NOT EXISTS / op ALL; anti-join).
    * ``S`` — scalar subquery (at most one row; empty yields NULL).
    """

    FOREACH = "F"
    EXISTENTIAL = "E"
    ANTI = "A"
    SCALAR = "S"


@dataclass
class OutputColumn:
    """One output column of a box.

    ``expr`` is the defining expression for SELECT and GROUPBY boxes. BASE
    and set-operation boxes have positional columns with ``expr=None``.
    """

    name: str
    expr: Optional[qe.QExpr] = None


@dataclass(eq=False)
class Quantifier:
    """A table reference inside a box, ranging over ``input_box``."""

    name: str
    qtype: str
    input_box: "Box"
    parent_box: Optional["Box"] = None
    is_magic: bool = False
    null_aware: bool = False  # NOT IN semantics for ANTI quantifiers
    #: Set by EMST when a SCALAR subquery has been decorrelated: the
    #: subquery now holds one row *per binding* and the selector
    #: predicates pick the row for the current outer row (empty → NULL).
    decorrelated: bool = False
    #: Selector predicates of a decorrelated SCALAR quantifier (the lifted
    #: correlation equalities). Kept on the quantifier, not in the box's
    #: predicate list: their no-match semantics (bind NULLs, keep the row)
    #: differs from a filter's.
    selector_predicates: List[qe.QExpr] = field(default_factory=list)

    def ref(self, column):
        """Build a column reference to this quantifier."""
        return qe.QColRef(quantifier=self, column=column)

    def output_column_names(self):
        return self.input_box.column_names

    def __repr__(self):
        flags = "*" if self.is_magic else ""
        return "<Q %s%s:%s over %s>" % (self.name, flags, self.qtype, self.input_box.name)


@dataclass(eq=False)
class Box:
    """A QGM box."""

    kind: str
    name: str
    box_id: int = -1
    columns: List[OutputColumn] = field(default_factory=list)
    quantifiers: List[Quantifier] = field(default_factory=list)
    predicates: List[qe.QExpr] = field(default_factory=list)
    distinct: str = DistinctMode.PRESERVE
    # GROUPBY-only: the grouping keys, as expressions over the (single) input
    # quantifier. Output columns of a groupby box are either group keys or
    # QAggregate expressions.
    group_keys: List[qe.QExpr] = field(default_factory=list)
    # BASE-only
    table_name: Optional[str] = None
    schema: Optional[object] = None
    # EMST bookkeeping
    magic_role: str = MagicRole.REGULAR
    adornment: Optional[str] = None
    linked_magic: List["Box"] = field(default_factory=list)
    emst_done: bool = False
    # Free-form extension properties (used by custom operations)
    properties: Dict[str, object] = field(default_factory=dict)

    # -- structure helpers ---------------------------------------------------

    @property
    def column_names(self):
        return [column.name for column in self.columns]

    def column(self, name):
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        raise QgmError("box %r has no column %r" % (self.name, name))

    def column_ordinal(self, name):
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise QgmError("box %r has no column %r" % (self.name, name))

    def has_column(self, name):
        lowered = name.lower()
        return any(column.name.lower() == lowered for column in self.columns)

    def add_quantifier(self, quantifier):
        quantifier.parent_box = self
        self.quantifiers.append(quantifier)
        return quantifier

    def remove_quantifier(self, quantifier):
        self.quantifiers = [q for q in self.quantifiers if q is not quantifier]

    def quantifier(self, name):
        for quantifier in self.quantifiers:
            if quantifier.name == name:
                return quantifier
        raise QgmError("box %r has no quantifier %r" % (self.name, name))

    def foreach_quantifiers(self):
        return [q for q in self.quantifiers if q.qtype == QuantifierType.FOREACH]

    def subquery_quantifiers(self):
        return [q for q in self.quantifiers if q.qtype != QuantifierType.FOREACH]

    @property
    def is_magic_box(self):
        return self.magic_role in (MagicRole.MAGIC, MagicRole.CONDITION_MAGIC)

    @property
    def is_special(self):
        """True for boxes introduced by EMST (magic/supplementary/cond-magic)."""
        return self.magic_role != MagicRole.REGULAR

    # -- expression iteration -------------------------------------------------

    def all_expressions(self):
        """Yield every expression held by this box (columns, predicates,
        group keys, and quantifier selector predicates)."""
        for column in self.columns:
            if column.expr is not None:
                yield column.expr
        for predicate in self.predicates:
            yield predicate
        for key in self.group_keys:
            yield key
        for quantifier in self.quantifiers:
            for predicate in quantifier.selector_predicates:
                yield predicate

    def referenced_boxes(self):
        """Boxes referenced by this box's quantifiers (with duplicates)."""
        return [q.input_box for q in self.quantifiers]

    def local_quantifier_set(self):
        return set(self.quantifiers)

    def correlated_quantifiers(self):
        """Quantifiers referenced by this box's expressions that do NOT
        belong to this box — i.e. correlation (inter-box predicate edges)."""
        local = self.local_quantifier_set()
        out = []
        seen = set()
        for expression in self.all_expressions():
            for quantifier in qe.referenced_quantifiers(expression):
                if quantifier not in local and id(quantifier) not in seen:
                    seen.add(id(quantifier))
                    out.append(quantifier)
        return out

    def __repr__(self):
        adornment = "^%s" % self.adornment if self.adornment else ""
        return "<Box %d %s %s%s>" % (self.box_id, self.kind, self.name, adornment)


class QueryGraph:
    """A whole query: the top box plus shared bookkeeping.

    ``order_by``/``limit`` apply to the top box's output (presentation
    only; they do not participate in rewriting).
    """

    def __init__(self, catalog=None):
        self.catalog = catalog
        self.top_box = None
        self.order_by = []  # list of (ordinal, ascending)
        self.limit = None
        self._next_box_id = 0
        self._base_boxes = {}
        # (original box id, adornment) -> adorned copy, the paper's
        # "a copy with adornment alpha may have been made earlier"
        self.adorned_copies = {}
        # name counters for generated boxes/quantifiers
        self._name_counters = {}

    # -- identity and naming ---------------------------------------------------

    def register_box(self, box):
        if box.box_id == -1:
            box.box_id = self._next_box_id
            self._next_box_id += 1
        return box

    def new_box(self, kind, name, **kwargs):
        box = Box(kind=kind, name=name, **kwargs)
        return self.register_box(box)

    def fresh_name(self, prefix):
        count = self._name_counters.get(prefix, 0)
        self._name_counters[prefix] = count + 1
        if count == 0:
            return prefix
        return "%s_%d" % (prefix, count)

    # -- base boxes --------------------------------------------------------------

    def base_box(self, schema):
        """The shared BASE box for a stored table (one per table)."""
        key = schema.name.lower()
        box = self._base_boxes.get(key)
        if box is None:
            box = self.new_box(
                BoxKind.BASE,
                schema.name.upper(),
                columns=[OutputColumn(name=c.name) for c in schema.columns],
                table_name=schema.name,
                schema=schema,
            )
            self._base_boxes[key] = box
        return box

    # -- traversal ----------------------------------------------------------------

    def boxes(self):
        """All boxes reachable from the top box, depth-first pre-order.

        Safe on cyclic graphs (recursive queries).
        """
        seen = set()
        order = []

        def visit(box):
            if id(box) in seen:
                return
            seen.add(id(box))
            order.append(box)
            for quantifier in box.quantifiers:
                visit(quantifier.input_box)
            for magic in box.linked_magic:
                visit(magic)

        if self.top_box is not None:
            visit(self.top_box)
        return order

    def consumers(self):
        """Map box → list of quantifiers ranging over it (graph-wide)."""
        uses = {}
        for box in self.boxes():
            for quantifier in box.quantifiers:
                uses.setdefault(id(quantifier.input_box), []).append(quantifier)
        return uses

    def use_count(self, box):
        return len(self.consumers().get(id(box), []))

    def find_box(self, name):
        """Find a reachable box by name (exact match); None if absent."""
        for box in self.boxes():
            if box.name == name:
                return box
        return None

    def summary_counts(self):
        """(boxes, quantifiers, join-predicates) — used by the figure
        benchmarks to report graph complexity like the paper's Figure 1."""
        boxes = self.boxes()
        quantifier_count = sum(len(b.quantifiers) for b in boxes)
        predicate_count = sum(len(b.predicates) for b in boxes)
        return (len(boxes), quantifier_count, predicate_count)
