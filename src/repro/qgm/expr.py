"""Expressions inside QGM boxes.

QGM expressions differ from SQL AST expressions in one crucial way: column
references are *resolved* — a :class:`QColRef` points at a
:class:`~repro.qgm.model.Quantifier` object, not a name. A reference to a
quantifier that does not belong to the expression's own box is a
*correlation* (the paper's inter-box predicate edges).

Boolean predicates are stored as conjunct lists on boxes, so ``AND`` nodes
rarely appear; :func:`conjuncts` flattens them when they do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    # Imported for annotations only: model.py imports this module at
    # runtime, so the reverse import must stay type-checking-only.
    from repro.qgm.model import Quantifier


class QExpr:
    """Base class for QGM expressions."""

    def children(self) -> Tuple["QExpr", ...]:
        return ()


@dataclass
class QLiteral(QExpr):
    """A constant value (None is SQL NULL)."""

    value: object

    def __str__(self):
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'%s'" % self.value
        return str(self.value)


class _ParamMarker:
    """The placeholder value a :class:`QParam` carries before binding.

    Markers compare (and hash) by parameter index, so two parameters are
    structurally equal only when they are the *same* parameter — a rewrite
    that dedupes predicates must never conflate ``?1`` with ``?2``. The
    cardinality estimator's numeric guards reject markers, so parameters
    fall back to default selectivities, exactly like an unknown constant.
    """

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __eq__(self, other):
        return isinstance(other, _ParamMarker) and other.index == self.index

    def __hash__(self):
        return hash(("?", self.index))

    def __repr__(self):
        return "?%d" % (self.index + 1)

    __str__ = __repr__


class QParam(QLiteral):
    """A prepared-statement parameter (``?`` in SQL text).

    Subclassing :class:`QLiteral` is deliberate: every rewrite, adornment
    and analysis path that treats a literal as a bindable constant (no
    column references) treats a parameter identically — which is the whole
    point of caching rewritten plans per binding pattern. The carried
    ``value`` is a :class:`_ParamMarker`; at execution time the node
    reads slot ``index`` of the execution's parameter vector (or is
    replaced by a literal beforehand, see :mod:`repro.qgm.params`).
    """

    def __init__(self, index):
        super().__init__(value=_ParamMarker(index))
        self.index = index

    def __str__(self):
        return "?%d" % (self.index + 1)

    def __repr__(self):
        return "QParam(index=%d)" % self.index


@dataclass(eq=False)
class QColRef(QExpr):
    """A resolved reference to column ``column`` of ``quantifier``."""

    quantifier: "Quantifier"
    column: str

    def __str__(self):
        return "%s.%s" % (self.quantifier.name, self.column)


@dataclass
class QUnary(QExpr):
    """Unary ``-`` or ``NOT``."""

    op: str
    operand: QExpr

    def children(self):
        return (self.operand,)

    def __str__(self):
        return "%s(%s)" % (self.op, self.operand)


@dataclass
class QBinary(QExpr):
    """Binary operator (comparisons, arithmetic, AND/OR, ``||``)."""

    op: str
    left: QExpr
    right: QExpr

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        return "(%s %s %s)" % (self.left, self.op, self.right)


@dataclass
class QFunc(QExpr):
    """Scalar function call (non-aggregate)."""

    name: str
    args: List[QExpr] = field(default_factory=list)

    def children(self):
        return tuple(self.args)

    def __str__(self):
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


@dataclass
class QAggregate(QExpr):
    """An aggregate over the input of a groupby box.

    Only valid as (part of) an output column of a GROUPBY box. ``arg`` is
    None for ``COUNT(*)``.
    """

    func: str
    arg: Optional[QExpr] = None
    distinct: bool = False

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def __str__(self):
        inner = "*" if self.arg is None else str(self.arg)
        if self.distinct:
            inner = "DISTINCT " + inner
        return "%s(%s)" % (self.func, inner)


@dataclass
class QIsNull(QExpr):
    """``expr IS [NOT] NULL``."""

    operand: QExpr
    negated: bool = False

    def children(self):
        return (self.operand,)

    def __str__(self):
        return "%s IS %sNULL" % (self.operand, "NOT " if self.negated else "")


@dataclass
class QLike(QExpr):
    """``expr [NOT] LIKE pattern``."""

    operand: QExpr
    pattern: QExpr
    negated: bool = False

    def children(self):
        return (self.operand, self.pattern)

    def __str__(self):
        return "%s %sLIKE %s" % (self.operand, "NOT " if self.negated else "", self.pattern)


@dataclass
class QCase(QExpr):
    """Searched CASE expression."""

    branches: List[Tuple[QExpr, QExpr]]
    default: Optional[QExpr] = None

    def children(self):
        out = []
        for cond, value in self.branches:
            out.append(cond)
            out.append(value)
        if self.default is not None:
            out.append(self.default)
        return tuple(out)

    def __str__(self):
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append("WHEN %s THEN %s" % (cond, value))
        if self.default is not None:
            parts.append("ELSE %s" % self.default)
        parts.append("END")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Walkers and rewriters
# ---------------------------------------------------------------------------


def walk(expr: QExpr) -> Iterator[QExpr]:
    """Yield ``expr`` and all sub-expressions depth-first."""
    yield expr
    for child in expr.children():
        for node in walk(child):
            yield node


def column_refs(expr: QExpr) -> List[QColRef]:
    """Return the list of :class:`QColRef` nodes inside ``expr``."""
    return [node for node in walk(expr) if isinstance(node, QColRef)]


def referenced_quantifiers(expr: QExpr) -> Set["Quantifier"]:
    """Return the set of quantifiers referenced by ``expr``."""
    return {ref.quantifier for ref in column_refs(expr)}


def map_expr(expr: QExpr, fn: Callable[[QExpr], QExpr]) -> QExpr:
    """Rebuild ``expr`` bottom-up, replacing each node by ``fn(node)``.

    ``fn`` receives a node whose children have already been mapped; if it
    returns the node unchanged the original object is reused where possible.
    """
    if isinstance(expr, QColRef) or isinstance(expr, QLiteral):
        return fn(expr)
    if isinstance(expr, QUnary):
        rebuilt = QUnary(op=expr.op, operand=map_expr(expr.operand, fn))
        return fn(rebuilt)
    if isinstance(expr, QBinary):
        rebuilt = QBinary(
            op=expr.op,
            left=map_expr(expr.left, fn),
            right=map_expr(expr.right, fn),
        )
        return fn(rebuilt)
    if isinstance(expr, QFunc):
        rebuilt = QFunc(name=expr.name, args=[map_expr(a, fn) for a in expr.args])
        return fn(rebuilt)
    if isinstance(expr, QAggregate):
        rebuilt = QAggregate(
            func=expr.func,
            arg=map_expr(expr.arg, fn) if expr.arg is not None else None,
            distinct=expr.distinct,
        )
        return fn(rebuilt)
    if isinstance(expr, QIsNull):
        rebuilt = QIsNull(operand=map_expr(expr.operand, fn), negated=expr.negated)
        return fn(rebuilt)
    if isinstance(expr, QLike):
        rebuilt = QLike(
            operand=map_expr(expr.operand, fn),
            pattern=map_expr(expr.pattern, fn),
            negated=expr.negated,
        )
        return fn(rebuilt)
    if isinstance(expr, QCase):
        rebuilt = QCase(
            branches=[(map_expr(c, fn), map_expr(v, fn)) for c, v in expr.branches],
            default=map_expr(expr.default, fn) if expr.default is not None else None,
        )
        return fn(rebuilt)
    raise TypeError("unknown QGM expression node %r" % type(expr).__name__)


def substitute_refs(
    expr: QExpr, mapping: Callable[[QColRef], Optional[QExpr]]
) -> QExpr:
    """Replace column references according to ``mapping``.

    ``mapping`` is a callable taking a :class:`QColRef` and returning either
    a replacement expression or None to keep the reference as is.
    """

    def visit(node):
        if isinstance(node, QColRef):
            replacement = mapping(node)
            if replacement is not None:
                return replacement
        return node

    return map_expr(expr, visit)


def remap_quantifier(
    expr: QExpr, old_to_new: Dict["Quantifier", "Quantifier"]
) -> QExpr:
    """Re-point column refs from old quantifiers to new ones (same columns).

    ``old_to_new`` maps quantifier → quantifier. Refs to quantifiers not in
    the mapping are left untouched (e.g. correlated refs).
    """

    def mapping(ref):
        new_q = old_to_new.get(ref.quantifier)
        if new_q is None:
            return None
        return QColRef(quantifier=new_q, column=ref.column)

    return substitute_refs(expr, mapping)


def conjuncts(expr: QExpr) -> List[QExpr]:
    """Flatten an expression into its top-level AND conjuncts."""
    if isinstance(expr, QBinary) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def is_simple_equality(expr: QExpr) -> bool:
    """True when ``expr`` is ``a = b`` with both sides plain column refs."""
    return (
        isinstance(expr, QBinary)
        and expr.op == "="
        and isinstance(expr.left, QColRef)
        and isinstance(expr.right, QColRef)
    )


def equality_sides(expr: QExpr) -> Optional[Tuple[QColRef, QColRef]]:
    """For ``a = b`` equality over column refs, return (left_ref, right_ref)."""
    if not is_simple_equality(expr):
        return None
    return (expr.left, expr.right)


_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})


def is_comparison(expr: QExpr) -> bool:
    """True when ``expr`` is a binary comparison node."""
    return isinstance(expr, QBinary) and expr.op in _COMPARISON_OPS


def expr_equal(left: QExpr, right: QExpr) -> bool:
    """Structural equality of two QGM expressions.

    Column references compare by quantifier *identity* plus column name.
    """
    if type(left) is not type(right):
        return False
    if isinstance(left, QLiteral):
        return left.value == right.value and type(left.value) is type(right.value)
    if isinstance(left, QColRef):
        return left.quantifier is right.quantifier and left.column == right.column
    if isinstance(left, QUnary):
        return left.op == right.op and expr_equal(left.operand, right.operand)
    if isinstance(left, QBinary):
        return (
            left.op == right.op
            and expr_equal(left.left, right.left)
            and expr_equal(left.right, right.right)
        )
    if isinstance(left, QFunc):
        return (
            left.name == right.name
            and len(left.args) == len(right.args)
            and all(expr_equal(a, b) for a, b in zip(left.args, right.args))
        )
    if isinstance(left, QAggregate):
        if left.func != right.func or left.distinct != right.distinct:
            return False
        if (left.arg is None) != (right.arg is None):
            return False
        return left.arg is None or expr_equal(left.arg, right.arg)
    if isinstance(left, QIsNull):
        return left.negated == right.negated and expr_equal(left.operand, right.operand)
    if isinstance(left, QLike):
        return (
            left.negated == right.negated
            and expr_equal(left.operand, right.operand)
            and expr_equal(left.pattern, right.pattern)
        )
    if isinstance(left, QCase):
        if len(left.branches) != len(right.branches):
            return False
        for (lc, lv), (rc, rv) in zip(left.branches, right.branches):
            if not expr_equal(lc, rc) or not expr_equal(lv, rv):
                return False
        if (left.default is None) != (right.default is None):
            return False
        return left.default is None or expr_equal(left.default, right.default)
    raise TypeError("unknown QGM expression node %r" % type(left).__name__)
