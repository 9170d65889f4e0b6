"""SQL AST → QGM translation.

Faithful to §2 of the paper:

* each SELECT block becomes a select-box; a block with GROUP BY (or with
  aggregates in its select list / HAVING) becomes the *groupby triplet* —
  select-box (SFW) → groupby-box → select-box (HAVING),
* set operations become UNION/INTERSECT/EXCEPT boxes,
* a view referenced several times yields a *common subexpression* (one box,
  several quantifiers over it),
* subqueries become boxes ranged over by existential (E), anti (A) or
  scalar (S) quantifiers; correlation appears as column references to
  quantifiers of enclosing boxes,
* recursive views (WITH RECURSIVE) create cycles in the graph.
"""

from __future__ import annotations

from repro.errors import BindError, NotSupportedError, QgmError
from repro.sql import ast
from repro.qgm import expr as qe
from repro.qgm.model import (
    BoxKind,
    DistinctMode,
    OutputColumn,
    Quantifier,
    QuantifierType,
    QueryGraph,
)

_SET_OP_KINDS = {
    "UNION": BoxKind.UNION,
    "INTERSECT": BoxKind.INTERSECT,
    "EXCEPT": BoxKind.EXCEPT,
}


class _Binding:
    """How one FROM-clause name resolves: a quantifier plus, when the name
    lives *inside* a join box (outer joins), a map from the original column
    names to the join box's output column names."""

    def __init__(self, quantifier, column_map=None):
        self.quantifier = quantifier
        self.column_map = column_map  # lower orig name -> box column name

    def has_column(self, column):
        if self.column_map is not None:
            return column.lower() in self.column_map
        return self.quantifier.input_box.has_column(column)

    def ref(self, column):
        if self.column_map is not None:
            return self.quantifier.ref(self.column_map[column.lower()])
        return self.quantifier.ref(
            self.quantifier.input_box.column(column).name
        )

    def visible_columns(self):
        """Column names this binding exposes, in declaration order."""
        if self.column_map is not None:
            return list(self.column_map.values_original())
        return self.quantifier.input_box.column_names


class _OrderedColumnMap(dict):
    """Keeps the original (pre-join) column names in order for ``*``."""

    def __init__(self):
        super().__init__()
        self._originals = []

    def put(self, original, mapped):
        self[original.lower()] = mapped
        self._originals.append(original)

    def values_original(self):
        return list(self._originals)


class _Scope:
    """One level of name resolution: the FROM bindings of a block."""

    def __init__(self):
        self.bindings = {}  # lower-cased binding name -> _Binding

    def add(self, name, binding):
        key = name.lower()
        if key in self.bindings:
            raise BindError("duplicate table name %r in FROM clause" % name)
        self.bindings[key] = binding

    def lookup_table(self, name):
        return self.bindings.get(name.lower())

    def lookup_column(self, column):
        """Find bindings that expose ``column``."""
        return [b for b in self.bindings.values() if b.has_column(column)]

    def quantifiers(self):
        return {binding.quantifier for binding in self.bindings.values()}


class GraphBuilder:
    """Builds a :class:`QueryGraph` from a parsed query."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.graph = QueryGraph(catalog=catalog)
        self._view_boxes = {}  # lower-cased view name -> Box (common subexpr)
        self._view_stack = []  # names currently being expanded (cycles)

    # -- public entry ----------------------------------------------------------

    def build(self, query):
        """Translate ``query`` (an :class:`ast.Query`) into a QueryGraph."""
        for cte in query.ctes:
            self._declare_cte(cte)
        top = self._build_body(query.body, scopes=[])
        self.graph.top_box = top
        self._apply_order_by(query, top)
        if query.limit is not None:
            self.graph.limit = query.limit
        return self.graph

    # -- views -------------------------------------------------------------------

    def _declare_cte(self, cte):
        key = cte.name.lower()
        if key in self._view_boxes:
            raise BindError("duplicate view name %r" % cte.name)
        if cte.recursive and isinstance(cte.query.body, ast.SetOp):
            self._view_boxes[key] = self._build_recursive_view(cte)
        else:
            box = self._build_body(cte.query.body, scopes=[])
            self._rename_view_columns(box, cte)
            box.name = cte.name.upper()
            self._view_boxes[key] = box

    def _build_recursive_view(self, cte):
        """Build a recursive view: a UNION box whose branches may reference
        the view itself, creating a cycle in the graph."""
        setop = cte.query.body
        if setop.op != "UNION":
            raise NotSupportedError("recursive views must use UNION [ALL]")
        union = self.graph.new_box(BoxKind.UNION, cte.name.upper())
        union.distinct = DistinctMode.PRESERVE if setop.all else DistinctMode.ENFORCE
        self._view_boxes[cte.name.lower()] = union
        branches = _flatten_union(setop)
        # Build the first (base) branch before the recursive ones so the
        # placeholder union box has columns when the recursion refers back
        # to it. Datalog-style recursion always has a nonrecursive branch.
        first = self._build_body(branches[0], scopes=[])
        names = cte.columns or first.column_names
        if len(names) != len(first.columns):
            raise BindError(
                "view %r column list does not match query arity" % cte.name
            )
        union.columns = [OutputColumn(name=n) for n in names]
        union.add_quantifier(
            Quantifier(
                name=self.graph.fresh_name("u"),
                qtype=QuantifierType.FOREACH,
                input_box=first,
            )
        )
        for branch in branches[1:]:
            child = self._build_body(branch, scopes=[])
            if len(child.columns) != len(names):
                raise QgmError("UNION branches have differing arity")
            union.add_quantifier(
                Quantifier(
                    name=self.graph.fresh_name("u"),
                    qtype=QuantifierType.FOREACH,
                    input_box=child,
                )
            )
        return union

    def _rename_view_columns(self, box, view):
        if view.columns is None:
            return
        if len(view.columns) != len(box.columns):
            raise BindError(
                "view %r column list does not match query arity" % view.name
            )
        for column, name in zip(box.columns, view.columns):
            column.name = name

    def _view_box(self, name):
        """Return the (shared) box for view ``name``, building on demand."""
        key = name.lower()
        box = self._view_boxes.get(key)
        if box is not None:
            return box
        if not self.catalog.has_view(name):
            return None
        if key in self._view_stack:
            raise NotSupportedError(
                "catalog view %r is recursive; use WITH RECURSIVE" % name
            )
        view = self.catalog.view(name)
        self._view_stack.append(key)
        try:
            if view.recursive and isinstance(view.query.body, ast.SetOp):
                box = self._build_recursive_view(view)
            else:
                box = self._build_body(view.query.body, scopes=[])
                self._rename_view_columns(box, view)
                box.name = view.name.upper()
                self._view_boxes[key] = box
        finally:
            self._view_stack.pop()
        return box

    # -- bodies ---------------------------------------------------------------------

    def _build_body(self, body, scopes):
        if isinstance(body, ast.SelectCore):
            return self._build_select_core(body, scopes)
        if isinstance(body, ast.SetOp):
            return self._build_set_op(body, scopes)
        raise NotSupportedError("unsupported query body %r" % type(body).__name__)

    def _build_set_op(self, setop, scopes):
        left = self._build_body(setop.left, scopes)
        right = self._build_body(setop.right, scopes)
        if len(left.columns) != len(right.columns):
            raise BindError("%s operands have different arity" % setop.op)
        box = self.graph.new_box(
            _SET_OP_KINDS[setop.op], self.graph.fresh_name(setop.op)
        )
        box.distinct = DistinctMode.PRESERVE if setop.all else DistinctMode.ENFORCE
        for index, child in enumerate((left, right)):
            box.add_quantifier(
                Quantifier(
                    name=self.graph.fresh_name("s"),
                    qtype=QuantifierType.FOREACH,
                    input_box=child,
                )
            )
        box.columns = [OutputColumn(name=c.name) for c in left.columns]
        return box

    # -- select blocks -----------------------------------------------------------------

    def _build_select_core(self, core, scopes):
        box = self.graph.new_box(BoxKind.SELECT, self.graph.fresh_name("Q"))
        scope = _Scope()
        deferred_on = []
        for item in core.from_tables:
            self._add_from_item(item, box, scope, scopes, deferred_on)
        inner_scopes = scopes + [scope]
        for condition in deferred_on:
            box.predicates.extend(
                self._translate_conjuncts(condition, inner_scopes, box)
            )
        if core.where is not None:
            box.predicates.extend(
                self._translate_conjuncts(core.where, inner_scopes, box)
            )
        needs_grouping = bool(core.group_by) or self._has_aggregates(core)
        if needs_grouping:
            return self._build_group_triplet(core, box, inner_scopes)
        box.columns = self._build_select_list(core, inner_scopes, box)
        if core.having is not None:
            raise NotSupportedError("HAVING requires GROUP BY or aggregates")
        if core.distinct:
            box.distinct = DistinctMode.ENFORCE
        return box

    def _add_from_item(self, item, box, scope, scopes, deferred_on):
        """Process one FROM item into ``box``: plain references add a
        quantifier; INNER joins flatten (operands become quantifiers, the
        ON condition becomes WHERE conjuncts, translated after the whole
        FROM list so it may reference earlier items); LEFT joins build an
        OUTERJOIN box."""
        if isinstance(item, (ast.TableRef, ast.SubqueryRef)):
            quantifier = self._build_from_item(item, scopes)
            box.add_quantifier(quantifier)
            scope.add(item.binding_name, _Binding(quantifier))
            return
        if isinstance(item, ast.JoinRef):
            if item.kind == "INNER":
                self._add_from_item(item.left, box, scope, scopes, deferred_on)
                self._add_from_item(item.right, box, scope, scopes, deferred_on)
                deferred_on.append(item.condition)
                return
            oj_box, column_maps = self._build_outerjoin(item, scopes)
            quantifier = Quantifier(
                name=self.graph.fresh_name("oj"),
                qtype=QuantifierType.FOREACH,
                input_box=oj_box,
            )
            box.add_quantifier(quantifier)
            for alias, column_map in column_maps:
                scope.add(alias, _Binding(quantifier, column_map))
            return
        raise NotSupportedError("unsupported FROM item %r" % type(item).__name__)

    def _build_outerjoin(self, join, scopes):
        """Build an OUTERJOIN box for ``left LEFT JOIN right ON cond``.

        Returns (box, [(alias, column_map)]) where each column map
        translates an operand's column names to the box's output columns.
        """
        # The preserved (left) operand: a table reference or another LEFT
        # join (chains associate left). An INNER join on the left must be
        # parenthesised as a derived table instead.
        if isinstance(join.left, ast.JoinRef) and join.left.kind == "LEFT":
            left_box, left_maps = self._build_outerjoin(join.left, scopes)
        elif isinstance(join.left, (ast.TableRef, ast.SubqueryRef)):
            left_quantifier = self._build_from_item(join.left, scopes)
            left_box = left_quantifier.input_box
            left_maps = [(join.left.binding_name, None)]
        else:
            raise NotSupportedError(
                "the left operand of LEFT JOIN must be a table reference or "
                "another LEFT JOIN; parenthesise inner joins as derived tables"
            )
        if not isinstance(join.right, (ast.TableRef, ast.SubqueryRef)):
            raise NotSupportedError(
                "the right operand of LEFT JOIN must be a table reference"
            )
        right_quantifier_src = self._build_from_item(join.right, scopes)
        right_box = right_quantifier_src.input_box

        oj_box = self.graph.new_box(BoxKind.OUTERJOIN, self.graph.fresh_name("OJ"))
        oj_box.properties["preserved"] = "left"
        left_q = Quantifier(
            name=self.graph.fresh_name("l"),
            qtype=QuantifierType.FOREACH,
            input_box=left_box,
        )
        right_q = Quantifier(
            name=self.graph.fresh_name("r"),
            qtype=QuantifierType.FOREACH,
            input_box=right_box,
        )
        oj_box.add_quantifier(left_q)
        oj_box.add_quantifier(right_q)

        # Local bindings for the ON condition and the output columns.
        local_scope = _Scope()
        operand_bindings = []
        for alias, column_map in left_maps:
            if column_map is None:
                binding = _Binding(left_q)
            else:
                # Re-point the nested join's map through the new quantifier.
                nested = _OrderedColumnMap()
                for original in column_map.values_original():
                    nested.put(original, column_map[original.lower()])
                binding = _Binding(left_q, nested)
            local_scope.add(alias, binding)
            operand_bindings.append((alias, binding))
        right_binding = _Binding(right_q)
        local_scope.add(join.right.binding_name, right_binding)
        operand_bindings.append((join.right.binding_name, right_binding))

        condition = self._translate(
            join.condition, scopes + [local_scope], oj_box
        )
        oj_box.predicates.extend(qe.conjuncts(condition))

        # Output columns: everything both sides expose, names uniquified.
        used = set()
        column_maps = []
        for alias, binding in operand_bindings:
            out_map = _OrderedColumnMap()
            for original in (
                binding.column_map.values_original()
                if binding.column_map is not None
                else binding.quantifier.input_box.column_names
            ):
                name = self._unique_name(original, used)
                oj_box.columns.append(
                    OutputColumn(name=name, expr=binding.ref(original))
                )
                out_map.put(original, name)
            column_maps.append((alias, out_map))
        return oj_box, column_maps

    def _build_from_item(self, item, scopes):
        if isinstance(item, ast.SubqueryRef):
            child = self._build_body(item.query.body, scopes)
            return Quantifier(
                name=self.graph.fresh_name(item.alias),
                qtype=QuantifierType.FOREACH,
                input_box=child,
            )
        view_box = self._view_box(item.name)
        if view_box is not None:
            child = view_box
        elif self.catalog.has_table(item.name):
            child = self.graph.base_box(self.catalog.table(item.name))
        else:
            raise BindError("unknown table or view %r" % item.name)
        return Quantifier(
            name=self.graph.fresh_name(item.binding_name),
            qtype=QuantifierType.FOREACH,
            input_box=child,
        )

    @staticmethod
    def _has_aggregates(core):
        for item in core.items:
            if not isinstance(item.expr, ast.Star) and ast.contains_aggregate(item.expr):
                return True
        if core.having is not None and ast.contains_aggregate(core.having):
            return True
        return False

    def _build_select_list(self, core, scopes, box):
        columns = []
        used = set()
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                for binding, name in self._expand_star(item.expr, scopes):
                    columns.append(
                        OutputColumn(
                            name=self._unique_name(name, used),
                            expr=binding.ref(name),
                        )
                    )
                continue
            expr = self._translate(item.expr, scopes, box)
            name = item.alias or _default_column_name(item.expr, len(columns))
            columns.append(OutputColumn(name=self._unique_name(name, used), expr=expr))
        return columns

    @staticmethod
    def _unique_name(name, used):
        candidate = name
        counter = 1
        while candidate.lower() in used:
            candidate = "%s_%d" % (name, counter)
            counter += 1
        used.add(candidate.lower())
        return candidate

    def _expand_star(self, star, scopes):
        scope = scopes[-1]
        if star.table is not None:
            binding = scope.lookup_table(star.table)
            if binding is None:
                raise BindError("unknown table %r in star expansion" % star.table)
            return [(binding, name) for name in binding.visible_columns()]
        out = []
        for binding in scope.bindings.values():
            for name in binding.visible_columns():
                out.append((binding, name))
        return out

    # -- groupby triplet -----------------------------------------------------------------

    def _build_group_triplet(self, core, sfw_box, scopes):
        """Decompose a grouped block into the paper's triplet of boxes."""
        group_keys = [self._translate(g, scopes, sfw_box) for g in core.group_by]
        aggregates = self._collect_aggregates(core, scopes, sfw_box)

        # T1: the SFW box outputs each group key and each aggregate argument.
        t1_columns = []
        key_names = []
        for index, key in enumerate(group_keys):
            name = "gk%d" % index
            key_names.append(name)
            t1_columns.append(OutputColumn(name=name, expr=key))
        agg_arg_names = []
        for index, (func, arg, distinct) in enumerate(aggregates):
            if arg is None:
                agg_arg_names.append(None)
                continue
            name = "a%d" % index
            agg_arg_names.append(name)
            t1_columns.append(OutputColumn(name=name, expr=arg))
        sfw_box.columns = t1_columns
        sfw_box.name = self.graph.fresh_name("T1")

        # T2: the groupby box.
        t1_quantifier = Quantifier(
            name=self.graph.fresh_name("g"),
            qtype=QuantifierType.FOREACH,
            input_box=sfw_box,
        )
        groupby = self.graph.new_box(BoxKind.GROUPBY, self.graph.fresh_name("T2"))
        groupby.add_quantifier(t1_quantifier)
        groupby.group_keys = [t1_quantifier.ref(name) for name in key_names]
        groupby_columns = []
        for name in key_names:
            groupby_columns.append(
                OutputColumn(name=name, expr=t1_quantifier.ref(name))
            )
        for index, (func, arg, distinct) in enumerate(aggregates):
            agg_expr = qe.QAggregate(
                func=func,
                arg=t1_quantifier.ref(agg_arg_names[index])
                if agg_arg_names[index] is not None
                else None,
                distinct=distinct,
            )
            groupby_columns.append(OutputColumn(name="agg%d" % index, expr=agg_expr))
        groupby.columns = groupby_columns

        # T3: the HAVING/projection box.
        t2_quantifier = Quantifier(
            name=self.graph.fresh_name("h"),
            qtype=QuantifierType.FOREACH,
            input_box=groupby,
        )
        having_box = self.graph.new_box(BoxKind.SELECT, self.graph.fresh_name("Q"))
        having_box.add_quantifier(t2_quantifier)

        mapper = _GroupOutputMapper(
            self, scopes, group_keys, key_names, aggregates, t2_quantifier
        )
        columns = []
        used = set()
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                raise NotSupportedError("SELECT * is not allowed with GROUP BY")
            expr = mapper.translate(item.expr, having_box)
            name = item.alias or _default_column_name(item.expr, len(columns))
            columns.append(OutputColumn(name=self._unique_name(name, used), expr=expr))
        having_box.columns = columns
        if core.having is not None:
            predicate = mapper.translate(core.having, having_box)
            having_box.predicates.extend(qe.conjuncts(predicate))
        if core.distinct:
            having_box.distinct = DistinctMode.ENFORCE
        return having_box

    def _collect_aggregates(self, core, scopes, sfw_box):
        """Find every distinct aggregate call in the select list and HAVING.

        Returns [(func, translated-arg-or-None, distinct)], deduplicated.
        """
        calls = []

        def collect(expr):
            if isinstance(expr, ast.Star):
                return
            for node in ast.walk(expr):
                if ast.is_aggregate_call(node):
                    calls.append(node)

        for item in core.items:
            collect(item.expr)
        if core.having is not None:
            collect(core.having)

        aggregates = []
        self._aggregate_index = {}
        for call in calls:
            func = call.name.upper()
            if func == "COUNT" and call.args and isinstance(call.args[0], ast.Star):
                arg = None
            else:
                if len(call.args) != 1:
                    raise NotSupportedError(
                        "aggregate %s must take exactly one argument" % func
                    )
                arg = self._translate(call.args[0], scopes, sfw_box)
            key = _aggregate_key(call)
            if key in self._aggregate_index:
                continue
            self._aggregate_index[key] = len(aggregates)
            aggregates.append((func, arg, call.distinct))
        return aggregates

    # -- predicate and expression translation -------------------------------------------

    def _translate_conjuncts(self, expr, scopes, box):
        """Translate a WHERE/HAVING condition into a conjunct list, turning
        subquery predicates into E/A quantifiers on ``box``."""
        out = []
        for conjunct in _ast_conjuncts(expr):
            out.extend(self._translate_predicate(conjunct, scopes, box))
        return out

    def _translate_predicate(self, node, scopes, box):
        """Translate one top-level conjunct; may add quantifiers to ``box``."""
        if isinstance(node, ast.InSubquery):
            qtype = QuantifierType.ANTI if node.negated else QuantifierType.EXISTENTIAL
            quantifier = self._subquery_quantifier(node.query, scopes, box, qtype)
            quantifier.null_aware = node.negated
            sub_column = quantifier.input_box.columns[0].name
            if len(quantifier.input_box.columns) != 1:
                raise NotSupportedError("IN subquery must return one column")
            left = self._translate(node.expr, scopes, box)
            return [qe.QBinary(op="=", left=left, right=quantifier.ref(sub_column))]
        if isinstance(node, ast.Exists):
            qtype = QuantifierType.ANTI if node.negated else QuantifierType.EXISTENTIAL
            self._subquery_quantifier(node.query, scopes, box, qtype)
            return []
        if isinstance(node, ast.QuantifiedComparison):
            left = self._translate(node.left, scopes, box)
            if node.quantifier == "ANY":
                quantifier = self._subquery_quantifier(
                    node.query, scopes, box, QuantifierType.EXISTENTIAL
                )
                sub_column = quantifier.input_box.columns[0].name
                return [
                    qe.QBinary(op=node.op, left=left, right=quantifier.ref(sub_column))
                ]
            quantifier = self._subquery_quantifier(
                node.query, scopes, box, QuantifierType.ANTI
            )
            quantifier.null_aware = True
            sub_column = quantifier.input_box.columns[0].name
            comparison = qe.QBinary(
                op=node.op, left=left, right=quantifier.ref(sub_column)
            )
            return [qe.QUnary(op="NOT", operand=comparison)]
        return [self._translate(node, scopes, box)]

    def _subquery_quantifier(self, query, scopes, box, qtype):
        """Build a subquery box and attach a quantifier of ``qtype`` to
        ``box``. The subquery sees the enclosing scopes (correlation)."""
        if query.ctes:
            raise NotSupportedError("WITH inside subqueries is not supported")
        child = self._build_body(query.body, scopes)
        quantifier = Quantifier(
            name=self.graph.fresh_name("sq"),
            qtype=qtype,
            input_box=child,
        )
        box.add_quantifier(quantifier)
        return quantifier

    def _translate(self, expr, scopes, box):
        """Translate a scalar expression (no E/A quantifier creation;
        scalar subqueries become S quantifiers on ``box``)."""
        if isinstance(expr, ast.Parameter):
            return qe.QParam(index=expr.index)
        if isinstance(expr, ast.Literal):
            return qe.QLiteral(value=expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, scopes)
        if isinstance(expr, ast.Star):
            raise BindError("* is not valid in this context")
        if isinstance(expr, ast.UnaryOp):
            return qe.QUnary(op=expr.op, operand=self._translate(expr.operand, scopes, box))
        if isinstance(expr, ast.BinaryOp):
            return qe.QBinary(
                op=expr.op,
                left=self._translate(expr.left, scopes, box),
                right=self._translate(expr.right, scopes, box),
            )
        if isinstance(expr, ast.Between):
            operand = self._translate(expr.expr, scopes, box)
            low = self._translate(expr.low, scopes, box)
            high = self._translate(expr.high, scopes, box)
            both = qe.QBinary(
                op="AND",
                left=qe.QBinary(op=">=", left=operand, right=low),
                right=qe.QBinary(op="<=", left=operand, right=high),
            )
            if expr.negated:
                return qe.QUnary(op="NOT", operand=both)
            return both
        if isinstance(expr, ast.InList):
            operand = self._translate(expr.expr, scopes, box)
            tests = [
                qe.QBinary(op="=", left=operand, right=self._translate(i, scopes, box))
                for i in expr.items
            ]
            combined = tests[0]
            for test in tests[1:]:
                combined = qe.QBinary(op="OR", left=combined, right=test)
            if expr.negated:
                return qe.QUnary(op="NOT", operand=combined)
            return combined
        if isinstance(expr, ast.IsNull):
            return qe.QIsNull(
                operand=self._translate(expr.expr, scopes, box), negated=expr.negated
            )
        if isinstance(expr, ast.Like):
            return qe.QLike(
                operand=self._translate(expr.expr, scopes, box),
                pattern=self._translate(expr.pattern, scopes, box),
                negated=expr.negated,
            )
        if isinstance(expr, ast.FuncCall):
            if ast.is_aggregate_call(expr):
                raise BindError(
                    "aggregate %s not allowed in this context" % expr.name
                )
            return qe.QFunc(
                name=expr.name,
                args=[self._translate(a, scopes, box) for a in expr.args],
            )
        if isinstance(expr, ast.CaseWhen):
            return qe.QCase(
                branches=[
                    (self._translate(c, scopes, box), self._translate(v, scopes, box))
                    for c, v in expr.branches
                ],
                default=self._translate(expr.default, scopes, box)
                if expr.default is not None
                else None,
            )
        if isinstance(expr, ast.ScalarSubquery):
            quantifier = self._subquery_quantifier(
                expr.query, scopes, box, QuantifierType.SCALAR
            )
            if len(quantifier.input_box.columns) != 1:
                raise NotSupportedError("scalar subquery must return one column")
            return quantifier.ref(quantifier.input_box.columns[0].name)
        if isinstance(expr, (ast.InSubquery, ast.Exists, ast.QuantifiedComparison)):
            raise NotSupportedError(
                "subquery predicates are only supported as top-level conjuncts"
            )
        raise NotSupportedError("unsupported expression %r" % type(expr).__name__)

    def _resolve_column(self, ref, scopes):
        """Resolve a column name against the scope stack (innermost first).

        A resolution against an outer scope is a correlation.
        """
        for scope in reversed(scopes):
            if ref.table is not None:
                binding = scope.lookup_table(ref.table)
                if binding is None:
                    continue
                if not binding.has_column(ref.column):
                    raise BindError(
                        "table %r has no column %r" % (ref.table, ref.column)
                    )
                return binding.ref(ref.column)
            matches = scope.lookup_column(ref.column)
            if len(matches) > 1:
                raise BindError("ambiguous column %r" % ref.column)
            if matches:
                return matches[0].ref(ref.column)
        raise BindError("cannot resolve column %s" % ref)

    # -- order by ---------------------------------------------------------------------------

    def _apply_order_by(self, query, top):
        for item in query.order_by:
            ordinal = self._order_key_ordinal(item.expr, top)
            self.graph.order_by.append((ordinal, item.ascending))

    def _order_key_ordinal(self, expr, top):
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value - 1
            if not 0 <= ordinal < len(top.columns):
                raise BindError("ORDER BY position %d out of range" % expr.value)
            return ordinal
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for index, column in enumerate(top.columns):
                if column.name.lower() == expr.column.lower():
                    return index
        raise NotSupportedError(
            "ORDER BY keys must be output column names or positions"
        )


class _GroupOutputMapper:
    """Maps HAVING/select-list expressions of a grouped block onto the
    output of the groupby box (group keys and aggregate columns)."""

    def __init__(self, builder, scopes, group_keys, key_names, aggregates, t2_quantifier):
        self.builder = builder
        self.scopes = scopes
        self.group_keys = group_keys
        self.key_names = key_names
        self.aggregates = aggregates
        self.t2 = t2_quantifier

    def translate(self, expr, box):
        if ast.is_aggregate_call(expr):
            index = self.builder._aggregate_index.get(_aggregate_key(expr))
            if index is None:
                raise BindError("aggregate %s not collected" % expr.name)
            return self.t2.ref("agg%d" % index)
        if isinstance(expr, ast.Parameter):
            return qe.QParam(index=expr.index)
        if isinstance(expr, (ast.Literal,)):
            return qe.QLiteral(value=expr.value)
        # A composite expression may match a group key structurally (e.g.
        # ``GROUP BY workdept || ''`` with the same expression selected).
        if not isinstance(expr, ast.ColumnRef) and not ast.contains_aggregate(expr):
            try:
                translated = self.builder._translate(expr, self.scopes, box)
            except (BindError, NotSupportedError):
                translated = None
            if translated is not None:
                for index, key in enumerate(self.group_keys):
                    if qe.expr_equal(key, translated):
                        return self.t2.ref(self.key_names[index])
        if isinstance(expr, ast.ColumnRef):
            translated = self.builder._resolve_column(expr, self.scopes)
            return self._match_group_key(translated, expr)
        if isinstance(expr, ast.UnaryOp):
            return qe.QUnary(op=expr.op, operand=self.translate(expr.operand, box))
        if isinstance(expr, ast.BinaryOp):
            return qe.QBinary(
                op=expr.op,
                left=self.translate(expr.left, box),
                right=self.translate(expr.right, box),
            )
        if isinstance(expr, ast.IsNull):
            return qe.QIsNull(operand=self.translate(expr.expr, box), negated=expr.negated)
        if isinstance(expr, ast.Like):
            return qe.QLike(
                operand=self.translate(expr.expr, box),
                pattern=self.translate(expr.pattern, box),
                negated=expr.negated,
            )
        if isinstance(expr, ast.Between):
            operand = self.translate(expr.expr, box)
            low = self.translate(expr.low, box)
            high = self.translate(expr.high, box)
            both = qe.QBinary(
                op="AND",
                left=qe.QBinary(op=">=", left=operand, right=low),
                right=qe.QBinary(op="<=", left=operand, right=high),
            )
            if expr.negated:
                return qe.QUnary(op="NOT", operand=both)
            return both
        if isinstance(expr, ast.FuncCall):
            return qe.QFunc(
                name=expr.name, args=[self.translate(a, box) for a in expr.args]
            )
        if isinstance(expr, ast.CaseWhen):
            return qe.QCase(
                branches=[
                    (self.translate(c, box), self.translate(v, box))
                    for c, v in expr.branches
                ],
                default=self.translate(expr.default, box)
                if expr.default is not None
                else None,
            )
        raise NotSupportedError(
            "expression %r not supported above GROUP BY" % type(expr).__name__
        )

    def _match_group_key(self, translated, original):
        for index, key in enumerate(self.group_keys):
            if qe.expr_equal(key, translated):
                return self.t2.ref(self.key_names[index])
        # A reference resolved to an *outer* scope is a correlation: it is
        # constant within the block, so it may appear above the GROUP BY.
        local = set()
        if self.scopes:
            local = self.scopes[-1].quantifiers()
        if isinstance(translated, qe.QColRef) and translated.quantifier not in local:
            return translated
        raise BindError(
            "column %s must appear in GROUP BY or inside an aggregate" % original
        )


def _ast_conjuncts(expr):
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _ast_conjuncts(expr.left) + _ast_conjuncts(expr.right)
    return [expr]


def _flatten_union(body):
    if isinstance(body, ast.SetOp) and body.op == "UNION":
        return _flatten_union(body.left) + _flatten_union(body.right)
    return [body]


def _default_column_name(expr, position):
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FuncCall) and len(expr.args) == 1 and isinstance(
        expr.args[0], ast.ColumnRef
    ):
        return "%s_%s" % (expr.name.lower(), expr.args[0].column)
    if isinstance(expr, ast.FuncCall):
        return expr.name.lower()
    return "col%d" % position


def _aggregate_key(call):
    """A hashable identity for an aggregate AST call (dedup in a block)."""
    from repro.sql.printer import expr_to_sql

    return (call.name.upper(), call.distinct, expr_to_sql(call))


def build_query_graph(query, catalog):
    """Build a :class:`QueryGraph` for ``query`` against ``catalog``."""
    return GraphBuilder(catalog).build(query)
