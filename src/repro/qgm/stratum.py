"""Stratum numbers (§2 of the paper).

Blobs (here: boxes) form a dependency graph: an edge from box U to box V
when V references U. Strongly connected components are collapsed (recursive
queries) and a topological sort of the reduced graph assigns stratum
numbers; base tables get stratum 0.
"""

from __future__ import annotations

from repro.errors import QgmError
from repro.qgm import expr as qe
from repro.qgm.model import BoxKind


def _tarjan_scc(nodes, successors):
    """Tarjan's strongly-connected-components, iterative.

    Returns a list of components (each a list of nodes) in reverse
    topological order (consumers before producers).
    """
    index_counter = [0]
    stack = []
    lowlink = {}
    index = {}
    on_stack = set()
    components = []

    for root in nodes:
        if id(root) in index:
            continue
        work = [(root, iter(successors(root)))]
        index[id(root)] = lowlink[id(root)] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(id(root))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if id(succ) not in index:
                    index[id(succ)] = lowlink[id(succ)] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(id(succ))
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if id(succ) in on_stack:
                    lowlink[id(node)] = min(lowlink[id(node)], index[id(succ)])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[id(parent)] = min(lowlink[id(parent)], lowlink[id(node)])
            if lowlink[id(node)] == index[id(node)]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(id(member))
                    component.append(member)
                    if member is node:
                        break
                components.append(component)
    return components


def reduced_dependency_graph(graph):
    """Collapse strongly connected components of the box dependency graph.

    Returns (components, component_of) where ``components`` is in
    topological order (producers before consumers) and ``component_of``
    maps ``id(box)`` to a component index.
    """
    boxes = graph.boxes()

    def successors(box):
        seen = set()
        for quantifier in box.quantifiers:
            if id(quantifier.input_box) not in seen:
                seen.add(id(quantifier.input_box))
                yield quantifier.input_box
        for magic in box.linked_magic:
            if id(magic) not in seen:
                seen.add(id(magic))
                yield magic

    components = _tarjan_scc(boxes, successors)
    # Tarjan emits components with producers first already (a component is
    # completed only after everything it depends on), so this order is the
    # evaluation order.
    component_of = {}
    for idx, component in enumerate(components):
        for box in component:
            component_of[id(box)] = idx
    return components, component_of


def correlation_externals(boxes):
    """``id(box) -> [quantifier, ...]`` for every box of ``boxes``: the
    quantifiers referenced inside the box's subtree but owned outside it —
    the correlation edges crossing the subtree boundary, in first-seen
    order. A box with a non-empty list is *correlated*: its rows depend on
    the rows those quantifiers are bound to. This is the one place that
    walks subtrees for correlation; the engines, the program compiler and
    the plan optimizer all ask it."""
    referenced = {}

    def references(box):
        found = referenced.get(id(box))
        if found is None:
            seen = {}
            for expression in box.all_expressions():
                for ref in qe.column_refs(expression):
                    seen.setdefault(id(ref.quantifier), ref.quantifier)
            found = referenced[id(box)] = list(seen.values())
        return found

    externals = {}
    for box in boxes:
        subtree = {}
        stack = [box]
        while stack:
            current = stack.pop()
            if id(current) not in subtree:
                subtree[id(current)] = current
                stack.extend(q.input_box for q in current.quantifiers)
        found = {}
        for member in subtree.values():
            for quantifier in references(member):
                owner = quantifier.parent_box
                if owner is not None and id(owner) not in subtree:
                    found.setdefault(id(quantifier), quantifier)
        externals[id(box)] = list(found.values())
    return externals


def assign_strata(graph):
    """Assign stratum numbers to every reachable box.

    Returns a dict ``id(box) -> stratum``. Base tables get 0; every other
    box gets 1 + max stratum of the boxes it references (boxes in one
    strongly connected component share a stratum).
    """
    components, component_of = reduced_dependency_graph(graph)
    strata = {}
    component_stratum = {}
    for idx, component in enumerate(components):
        depends = 0
        is_base_only = all(box.kind == BoxKind.BASE for box in component)
        for box in component:
            for child in list(box.referenced_boxes()) + list(box.linked_magic):
                child_component = component_of[id(child)]
                if child_component == idx:
                    continue
                if child_component not in component_stratum:
                    raise QgmError("dependency graph is not topologically ordered")
                depends = max(depends, component_stratum[child_component] + 1)
        stratum = 0 if is_base_only else max(depends, 1)
        component_stratum[idx] = stratum
        for box in component:
            strata[id(box)] = stratum
    return strata


def is_recursive(graph):
    """True when the graph contains a cycle (some SCC with >1 box or a
    self-loop)."""
    components, _ = reduced_dependency_graph(graph)
    for component in components:
        if len(component) > 1:
            return True
        box = component[0]
        for child in box.referenced_boxes():
            if child is box:
                return True
    return False
