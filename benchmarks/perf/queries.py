"""Inputs of the benchmark: data generators, SQL texts, binding draws and
the engine-independent oracles.

Everything here is a pure function of its arguments; the workloads pass a
``random.Random`` seeded from ``--seed``. The Table-1 databases come from
:mod:`repro.workloads.experiments` and keep that module's fixed data
seeds (they define the paper's rows); the seed varies which bindings are
looked up, the bill-of-materials forest, the serve database and the
ad-hoc texts.
"""

from __future__ import annotations

import random

# -- bill of materials -------------------------------------------------------------

BOM_CLOSURE_SQL = (
    "WITH RECURSIVE uses (part, component) AS ("
    " SELECT parent, child FROM bom"
    " UNION"
    " SELECT u.part, b.child FROM uses u, bom b WHERE b.parent = u.component"
    ") "
)


def bom_lookup_sql(part):
    return BOM_CLOSURE_SQL + "SELECT component FROM uses WHERE part = %d" % part


BOM_ALL_SQL = BOM_CLOSURE_SQL + "SELECT part, component FROM uses"


def bom_edges(n_products, depth, seed, fanout=3):
    """A forest of product structures (the ``examples/recursive_bom.py``
    shape): product ``p`` explodes into 1..fanout sub-assemblies per node
    over ``depth`` levels. Returns the ``(parent, child)`` edge list."""
    rng = random.Random(seed)
    edges = []
    next_id = n_products + 1
    frontier = {p: [p] for p in range(1, n_products + 1)}
    for _ in range(depth):
        for product, nodes in frontier.items():
            new_nodes = []
            for node in nodes:
                for _ in range(rng.randint(1, fanout)):
                    edges.append((node, next_id))
                    new_nodes.append(next_id)
                    next_id += 1
            frontier[product] = new_nodes
    return edges


def bom_database(edges):
    from repro import Database

    db = Database()
    db.create_table("bom", ["parent", "child"], rows=edges)
    return db


def adjacency(edges):
    children = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    return children


def reachable(children, root):
    """Plain-Python BFS over ``adjacency(edges)``: every node below
    ``root``. The oracle for the bill-of-materials answers, independent
    of the engine."""
    seen = set()
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for child in children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen


def closure_rows(edges):
    """The full ``uses`` closure as ``(part, component)`` rows."""
    children = adjacency(edges)
    return [
        (part, component)
        for part in children
        for component in reachable(children, part)
    ]


# -- Table-1 experiments with drawn bindings -------------------------------------------

#: For each experiment whose query carries a pushable binding: the literal
#: as it appears in the experiment's SQL, and how to draw a replacement.
#: The draw sees the experiment's database so it can stay inside the data.
BOUND_LITERALS = {
    "A": ("'Planning'", lambda rng, db: _deptname(rng, db)),
    "B": ("'DIV03'", lambda rng, db: "'DIV%02d'" % rng.randrange(25)),
    "E": ("o.omonth = 3", lambda rng, db: "o.omonth = %d" % rng.randint(1, 12)),
    "F": ("'Nation07'", lambda rng, db: "'Nation%02d'" % rng.randrange(25)),
    "G": ("'Planning'", lambda rng, db: _deptname(rng, db)),
    "H": ("n.regionkey = 2", lambda rng, db: "n.regionkey = %d" % rng.randrange(5)),
}


def _deptname(rng, db):
    index = rng.randrange(len(db.table("department")))
    return "'Planning'" if index == 0 else "'Dept%04d'" % index


def distinct_draws(draw, count):
    """Up to ``count`` distinct values of ``draw()``, in draw order. A
    domain may hold fewer than ``count`` values (5 regions), so the number
    of attempts is bounded."""
    values = []
    for _ in range(count * 20):
        value = draw()
        if value not in values:
            values.append(value)
            if len(values) == count:
                break
    return values


def bound_variants(key, sql, db, rng, count):
    """``count`` distinct texts of experiment ``key`` with drawn bindings."""
    literal, draw = BOUND_LITERALS[key]
    if sql.count(literal) != 1:
        raise ValueError(
            "experiment %s no longer carries the literal %s" % (key, literal)
        )
    return [
        sql.replace(literal, binding)
        for binding in distinct_draws(lambda: draw(rng, db), count)
    ]


#: The unrestricted forms: the same views, no binding for EMST to push.
G_UNBOUND_SQL = (
    "SELECT d.deptname, s.workdept, s.avgsalary "
    "FROM department d, avgMgrSal s WHERE d.deptno = s.workdept"
)
H_UNBOUND_SQL = (
    "SELECT n.nname, v.totrev, v.ncust "
    "FROM nation n, nationRev v WHERE v.nationkey = n.nationkey"
)


class _Slots(dict):
    """format_map source for the SQL templates below: ``{K}`` is the drawn
    literal, any other name is a correlation name, which gets the serial
    number appended when there is one."""

    def __init__(self, serial, literal):
        super().__init__(K=literal)
        self.serial = serial

    def __missing__(self, alias):
        if self.serial is None:
            return alias
        return "%s_%d" % (alias, self.serial)


# -- serve shapes -----------------------------------------------------------------

_SERVE_TEMPLATES = {
    # The paper's query D0, by department name.
    "paperD": (
        "SELECT {d}.deptname, {s}.workdept, {s}.avgsalary "
        "FROM department {d}, avgMgrSal {s} "
        "WHERE {d}.deptno = {s}.workdept AND {d}.deptname = ?"
    ),
    # Experiment A's lookup through the aggregate view.
    "deptStats": (
        "SELECT {d}.deptno, {v}.avgsal, {v}.headcount "
        "FROM department {d}, deptStats {v} "
        "WHERE {v}.workdept = {d}.deptno AND {d}.deptname = ?"
    ),
    # bench_server_throughput's HOT_QUERY: a salary-rank self-join.
    "salaryRank": (
        "SELECT COUNT(*) FROM employee {e1}, employee {e2} "
        "WHERE {e1}.salary < {e2}.salary AND {e1}.workdept = ?"
    ),
}


def serve_shape_sql(shape, serial=None):
    """The statement text of ``shape``; a ``serial`` renames its aliases,
    which makes it a statement the server has never fingerprinted."""
    return _SERVE_TEMPLATES[shape].format_map(_Slots(serial, None))


SERVE_SHAPES = {shape: serve_shape_sql(shape) for shape in _SERVE_TEMPLATES}

def update_sql(index):
    """The serve workloads' write: a raise for one department."""
    return (
        "UPDATE employee SET salary = salary + 1 WHERE workdept = 'D%04d'"
        % index
    )


def serve_binding(shape, index):
    """The parameter value of department ``index`` for ``shape``."""
    if shape == "salaryRank":
        return "D%04d" % index
    return "Planning" if index == 0 else "Dept%04d" % index


def zipf_sampler(n, exponent, rng):
    """Draws ranks 0..n-1 with P(rank) ~ 1/(rank+1)^exponent."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    ranks = range(n)
    return lambda k: rng.choices(ranks, weights=weights, k=k)


# -- ad-hoc compile templates -------------------------------------------------------
#
# Each template is (database, FROM items, text) with ``{alias}`` slots for
# every correlation name, a ``{FROM}`` slot for the outermost FROM list,
# and ``{K}`` for the drawn literal. Renaming aliases and permuting the
# FROM list changes the text (and its fingerprint) but not the answer, so
# one oracle run per (template, literal) checks any number of distinct
# texts.

ADHOC_VIEWS_EMP = (
    "CREATE VIEW deptStats (workdept, avgsal, headcount) AS "
    "SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUP BY workdept;"
    "CREATE VIEW deptPay (dkey, avgsal) AS "
    "SELECT workdept || '', AVG(salary) FROM employee GROUP BY workdept || ''"
)
ADHOC_VIEWS_DS = (
    "CREATE VIEW custRev (custkey, rev, norders) AS "
    "SELECT o.custkey, SUM(o.totalprice), COUNT(*) FROM orders o "
    "GROUP BY o.custkey;"
    "CREATE VIEW custOrders (custkey, cname, nationkey, orderkey, totalprice) AS "
    "SELECT c.custkey, c.cname, c.nationkey, o.orderkey, o.totalprice "
    "FROM customer c, orders o WHERE o.custkey = c.custkey;"
    "CREATE VIEW nationRev (nationkey, totrev, ncust) AS "
    "SELECT c.nationkey, SUM(v.rev), COUNT(*) "
    "FROM customer c, custRev v WHERE v.custkey = c.custkey "
    "GROUP BY c.nationkey"
)
ADHOC_VIEWS_CHAIN = (
    "CREATE VIEW agg0 (id, total) AS SELECT fk, SUM(val) FROM t0 GROUP BY fk"
)

ADHOC_EMP_DEPARTMENTS = 120
ADHOC_CHAIN_TABLES = 6
ADHOC_CHAIN_ROWS = 40
ADHOC_BOM_PRODUCTS = 40


def _emp_dept(rng):
    index = rng.randrange(ADHOC_EMP_DEPARTMENTS)
    return "Planning" if index == 0 else "Dept%04d" % index


def _division(rng):
    return "DIV%02d" % rng.randrange(10)


def _chain_template(n_tables):
    """bench_opt_time's chain query over ``n_tables`` joined tables."""
    names = ["x%d" % i for i in range(1, n_tables)]
    joins = ["{v}.id = {x1}.id"] + [
        "{x%d}.fk = {x%d}.id" % (i, i + 1) for i in range(1, n_tables - 1)
    ]
    return (
        "chain",
        ["agg0 {v}"] + ["t%d {%s}" % (i, name) for i, name in enumerate(names, 1)],
        "SELECT {v}.total FROM {FROM} WHERE " + " AND ".join(joins)
        + " AND {x1}.val < {K}",
        lambda rng: rng.randrange(5, ADHOC_CHAIN_ROWS),
    )


ADHOC_TEMPLATES = {
    "A": (
        "emp", ["department {d}", "deptStats {v}"],
        "SELECT {d}.deptno, {v}.avgsal, {v}.headcount FROM {FROM} "
        "WHERE {v}.workdept = {d}.deptno AND {d}.deptname = '{K}'",
        _emp_dept,
    ),
    "B": (
        "emp", ["department {d}", "avgMgrSal {s}"],
        "SELECT {d}.deptno, {s}.avgsalary FROM {FROM} "
        "WHERE {d}.deptno = {s}.workdept AND {d}.division = '{K}'",
        _division,
    ),
    "C": (
        "emp", ["employee {m}", "department {d}", "deptPay {v}"],
        "SELECT {m}.empname, {v}.avgsal FROM {FROM} "
        "WHERE {m}.empno = {d}.mgrno AND {d}.division = '{K}' "
        "AND {v}.dkey = {m}.workdept || ''",
        _division,
    ),
    "D": (
        "emp", ["department {d}", "deptStats {v}"],
        "SELECT {d}.deptno, {v}.workdept FROM {FROM} "
        "WHERE {v}.headcount = {d}.budget / {K}",
        lambda rng: rng.choice((100000, 125000, 250000, 500000)),
    ),
    "E": (
        "ds", ["orders {o}", "custRev {v}"],
        "SELECT {o}.orderkey, {v}.rev, {v}.norders FROM {FROM} "
        "WHERE {v}.custkey = {o}.custkey AND {o}.omonth = {K} "
        "AND {o}.ostatus = 'O'",
        lambda rng: rng.randint(1, 12),
    ),
    "F": (
        "ds", ["nation {n}", "custOrders {v}"],
        "SELECT {n}.nname, {v}.cname, {v}.totalprice FROM {FROM} "
        "WHERE {v}.nationkey = {n}.nationkey AND {n}.nname = 'Nation{K:02d}'",
        lambda rng: rng.randrange(25),
    ),
    "G": (
        "emp", ["department {d}", "avgMgrSal {s}"],
        "SELECT {d}.deptname, {s}.workdept, {s}.avgsalary FROM {FROM} "
        "WHERE {d}.deptno = {s}.workdept AND {d}.deptname = '{K}'",
        _emp_dept,
    ),
    "H": (
        "ds", ["nation {n}", "nationRev {v}"],
        "SELECT {n}.nname, {v}.totrev, {v}.ncust FROM {FROM} "
        "WHERE {v}.nationkey = {n}.nationkey AND {n}.regionkey = {K}",
        lambda rng: rng.randrange(5),
    ),
    "in": (
        "emp", ["department {d}"],
        "SELECT {d}.deptname FROM {FROM} WHERE {d}.division = '{K}' "
        "AND {d}.mgrno IN (SELECT {e}.empno FROM employee {e} "
        "WHERE {e}.salary > 100000)",
        _division,
    ),
    "exists": (
        "emp", ["department {d}"],
        "SELECT {d}.deptname FROM {FROM} WHERE {d}.division = '{K}' "
        "AND EXISTS (SELECT 1 FROM employee {e} "
        "WHERE {e}.workdept = {d}.deptno AND {e}.salary > 170000)",
        _division,
    ),
    "scalar": (
        "emp", ["employee {e}", "department {d}"],
        "SELECT {e}.empname, {e}.salary FROM {FROM} "
        "WHERE {e}.workdept = {d}.deptno AND {d}.deptname = '{K}' "
        "AND {e}.salary > (SELECT AVG({f}.salary) FROM employee {f} "
        "WHERE {f}.workdept = {e}.workdept)",
        _emp_dept,
    ),
    "chain3": _chain_template(3),
    "chain4": _chain_template(4),
    "chain5": _chain_template(5),
    "chain6": _chain_template(6),
    "bom": (
        "bom", ["uses {u}"],
        "WITH RECURSIVE uses (part, component) AS ("
        " SELECT parent, child FROM bom"
        " UNION"
        " SELECT {w}.part, {b}.child FROM uses {w}, bom {b} "
        "WHERE {b}.parent = {w}.component) "
        "SELECT {u}.component FROM {FROM} WHERE {u}.part = {K}",
        lambda rng: rng.randint(1, ADHOC_BOM_PRODUCTS),
    ),
}


def adhoc_text(template, literal, serial, rng):
    """One never-repeated text: aliases suffixed with ``serial``, the FROM
    list in an order drawn from ``rng``."""
    _, from_items, text, _ = ADHOC_TEMPLATES[template]
    items = list(from_items)
    rng.shuffle(items)
    return text.replace("{FROM}", ", ".join(items)).format_map(
        _Slots(serial, literal)
    )


def adhoc_databases(seed):
    """The four small databases the ad-hoc texts run against."""
    from repro import Database
    from repro.api import Connection
    from repro.workloads.decision_support import build_decision_support_database
    from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database

    emp = build_empdept_database(
        n_departments=ADHOC_EMP_DEPARTMENTS, employees_per_department=8,
        seed=seed,
    )
    Connection(emp).run_script(PAPER_VIEWS_SQL + ADHOC_VIEWS_EMP)
    ds = build_decision_support_database(scale=0.5, seed=seed + 1)
    Connection(ds).run_script(ADHOC_VIEWS_DS)
    chain = Database()
    for index in range(ADHOC_CHAIN_TABLES):
        chain.create_table(
            "t%d" % index, ["id", "fk", "val"], primary_key=["id"],
            rows=[
                (i, (i + 1) % ADHOC_CHAIN_ROWS, i)
                for i in range(ADHOC_CHAIN_ROWS)
            ],
        )
    Connection(chain).run_script(ADHOC_VIEWS_CHAIN)
    bom = bom_database(bom_edges(ADHOC_BOM_PRODUCTS, 3, seed + 2))
    return {"emp": emp, "ds": ds, "chain": chain, "bom": bom}
