"""The compiler decides from its own facts; ``repro.analysis`` only checks.

Preparing and executing a statement loads no ``repro.analysis`` module,
on either executor, unless the caller asks for paranoid mode (whose
rewrite-soundness checker is the one hook from the compiler into the
tooling). An import scan keeps it that way at the source level."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The one compiler module allowed to import the tooling, and what.
PARANOID_HOOK = ("repro/rewrite/engine.py", "repro.analysis.soundness")

DRIVER = """
import json, sys
from repro import Connection, ResiliencePolicy
from repro.workloads.decision_support import build_decision_support_database
from repro.workloads.empdept import (
    PAPER_QUERY_SQL, PAPER_VIEWS_SQL, build_empdept_database,
)

paranoid = sys.argv[1] == "paranoid"
empdept = Connection(build_empdept_database(
    n_departments=8, employees_per_department=3, seed=1))
empdept.run_script(PAPER_VIEWS_SQL)
ds = Connection(build_decision_support_database(scale=0.05, seed=1))
statements = [
    (empdept, PAPER_QUERY_SQL),
    # an FK-covered parent join the redundant-join rule eliminates
    (ds, "SELECT l.quantity FROM lineitem l, orders o "
         "WHERE l.orderkey = o.orderkey AND l.quantity > 45"),
]
for executor in ("batch", "tuple"):
    for connection, sql in statements:
        policy = ResiliencePolicy(paranoid=True) if paranoid else None
        prepared = connection.prepare_statement(
            sql, resilience=policy, executor=executor)
        prepared.execute()
        connection.explain_execute(sql, resilience=policy, executor=executor)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.analysis"))))
"""


def loaded_analysis_modules(mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", DRIVER, mode],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_default_request_path_loads_no_analysis_module():
    assert loaded_analysis_modules("default") == []


def test_paranoid_mode_loads_the_checker():
    modules = loaded_analysis_modules("paranoid")
    assert "repro.analysis.soundness" in modules
    assert "repro.analysis.equivalence" in modules


def test_connection_and_server_answer_on_batch():
    """Batch is the default engine of a Connection and of a server; the
    correlated strategy has only the tuple engine and says so."""
    from repro import Connection
    from repro.server import QueryServer
    from repro.workloads.empdept import (
        PAPER_QUERY_SQL, PAPER_VIEWS_SQL, build_empdept_database,
    )

    database = build_empdept_database(
        n_departments=8, employees_per_department=3, seed=1
    )
    connection = Connection(database)
    connection.run_script(PAPER_VIEWS_SQL)
    assert connection.explain_execute(PAPER_QUERY_SQL).executor == "batch"
    assert connection.prepare_statement(PAPER_QUERY_SQL).executor == "batch"
    correlated = connection.explain_execute(
        PAPER_QUERY_SQL, strategy="correlated"
    )
    assert correlated.executor == "tuple"
    server = QueryServer(database)
    try:
        assert server.handle_query(PAPER_QUERY_SQL)["executor"] == "batch"
        response = server.handle_query(PAPER_QUERY_SQL, strategy="correlated")
        assert response["executor"] == "tuple"
    finally:
        server.shutdown()


def _analysis_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [
                "%s.%s" % (module, alias.name) for alias in node.names
            ]
        else:
            continue
        for name in names:
            if name == "repro.analysis" or name.startswith("repro.analysis."):
                yield name
                break


@pytest.mark.parametrize(
    "package",
    sorted(
        p.name for p in (SRC / "repro").iterdir()
        if p.is_dir() and p.name not in ("analysis", "__pycache__")
    ) + ["<top>"],
)
def test_no_module_outside_analysis_imports_it(package):
    root = SRC / "repro"
    files = (
        sorted(root.glob("*.py")) if package == "<top>"
        else sorted((root / package).rglob("*.py"))
    )
    found = {
        (path.relative_to(SRC).as_posix(), name)
        for path in files
        for name in _analysis_imports(path)
    }
    allowed = {PARANOID_HOOK} if package == "rewrite" else set()
    assert found == allowed
