"""Public API tests: Connection, PreparedQuery, explain, scripts."""

import pytest

from repro import Connection, ReproError
from repro.errors import CatalogError


def test_run_script_defines_views_and_returns_last_outcome(empdept_db):
    conn = Connection(empdept_db)
    outcome = conn.run_script(
        """
        CREATE VIEW v AS SELECT empno FROM employee WHERE salary > 150;
        SELECT empno FROM v ORDER BY empno;
        """
    )
    assert outcome.rows == [(2,), (3,), (4,), (6,)]
    assert empdept_db.catalog.has_view("v")


def test_run_script_views_only_returns_none(empdept_db):
    conn = Connection(empdept_db)
    assert conn.run_script("CREATE VIEW v2 AS SELECT empno FROM employee") is None


def test_execute_with_inline_views_does_not_pollute_catalog(empdept_db):
    conn = Connection(empdept_db)
    rows = conn.execute(
        "CREATE VIEW temp_v AS SELECT empno FROM employee; "
        "SELECT empno FROM temp_v WHERE empno = 1"
    ).rows
    assert rows == [(1,)]
    assert not empdept_db.catalog.has_view("temp_v")


def test_execute_rejects_multiple_queries(empdept_db):
    conn = Connection(empdept_db)
    with pytest.raises(ReproError):
        conn.execute("SELECT empno FROM employee; SELECT empno FROM employee")


def test_unknown_strategy_rejected(empdept_db):
    conn = Connection(empdept_db)
    with pytest.raises(ReproError):
        conn.execute("SELECT empno FROM employee", strategy="quantum")


def test_outcome_fields(empdept_conn):
    outcome = empdept_conn.explain_execute(
        "SELECT workdept FROM avgMgrSal", strategy="emst"
    )
    assert outcome.strategy == "emst"
    assert outcome.columns == ["workdept"]
    assert outcome.elapsed_seconds >= 0
    assert outcome.rewrite_seconds >= 0
    assert outcome.heuristic is not None
    assert outcome.plan is not None


def test_explain_output(empdept_conn):
    text = empdept_conn.explain(
        "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        strategy="emst",
    )
    assert "strategy: emst" in text
    assert "emst used:" in text
    assert "total cost" in text
    assert "SELECT" in text


def test_prepared_query_reusable(empdept_conn):
    prepared = empdept_conn.prepare_statement(
        "SELECT workdept, avgsalary FROM avgMgrSal", strategy="emst"
    )
    first, stats1 = prepared.execute()
    second, stats2 = prepared.execute()
    assert sorted(first.rows) == sorted(second.rows)


def test_prepared_query_correlated_strategy(empdept_conn):
    prepared = empdept_conn.prepare_statement(
        "SELECT workdept FROM avgMgrSal", strategy="correlated"
    )
    result, _ = prepared.execute()
    assert len(result.rows) == 3


def test_result_helpers(empdept_db):
    conn = Connection(empdept_db)
    result = conn.execute("SELECT empno, empname FROM employee WHERE empno = 1")
    assert len(result) == 1
    assert result.as_dicts() == [{"empno": 1, "empname": "alice"}]
    assert "empno" in repr(result)


def test_database_create_view_helper(empdept_db):
    empdept_db.create_view("CREATE VIEW helper_v AS SELECT empno FROM employee")
    assert empdept_db.catalog.has_view("helper_v")
    with pytest.raises(CatalogError):
        empdept_db.create_view("SELECT empno FROM employee")


def test_database_analyze_updates_statistics(empdept_db):
    empdept_db.insert("employee", [(100, "zed", "D1", 999)])
    empdept_db.analyze("employee")
    stats = empdept_db.catalog.statistics("employee")
    assert stats.row_count == 8


def test_strategies_constant_exported():
    from repro import STRATEGIES

    assert "emst" in STRATEGIES and "correlated" in STRATEGIES


def test_version_exported():
    import repro

    assert repro.__version__
