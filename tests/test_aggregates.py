"""Aggregate accumulator semantics."""

import pytest

from repro.engine.aggregates import make_accumulator
from repro.errors import ExecutionError


def feed(accumulator, values):
    for value in values:
        accumulator.add(value)
    return accumulator.result()


def test_count_star_counts_everything():
    assert feed(make_accumulator("COUNT", star=True), [1, None, 3]) == 3


def test_count_ignores_nulls():
    assert feed(make_accumulator("COUNT"), [1, None, 3]) == 2


def test_sum_ignores_nulls():
    assert feed(make_accumulator("SUM"), [1, None, 3]) == 4


def test_sum_of_empty_is_null():
    assert feed(make_accumulator("SUM"), []) is None


def test_sum_of_only_nulls_is_null():
    assert feed(make_accumulator("SUM"), [None, None]) is None


def test_avg_ignores_nulls():
    assert feed(make_accumulator("AVG"), [2, None, 4]) == 3


def test_avg_of_empty_is_null():
    assert feed(make_accumulator("AVG"), []) is None


def test_min_max():
    assert feed(make_accumulator("MIN"), [3, 1, None, 2]) == 1
    assert feed(make_accumulator("MAX"), [3, 1, None, 2]) == 3


def test_min_max_strings():
    assert feed(make_accumulator("MIN"), ["b", "a"]) == "a"


def test_count_distinct():
    assert feed(make_accumulator("COUNT", distinct=True), [1, 1, 2, None, 2]) == 2


def test_sum_distinct():
    assert feed(make_accumulator("SUM", distinct=True), [5, 5, 3]) == 8


def test_avg_distinct():
    assert feed(make_accumulator("AVG", distinct=True), [2, 2, 4]) == 3


def test_count_distinct_star_invalid():
    with pytest.raises(ExecutionError):
        make_accumulator("COUNT", star=True, distinct=True)


def test_unknown_aggregate_rejected():
    with pytest.raises(ExecutionError):
        make_accumulator("NO_SUCH_AGGREGATE")


def test_count_of_empty_is_zero():
    assert feed(make_accumulator("COUNT"), []) == 0
    assert feed(make_accumulator("COUNT", star=True), []) == 0


def test_variance_and_stddev():
    values = [2, 4, 4, 4, 5, 5, 7, 9]
    variance = feed(make_accumulator("VARIANCE"), values)
    stddev = feed(make_accumulator("STDDEV"), values)
    assert abs(variance - 4.0) < 1e-9
    assert abs(stddev - 2.0) < 1e-9
    assert feed(make_accumulator("STDDEV"), []) is None
    assert feed(make_accumulator("VARIANCE"), [None, None]) is None


def test_stddev_usable_in_sql():
    from repro import Connection, Database

    db = Database()
    db.create_table("t", ["g", "v"], rows=[(1, 2), (1, 4), (2, 10)])
    rows = Connection(db).execute(
        "SELECT g, STDDEV(v) FROM t GROUP BY g ORDER BY g"
    ).rows
    assert rows[0] == (1, 1.0)
    assert rows[1] == (2, 0.0)


def test_register_custom_aggregate():
    from repro import Connection, Database
    from repro.engine.aggregates import register_aggregate

    class Median:
        def __init__(self):
            self.values = []

        def add(self, value):
            if value is not None:
                self.values.append(value)

        def result(self):
            if not self.values:
                return None
            ordered = sorted(self.values)
            middle = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[middle]
            return (ordered[middle - 1] + ordered[middle]) / 2

    register_aggregate("MEDIAN", Median)
    db = Database()
    db.create_table("t", ["v"], rows=[(1,), (9,), (5,)])
    # The batch group-by feeds accumulators through ``add_many``, which a
    # custom one need not define.
    for executor in ("tuple", "batch"):
        connection = Connection(db, executor=executor)
        rows = connection.execute("SELECT MEDIAN(v) FROM t").rows
        assert rows == [(5,)], executor
