"""Aggregate function accumulators with SQL semantics.

NULL inputs are ignored by every aggregate; ``COUNT(*)`` counts rows. An
empty group yields NULL for SUM/AVG/MIN/MAX and 0 for COUNT. DISTINCT
variants deduplicate their non-NULL inputs first.
"""

from __future__ import annotations

from repro.errors import ExecutionError


class _Accumulator:
    def add(self, value):
        raise NotImplementedError

    def add_many(self, values):
        """Bulk feed: semantically ``for v in values: self.add(v)``.

        Subclasses override with set-oriented implementations; the batch
        executor's columnar group-by feeds whole column slices through
        this instead of calling ``add`` per row.
        """
        for value in values:
            self.add(value)

    def result(self):
        raise NotImplementedError


class CountStar(_Accumulator):
    def __init__(self):
        self.count = 0

    def add(self, value):
        self.count += 1

    def add_many(self, values):
        self.count += len(values)

    def result(self):
        return self.count


class Count(_Accumulator):
    def __init__(self):
        self.count = 0

    def add(self, value):
        if value is not None:
            self.count += 1

    def add_many(self, values):
        self.count += len(values) - values.count(None)

    def result(self):
        return self.count


class Sum(_Accumulator):
    def __init__(self):
        self.total = None

    def add(self, value):
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def add_many(self, values):
        # Sequential adds (not sum()) so float results stay bit-identical
        # to the per-row path whatever the accumulation order.
        total = self.total
        for value in values:
            if value is not None:
                total = value if total is None else total + value
        self.total = total

    def result(self):
        return self.total


class Avg(_Accumulator):
    def __init__(self):
        self.total = 0
        self.count = 0

    def add(self, value):
        if value is None:
            return
        self.total += value
        self.count += 1

    def add_many(self, values):
        total = self.total
        count = self.count
        for value in values:
            if value is not None:
                total += value
                count += 1
        self.total = total
        self.count = count

    def result(self):
        if self.count == 0:
            return None
        return self.total / self.count


class Min(_Accumulator):
    def __init__(self):
        self.value = None

    def add(self, value):
        if value is None:
            return
        if self.value is None or value < self.value:
            self.value = value

    def add_many(self, values):
        present = [value for value in values if value is not None]
        if not present:
            return
        smallest = min(present)
        if self.value is None or smallest < self.value:
            self.value = smallest

    def result(self):
        return self.value


class Max(_Accumulator):
    def __init__(self):
        self.value = None

    def add(self, value):
        if value is None:
            return
        if self.value is None or value > self.value:
            self.value = value

    def add_many(self, values):
        present = [value for value in values if value is not None]
        if not present:
            return
        largest = max(present)
        if self.value is None or largest > self.value:
            self.value = largest

    def result(self):
        return self.value


class Distinct(_Accumulator):
    """Wraps another accumulator, feeding it each distinct non-NULL value."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = set()

    def add(self, value):
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self):
        return self.inner.result()


class Variance(_Accumulator):
    """Population variance (Welford's online algorithm)."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value):
        if value is None:
            return
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def result(self):
        if self.count == 0:
            return None
        return self.m2 / self.count


class Stddev(Variance):
    def result(self):
        variance = super().result()
        return None if variance is None else variance ** 0.5


# -- single-pass grouped kernels ------------------------------------------------
#
# ``kernel(group_ids, values, group_count) -> [result per group]`` computes
# one aggregate for every group in one sweep: ``group_ids[i]`` numbers the
# group of input position ``i``. Each kernel visits a group's values in
# input order and applies exactly the accumulator's update, so results are
# bit-identical to feeding one accumulator per group.


def _grouped_count_star(group_ids, values, group_count):
    counts = [0] * group_count
    for group in group_ids:
        counts[group] += 1
    return counts


def _grouped_count(group_ids, values, group_count):
    counts = [0] * group_count
    for group, value in zip(group_ids, values):
        if value is not None:
            counts[group] += 1
    return counts


def _grouped_sum(group_ids, values, group_count):
    totals = [None] * group_count
    for group, value in zip(group_ids, values):
        if value is not None:
            total = totals[group]
            totals[group] = value if total is None else total + value
    return totals


def _grouped_avg(group_ids, values, group_count):
    totals = [0] * group_count
    counts = [0] * group_count
    for group, value in zip(group_ids, values):
        if value is not None:
            totals[group] += value
            counts[group] += 1
    return [
        None if count == 0 else total / count
        for total, count in zip(totals, counts)
    ]


def _grouped_min(group_ids, values, group_count):
    best = [None] * group_count
    for group, value in zip(group_ids, values):
        if value is not None:
            current = best[group]
            if current is None or value < current:
                best[group] = value
    return best


def _grouped_max(group_ids, values, group_count):
    best = [None] * group_count
    for group, value in zip(group_ids, values):
        if value is not None:
            current = best[group]
            if current is None or value > current:
                best[group] = value
    return best


#: Accumulator class -> its single-pass kernel. Keyed on the class (not
#: the SQL name) so an aggregate re-registered under a built-in name, or
#: wrapped for DISTINCT, never picks up a kernel that is not its own.
GROUPED_KERNELS = {
    CountStar: _grouped_count_star,
    Count: _grouped_count,
    Sum: _grouped_sum,
    Avg: _grouped_avg,
    Min: _grouped_min,
    Max: _grouped_max,
}


_FACTORIES = {
    "COUNT": Count,
    "SUM": Sum,
    "AVG": Avg,
    "MIN": Min,
    "MAX": Max,
    "VARIANCE": Variance,
    "STDDEV": Stddev,
}


class _Registered(_Accumulator):
    """A custom accumulator given :class:`_Accumulator`'s looping
    ``add_many``, which the batch group-by feeds."""

    def __init__(self, inner):
        self.inner = inner
        self.add = inner.add
        self.result = inner.result


def register_aggregate(name, factory):
    """Register a custom aggregate (extensibility hook, §5 style).

    ``factory`` is a zero-argument callable returning an accumulator with
    ``add(value)`` / ``result()``. The name also becomes recognisable to
    the SQL builder (it may then appear in select lists and HAVING).
    """
    from repro.sql import ast

    upper = name.upper()
    _FACTORIES[upper] = lambda: _Registered(factory())
    ast.AGGREGATE_FUNCTIONS.add(upper)
    return factory


def accumulator_factory(func, star=False, distinct=False):
    """Resolve ``func`` once; return a zero-arg accumulator builder.

    The batch executor's group-by calls the builder once per group, so
    name resolution must not sit inside the per-group loop.
    """
    name = func.upper()
    if name == "COUNT" and star:
        if distinct:
            raise ExecutionError("COUNT(DISTINCT *) is not valid SQL")
        return CountStar
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ExecutionError("unknown aggregate function %r" % func)
    if distinct:
        return lambda: Distinct(factory())
    return factory


def make_accumulator(func, star=False, distinct=False):
    """Build an accumulator for aggregate ``func``.

    ``star`` selects COUNT(*); ``distinct`` wraps with deduplication.
    """
    return accumulator_factory(func, star=star, distinct=distinct)()
