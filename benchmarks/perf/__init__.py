"""The repo benchmark: five workloads over the compile, execute and serve
paths, described in ``BENCHMARK.json`` at the repository root.

``python -m benchmarks.perf`` runs them all; see ``README.md`` here.
"""
