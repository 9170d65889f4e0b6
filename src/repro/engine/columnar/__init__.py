"""Columnar batch execution of QGM graphs.

See :mod:`repro.engine.columnar.program` for the compile step that lowers a
graph to an operator program, :mod:`repro.engine.columnar.operators` for
the operators, :mod:`repro.engine.columnar.batch` for the execution state
that runs them, :mod:`repro.engine.columnar.columns` for the batch
representation and :mod:`repro.engine.columnar.vector` for the vectorized
expression compiler.
"""

from repro.engine.columnar.batch import BatchEvaluator
from repro.engine.columnar.columns import Batch, scan_batch
from repro.engine.columnar.program import Program, compile_program
from repro.engine.columnar.vector import compile_vector

__all__ = [
    "Batch",
    "BatchEvaluator",
    "Program",
    "compile_program",
    "compile_vector",
    "scan_batch",
]
