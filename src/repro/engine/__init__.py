"""Execution engine: in-memory columnar storage and QGM evaluation.

Three evaluation strategies mirror the paper's Table 1 columns:

* **bottom-up** (:class:`Evaluator`) — materialise every box once, in
  stratum order, with set-oriented joins; this is how the *Original* and
  *EMST* plans run,
* **correlated** (:mod:`repro.engine.correlated`) — tuple-at-a-time
  re-evaluation of derived-table references with the outer binding pushed
  down, DB2-style; this is the *Correlated* column (a subclass of
  :class:`Evaluator`: same box semantics, different way of reaching boxes),
* recursive components run by (semi-)naive fixpoint
  (:mod:`repro.engine.recursion`).

The bottom-up strategies come in two executors: the classic
tuple-at-a-time :class:`Evaluator` and the columnar
:class:`BatchEvaluator` (:mod:`repro.engine.columnar`), which evaluates
boxes over column batches with vectorized predicates and batch
hash joins. The batch engine serves by default; the tuple engine is the
differential-testing oracle for it.
"""

from repro.engine.storage import Database, Table
from repro.engine.evaluator import Evaluator
from repro.engine.correlated import CorrelatedEvaluator
from repro.engine.columnar import BatchEvaluator

__all__ = [
    "Database",
    "Table",
    "Evaluator",
    "BatchEvaluator",
    "CorrelatedEvaluator",
]
