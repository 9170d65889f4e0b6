"""Facts the compiler derives about QGM boxes, and decides rewrites from.

* :mod:`.engine` — a generic monotone-framework fixpoint over the box
  dependency graph, including recursive cycles;
* :mod:`.keyflow` — unique keys and duplicate-freeness (what distinct
  pullup, the magic-box merge, redundant-join tier 1, the fixpoint's
  seen-dict skip and the cardinality estimator decide from);
* :mod:`.nullflow` — column nullability under SQL's three-valued logic;
* :mod:`.domains` — the interpreted comparison domain (interval facts,
  contradictory predicate lists).

The static-analysis and translation-validation tooling in
:mod:`repro.analysis` reads these same facts to audit the compiler; the
compiler never imports that tooling.
"""
