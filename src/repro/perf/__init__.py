"""Performance infrastructure: parallel sweep driver + reference engine.

Three modules:

* :mod:`repro.perf.parallel` — :func:`run_parallel`, a deterministic
  seeded process-pool map for embarrassingly-parallel workloads (random
  suites, benchmark sweeps, fuzz campaigns), with
  per-worker observability metrics merged back into the parent
  registry.
* :mod:`repro.perf.restarts` — :func:`best_of_restarts`, best-of-N
  priority-jittered compaction restarts, each an independent run over
  :func:`run_parallel`, deterministic for a fixed ``(seed, restarts)``
  regardless of the worker count.
* :mod:`repro.perf.reference` — the *pre-optimisation* scheduling
  engine, preserved verbatim: the naive cell-dict
  :class:`~repro.perf.reference.ReferenceScheduleTable`, the per-slot
  communication-cost slot search, and the full projected-schedule-
  length rescan.  :func:`~repro.perf.reference.reference_cyclo_compact`
  runs cyclo-compaction on it — the baseline the equivalence suite and
  ``benchmarks/test_bench_speedup.py`` pin the fast path against.

See ``docs/performance.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "parallel": ("run_parallel",),
    "reference": ("ReferenceScheduleTable", "reference_cyclo_compact"),
    "restarts": ("RestartOutcome", "RestartReport", "best_of_restarts"),
})
