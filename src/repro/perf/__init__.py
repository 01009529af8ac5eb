"""Performance infrastructure: parallel sweep driver + reference engine.

Three modules:

* :mod:`repro.perf.parallel` — :func:`run_parallel`, a deterministic
  seeded process-pool map for embarrassingly-parallel workloads (random
  suites, benchmark sweeps, resilience chaos campaigns), with
  per-worker observability metrics merged back into the parent
  registry.
* :mod:`repro.perf.restarts` — :func:`best_of_restarts`, sharded
  best-of-N priority-jittered compaction restarts with best-known-length
  pruning between stages, deterministic for a fixed ``(seed, restarts)``
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

from repro.perf.parallel import run_parallel
from repro.perf.reference import ReferenceScheduleTable, reference_cyclo_compact
from repro.perf.restarts import RestartOutcome, RestartReport, best_of_restarts

__all__ = [
    "ReferenceScheduleTable",
    "RestartOutcome",
    "RestartReport",
    "best_of_restarts",
    "reference_cyclo_compact",
    "run_parallel",
]
