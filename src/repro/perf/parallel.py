"""Deterministic process-pool map for sweeps and campaigns.

:func:`run_parallel` is the one fan-out primitive the repo uses for
embarrassingly-parallel work: parameter sweeps
(:mod:`repro.analysis.sweep`), fuzz campaigns (:mod:`repro.qa.fuzz`),
best-of-N restarts (:mod:`repro.perf.restarts`) and the speedup
benchmark.  Guarantees:

* **Determinism** — results come back in *item order* regardless of
  which worker finished first, so a parallel sweep is byte-identical to
  the serial one (the scheduler itself is seeded per item, never by
  worker identity).
* **Observability** — when the parent process has observability
  enabled (:func:`repro.obs.runtime.enabled`), each worker records its
  metrics into a fresh registry and ships a snapshot home; the parent
  merges them (counters add, histograms combine) so campaign-level
  statistics such as ``qa.fuzz.trial_seconds`` percentiles
  cover every trial no matter where it ran.
* **Budgets** — ``time_budget_seconds`` stops dispatching new items
  once the wall-clock budget is spent; completed items are returned (a
  prefix of the item list), never partial results.
* **Typed failure** — a worker process dying abruptly (killed, OOMed,
  interpreter crash) raises :class:`repro.errors.WorkerCrashedError`
  carrying the in-item-order prefix of results completed before the
  crash, instead of leaking ``concurrent.futures``' raw
  ``BrokenProcessPool``.  Ordinary exceptions *raised by* ``fn``
  propagate unchanged.

``fn`` and every item must be picklable for ``jobs > 1`` (plain
functions and the repo's graphs/architectures/configs all are).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from repro.errors import WorkerCrashedError
from repro.obs import metrics, runtime
from repro.obs.sinks import InMemorySink

__all__ = ["run_parallel"]


def _worker(payload: tuple) -> tuple[Any, dict | None]:
    """Run one item in a worker process.

    Returns ``(result, metrics_snapshot)``; the snapshot is ``None``
    unless the parent asked for metrics.  A fresh in-memory sink flips
    the worker's observability flag on so the instrumented hot paths
    actually record — the event stream itself is discarded, only the
    metrics registry travels back.  ``submitted`` is the parent's
    ``time.monotonic()`` at dispatch (system-wide on the platforms the
    repo targets), so ``queue_wait_seconds`` measures how long the item
    sat waiting for a worker slot.
    """
    fn, item, collect, submitted = payload
    if not collect:
        return fn(item), None
    metrics.reset()
    with runtime.sink_installed(InMemorySink()):
        begun = time.monotonic()
        if submitted is not None:
            metrics.observe(
                "perf.parallel.queue_wait_seconds",
                max(0.0, begun - submitted),
            )
        result = fn(item)
        metrics.inc("perf.parallel.tasks")
        metrics.observe(
            "perf.parallel.task_seconds", time.monotonic() - begun
        )
        snap = metrics.snapshot()
    return result, snap


def run_parallel(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    time_budget_seconds: float | None = None,
) -> list:
    """Map ``fn`` over ``items``, optionally across processes.

    Parameters
    ----------
    fn:
        Callable applied to each item.  Must be picklable (module-level)
        when ``jobs > 1``.
    items:
        Work items; consumed eagerly so the result order is fixed.
    jobs:
        Worker process count.  ``jobs <= 1`` runs serially in-process
        (no pickling requirement, exceptions propagate directly).
    time_budget_seconds:
        Soft wall-clock budget: once exceeded, no further item is
        *started*; already-running items finish and are included.  The
        returned list is always a prefix of ``items``' results.

    Returns
    -------
    list
        ``[fn(item) for item in items]`` (possibly truncated by the
        budget), in item order.
    """
    work: Sequence[Any] = list(items)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    deadline = (
        time.perf_counter() + time_budget_seconds
        if time_budget_seconds is not None
        else None
    )

    if jobs == 1 or len(work) <= 1:
        observing = runtime.enabled()
        results = []
        for item in work:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if observing:
                begun = time.monotonic()
                results.append(fn(item))
                metrics.inc("perf.parallel.tasks")
                metrics.observe(
                    "perf.parallel.task_seconds", time.monotonic() - begun
                )
                metrics.observe("perf.parallel.queue_wait_seconds", 0.0)
            else:
                results.append(fn(item))
        return results

    collect = runtime.enabled()
    results = []
    width = min(jobs, len(work))
    with ProcessPoolExecutor(max_workers=width) as pool:
        # keep at most `jobs` items in flight so the budget check gates
        # every dispatch, not just the initial burst
        pending: deque = deque()
        next_index = 0
        while next_index < len(work) and len(pending) < width:
            pending.append(pool.submit(
                _worker,
                (fn, work[next_index], collect, time.monotonic()),
            ))
            next_index += 1
        try:
            while pending:
                result, snap = pending.popleft().result()
                results.append(result)
                if snap is not None:
                    metrics.merge_snapshot(snap)
                if next_index < len(work) and (
                    deadline is None or time.perf_counter() < deadline
                ):
                    pending.append(pool.submit(
                        _worker,
                        (fn, work[next_index], collect, time.monotonic()),
                    ))
                    next_index += 1
        except BrokenProcessPool as exc:
            metrics.inc("perf.parallel.worker_crashes")
            raise WorkerCrashedError(
                f"worker process died after {len(results)} of "
                f"{len(work)} items completed (killed, out of memory, "
                "or interpreter crash)",
                completed=results,
            ) from exc
    return results
