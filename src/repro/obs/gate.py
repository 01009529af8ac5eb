"""The CI perf-regression gate: a fixed workload matrix into history.

``repro obs matrix`` replays a small, pinned (workload, architecture)
matrix through the optimiser with full instrumentation, appends one
provenance-stamped ``gate`` record per cell to the run-history store,
and optionally writes flamegraph-collapsed stacks per cell.  CI runs
the matrix on every build and then ``repro obs regressions`` against
the accumulated history — a build whose latest runs exceed the fitted
baseline by the threshold fails.

The matrix is deliberately tiny (seconds, not minutes): the point is a
stable *relative* signal across builds of the same config hash, not an
absolute benchmark.

**Test hook**: when the environment variable named by
:data:`GATE_SLEEP_ENV` is set to a positive float, every cell sleeps
that many seconds inside its timed window — a synthetic, deterministic
slowdown that lets the regression detector be exercised end-to-end
without depending on machine noise.  The hook is read per run and does
nothing when unset; production CI never sets it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.aggregate import phase_totals
from repro.obs.collapse import collapsed_stacks
from repro.obs.history import HistoryStore, RunRecord
from repro.obs.metrics import REGISTRY
from repro.obs import metrics as metrics_mod
from repro.obs.runtime import sink_installed
from repro.obs.sinks import InMemorySink

__all__ = ["GATE_MATRIX", "GATE_SLEEP_ENV", "run_gate_matrix"]

#: The pinned gate cells: (workload, architecture kind, PEs, passes).
#: Chosen to cover a dense and a sparse topology plus two graph shapes
#: while keeping one full matrix run comfortably under a few seconds.
GATE_MATRIX: tuple[tuple[str, str, int, int], ...] = (
    ("figure7", "hypercube", 8, 20),
    ("figure7", "mesh", 8, 20),
    ("lattice4", "ring", 4, 20),
)

#: Environment variable carrying the synthetic-slowdown test hook.
GATE_SLEEP_ENV = "REPRO_OBS_GATE_SLEEP"


def _sleep_hook_seconds() -> float:
    raw = os.environ.get(GATE_SLEEP_ENV)
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def run_gate_matrix(
    history_dir: str | Path,
    *,
    matrix: Sequence[tuple[str, str, int, int]] = GATE_MATRIX,
    collapsed_dir: str | Path | None = None,
    clock: Callable[[], float] = time.time,
) -> list[RunRecord]:
    """Run every matrix cell once; append one ``gate`` record each.

    Returns the appended records (in matrix order).  When
    ``collapsed_dir`` is given, a ``<workload>-<kind><pes>.collapsed``
    flamegraph-collapsed stack file is written per cell.
    """
    from repro.arch import make_architecture
    from repro.core import CycloConfig, cyclo_compact
    from repro.workloads import make_workload

    store = HistoryStore(history_dir, clock=clock)
    records: list[RunRecord] = []
    for workload, kind, pes, passes in matrix:
        graph = make_workload(workload)
        arch = make_architecture(kind, pes)
        cfg = CycloConfig(max_iterations=passes)
        sink = InMemorySink()
        metrics_mod.reset()
        with sink_installed(sink):
            started = time.perf_counter()
            result = cyclo_compact(graph, arch, config=cfg)
            sleep = _sleep_hook_seconds()
            if sleep:
                time.sleep(sleep)
            duration = time.perf_counter() - started
        counters = REGISTRY.snapshot()["counters"]
        rec = store.record(
            "gate",
            workload=workload,
            arch=f"{kind}{pes}",
            config=cfg.to_dict(),
            duration_seconds=duration,
            phases=phase_totals(sink.events),
            counters=counters,
            attrs={
                "initial_length": result.initial_length,
                "final_length": result.final_length,
                "stop_reason": result.stop_reason,
            },
        )
        records.append(rec)
        if collapsed_dir is not None:
            target = Path(collapsed_dir)
            target.mkdir(parents=True, exist_ok=True)
            path = target / f"{workload}-{kind}{pes}.collapsed"
            path.write_text(
                "\n".join(collapsed_stacks(sink.events)) + "\n",
                encoding="utf-8",
            )
    metrics_mod.reset()
    return records
