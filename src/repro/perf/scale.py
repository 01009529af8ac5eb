"""The thousand-node benchmark tier (``repro scale``).

The speedup benchmark pins small-graph latency; this tier pins
*scaling*: seeded exact-size instances of the :mod:`repro.qa`
structural families (1k–10k nodes, byte-stable per ``(family, size,
seed)``) pushed through full cyclo-compaction on 16–64-PE machines,
with every cell profiled through :mod:`repro.obs` and recorded as a
``scale`` run in the history store.  The headline figure per cell is
**nodes per second** — graph nodes divided by the wall-clock of the
whole compaction run (start-up schedule included) — so future engine
changes are judged on how they scale, not just on small-graph latency.

Cells are independent, so :func:`run_scale_matrix` shards them across
:func:`repro.perf.run_parallel` workers; measurements are taken inside
the worker, history is written by the parent (the history store is a
single-writer design).  ``quick=True`` trims to the first cell plus
the contended Cayley cell — the CI ``scale-smoke`` job's mode.

The per-cell pass budgets are part of the matrix: large cells run
fewer passes so one full matrix stays in tens of seconds, and
nodes-per-second stays comparable across history because the budget is
pinned per cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.aggregate import phase_totals
from repro.obs.history import HistoryStore, RunRecord
from repro.obs.metrics import REGISTRY
from repro.obs import metrics as metrics_mod
from repro.obs.runtime import sink_installed
from repro.obs.sinks import InMemorySink
from repro.perf.parallel import run_parallel

__all__ = [
    "SCALE_MATRIX",
    "ScaleCell",
    "cache_hit_rate",
    "run_scale_cell",
    "run_scale_matrix",
]


@dataclass(frozen=True)
class ScaleCell:
    """One scale-tier measurement: an exact-size family instance on a
    fixed machine with a pinned pass budget.

    ``contention`` > 0 switches the cell to the two-phase
    contention-aware pipeline (serialised-link model at that weight,
    one reprice round), so the tier also pins the cost of occupancy-
    surcharged comm-cache rows at the thousand-node scale.
    """

    family: str
    size: int
    arch_kind: str
    num_pes: int
    passes: int
    seed: int = 11
    contention: int = 0

    @property
    def label(self) -> str:
        suffix = f"+c{self.contention}" if self.contention else ""
        return (
            f"{self.family}-{self.size}"
            f"@{self.arch_kind}{self.num_pes}{suffix}"
        )


#: The pinned scale cells: four structural families, four sizes
#: (1k/2k/5k/10k nodes), six topology kinds, one wide (64-PE)
#: machine where the remap slot search scans many candidate PEs,
#: plus one contended Cayley cell (circulant machine, serialised
#: links) that runs the two-phase pipeline.  Pass budgets keep one
#: full matrix under ~10 s while every cell still accepts multiple
#: compaction passes.
SCALE_MATRIX: tuple[ScaleCell, ...] = (
    ScaleCell("layered", 1000, "mesh", 16, 40),
    ScaleCell("fork-join", 2000, "hypercube", 16, 12),
    ScaleCell("ring", 5000, "torus", 16, 10),
    ScaleCell("chain", 10000, "ring", 16, 6),
    ScaleCell("layered", 1000, "complete", 64, 25),
    ScaleCell("layered", 1000, "circulant", 16, 12, contention=2),
)


def run_scale_cell(cell: ScaleCell) -> dict:
    """Measure one cell with full instrumentation (worker side).

    Returns a plain dict (picklable): timings, lengths, per-phase
    second totals and the metrics counters of the run — everything the
    parent needs to write history and the benchmark report.
    """
    from repro.arch import make_architecture
    from repro.core import CycloConfig, contention_aware_schedule, cyclo_compact
    from repro.qa import sample_sized_graph

    graph = sample_sized_graph(cell.family, cell.size, seed=cell.seed)
    arch = make_architecture(cell.arch_kind, cell.num_pes)
    cfg = CycloConfig(
        max_iterations=cell.passes,
        validate_each_step=False,
        contention_model="serialized" if cell.contention else None,
        contention_weight=cell.contention if cell.contention else 1,
        contention_rounds=1,
    )
    sink = InMemorySink()
    metrics_mod.reset()
    extra: dict = {}
    with sink_installed(sink):
        started = time.perf_counter()
        if cell.contention:
            contended = contention_aware_schedule(graph, arch, config=cfg)
            result = contended.blind if contended.comm is None else contended.aware
            extra = {
                "contention": cell.contention,
                "blind_cost": contended.blind_cost,
                "final_cost": contended.final_cost,
            }
        else:
            result = cyclo_compact(graph, arch, config=cfg)
        duration = time.perf_counter() - started
    counters = REGISTRY.snapshot()["counters"]
    metrics_mod.reset()
    return {
        "family": cell.family,
        "size": cell.size,
        "arch": f"{cell.arch_kind}{cell.num_pes}",
        "workload": graph.name,
        "passes": cell.passes,
        "seed": cell.seed,
        "config": cfg.to_dict(),
        "duration_seconds": duration,
        "nodes_per_second": cell.size / duration if duration > 0 else 0.0,
        "initial_length": result.initial_length,
        "final_length": result.final_length,
        "stop_reason": result.stop_reason,
        "phases": phase_totals(sink.events),
        "counters": counters,
        **extra,
    }


def cache_hit_rate(counters: dict) -> float:
    """Warm comm-cost hit rate of a cell from its published tallies
    (``arch.cache.hits`` / ``arch.cache.misses``; 0.0 when the cell
    recorded no lookups)."""
    hits = counters.get("arch.cache.hits", 0)
    misses = counters.get("arch.cache.misses", 0)
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def run_scale_matrix(
    history_dir: str | Path | None = None,
    *,
    matrix: Sequence[ScaleCell] = SCALE_MATRIX,
    quick: bool = False,
    jobs: int = 1,
    clock: Callable[[], float] = time.time,
) -> tuple[list[dict], list[RunRecord]]:
    """Run the scale tier; optionally append ``scale`` history records.

    Returns ``(rows, records)`` in matrix order — ``rows`` are the
    per-cell measurement dicts from :func:`run_scale_cell`, ``records``
    the appended history records (empty when ``history_dir`` is None).
    ``quick=True`` keeps the first cell plus every contended cell (CI
    smoke mode: one blind baseline and one contention-aware pipeline
    run); ``jobs`` shards cells across worker processes without
    changing any measured cell (each worker times only its own cell).
    """
    if quick:
        cells = list(matrix[:1]) + [c for c in matrix[1:] if c.contention]
    else:
        cells = list(matrix)
    rows = run_parallel(run_scale_cell, cells, jobs=jobs)
    records: list[RunRecord] = []
    if history_dir is not None:
        store = HistoryStore(history_dir, clock=clock)
        for row in rows:
            records.append(
                store.record(
                    "scale",
                    workload=row["workload"],
                    arch=row["arch"],
                    config=row["config"],
                    duration_seconds=row["duration_seconds"],
                    phases=row["phases"],
                    counters=row["counters"],
                    attrs={
                        "family": row["family"],
                        "size": row["size"],
                        "passes": row["passes"],
                        "nodes_per_second": round(
                            row["nodes_per_second"], 3
                        ),
                        "initial_length": row["initial_length"],
                        "final_length": row["final_length"],
                        "stop_reason": row["stop_reason"],
                        "cache_hit_rate": round(
                            cache_hit_rate(row["counters"]), 6
                        ),
                    },
                )
            )
    return rows, records
