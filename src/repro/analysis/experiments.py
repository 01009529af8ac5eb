"""Experiment runner: one (workload, architecture, policy) cell.

This is the engine behind every reproduced table: it runs the start-up
scheduler and cyclo-compaction, validates both schedules, and returns
the paper's ``init`` / ``after`` pair plus supporting metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.graph.csdfg import CSDFG
from repro.graph.properties import iteration_bound
from repro.schedule.validate import validate_schedule

__all__ = ["ExperimentCell", "run_cell", "run_grid"]


@dataclass(frozen=True)
class ExperimentCell:
    """One table cell: a workload scheduled on one architecture.

    ``init`` and ``after`` are the paper's column pair (start-up length
    and compacted length); ``bound`` is the iteration bound of the
    (input) graph, an absolute floor for ``after``.
    """

    workload: str
    architecture: str
    relaxation: bool
    init: int
    after: int
    passes_to_best: int
    bound: Fraction

    @property
    def improvement(self) -> int:
        return self.init - self.after

    @property
    def ratio(self) -> float:
        """``after / init`` (smaller is better)."""
        return self.after / self.init if self.init else 0.0


def run_cell(
    graph: CSDFG,
    arch: Architecture,
    *,
    config: CycloConfig | None = None,
) -> tuple[ExperimentCell, CycloResult]:
    """Schedule ``graph`` on ``arch`` and summarise the outcome.

    Every knob comes from ``config`` (default :class:`CycloConfig`).
    The initial schedule is validated here, on the PE model the config
    names (``cyclo_compact`` certifies the final one itself); the
    returned :class:`~repro.core.cyclo.CycloResult` carries the full
    trace for deeper inspection.
    """
    cfg = config if config is not None else CycloConfig()
    result = cyclo_compact(graph, arch, config=cfg)
    validate_schedule(
        graph, arch, result.initial_schedule, pipelined_pes=cfg.pipelined_pes
    )
    cell = ExperimentCell(
        workload=graph.name,
        architecture=arch.name,
        relaxation=cfg.relaxation,
        init=result.initial_length,
        after=result.final_length,
        passes_to_best=result.trace.passes_to_best,
        bound=iteration_bound(graph),
    )
    return cell, result


def run_grid(
    graph: CSDFG,
    architectures: dict[str, Architecture],
    *,
    config: CycloConfig | None = None,
) -> dict[str, ExperimentCell]:
    """Run one workload across several architectures (one table row)."""
    return {
        key: run_cell(graph, arch, config=config)[0]
        for key, arch in architectures.items()
    }
