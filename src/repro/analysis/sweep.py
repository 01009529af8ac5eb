"""Parameter sweeps: processor count, data volume, slowdown factor.

Reusable sweep drivers behind the scaling figures of the examples and
benchmarks: each sweep point runs full cyclo-compaction and records the
(init, after, bound) triple, so saturation effects (more PEs stop
helping once the iteration bound or the communication costs bind) are
directly visible.

Every sweep accepts ``jobs``: with ``jobs > 1`` the points run on a
process pool via :func:`repro.perf.parallel.run_parallel` — each point
is an independent full optimiser run determined only by its inputs, so
the parallel results are identical to the serial ones, in the same
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.analysis.experiments import run_cell
from repro.arch.comm import CommModel
from repro.arch.registry import make_architecture
from repro.core.config import CycloConfig
from repro.graph.csdfg import CSDFG
from repro.graph.transform import scale_volumes, slowdown
from repro.perf.parallel import run_parallel

__all__ = ["SweepPoint", "pe_count_sweep", "volume_sweep", "slowdown_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample.

    ``x`` is the swept parameter value (PE count, volume factor, or
    slowdown factor).
    """

    x: int
    init: int
    after: int
    bound: Fraction

    @property
    def improvement(self) -> int:
        return self.init - self.after


def _default_config() -> CycloConfig:
    return CycloConfig(max_iterations=40)


def _pe_point(params: tuple) -> SweepPoint:
    graph, arch_kind, count, comm_model, cfg = params
    arch = make_architecture(arch_kind, count, comm_model=comm_model)
    cell, _ = run_cell(graph, arch, config=cfg)
    return SweepPoint(x=count, init=cell.init, after=cell.after, bound=cell.bound)


def _volume_point(params: tuple) -> SweepPoint:
    graph, arch_kind, num_pes, factor, cfg = params
    arch = make_architecture(arch_kind, num_pes)
    g = scale_volumes(graph, factor) if factor > 1 else graph
    cell, _ = run_cell(g, arch, config=cfg)
    return SweepPoint(x=factor, init=cell.init, after=cell.after, bound=cell.bound)


def _slowdown_point(params: tuple) -> SweepPoint:
    graph, arch_kind, num_pes, factor, cfg = params
    arch = make_architecture(arch_kind, num_pes)
    g = slowdown(graph, factor) if factor > 1 else graph
    cell, _ = run_cell(g, arch, config=cfg)
    return SweepPoint(x=factor, init=cell.init, after=cell.after, bound=cell.bound)


def pe_count_sweep(
    graph: CSDFG,
    arch_kind: str,
    pe_counts: Sequence[int],
    *,
    comm_model: CommModel | None = None,
    config: CycloConfig | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Sweep the processor count of one architecture family."""
    cfg = config if config is not None else _default_config()
    return run_parallel(
        _pe_point,
        [(graph, arch_kind, count, comm_model, cfg) for count in pe_counts],
        jobs=jobs,
    )


def volume_sweep(
    graph: CSDFG,
    arch_kind: str,
    num_pes: int,
    factors: Sequence[int],
    *,
    config: CycloConfig | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Sweep the communication data-volume scale.

    Larger volumes raise store-and-forward costs, pushing the optimum
    toward fewer, more local processors — schedule lengths are
    non-decreasing in the factor (checked by the tests in aggregate).
    """
    cfg = config if config is not None else _default_config()
    return run_parallel(
        _volume_point,
        [(graph, arch_kind, num_pes, factor, cfg) for factor in factors],
        jobs=jobs,
    )


def slowdown_sweep(
    graph: CSDFG,
    arch_kind: str,
    num_pes: int,
    factors: Sequence[int],
    *,
    config: CycloConfig | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Sweep the slow-down factor (the paper's Table 11 transform).

    Slowdown divides the iteration bound by the factor, giving the
    retimer more freedom; compacted lengths typically shrink until the
    resource/communication floor binds.
    """
    cfg = config if config is not None else _default_config()
    return run_parallel(
        _slowdown_point,
        [(graph, arch_kind, num_pes, factor, cfg) for factor in factors],
        jobs=jobs,
    )
