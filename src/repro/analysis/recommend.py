"""Architecture recommendation for a workload (extension).

Answers the system designer's question the paper's evaluation implies:
*given this loop, which interconnect do I build?*  Runs
cyclo-compaction over a candidate set and ranks by schedule length
first, then by hardware cost (link count — a proxy for wiring/area),
then by realized single-channel congestion (from
:mod:`repro.sim.contention`), so a cheaper topology wins ties against
the completely connected machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.arch.registry import paper_architectures
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import cyclo_compact
from repro.graph.csdfg import CSDFG
from repro.sim.contention import simulate_contended

__all__ = ["ArchitectureScore", "recommend_architecture"]


@dataclass(frozen=True)
class ArchitectureScore:
    """One candidate's evaluation.

    Sort key: (schedule length, link count, queueing) ascending.
    """

    key: str
    name: str
    length: int
    links: int
    queueing: int

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.length, self.links, self.queueing)


def recommend_architecture(
    graph: CSDFG,
    candidates: Mapping[str, Architecture] | None = None,
    *,
    config: CycloConfig | None = None,
    contention_iterations: int = 4,
) -> list[ArchitectureScore]:
    """Rank candidate architectures for ``graph``; best first.

    ``candidates`` defaults to the paper's five 8-PE architectures.
    """
    if candidates is None:
        candidates = paper_architectures(8)
    cfg = config if config is not None else CycloConfig(max_iterations=40)
    scores: list[ArchitectureScore] = []
    for key, arch in candidates.items():
        result = cyclo_compact(graph, arch, config=cfg)
        report = simulate_contended(
            result.graph, arch, result.schedule, iterations=contention_iterations
        )
        scores.append(
            ArchitectureScore(
                key=key,
                name=arch.name,
                length=result.final_length,
                links=len(arch.links),
                queueing=report.total_queueing,
            )
        )
    scores.sort(key=lambda s: (s.sort_key, s.key))
    return scores
