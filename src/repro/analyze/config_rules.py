"""RA3xx — optimiser-config diagnostics and the static length bound.

RA305 reports the floor ``B`` of
:func:`repro.core.bounds.length_lower_bound` (iteration bound,
processor occupancy, longest task); a configured target below it is
statically infeasible (RA301) — the scheduler need never run to reject
it.
"""

from __future__ import annotations

from repro.analyze.diagnostics import Diagnostic
from repro.analyze.rules import make
from repro.arch.topology import Architecture
from repro.core.bounds import length_lower_bound
from repro.core.config import CycloConfig
from repro.graph.csdfg import CSDFG

__all__ = ["check_config", "check_target_length"]


def check_config(config: CycloConfig) -> list[Diagnostic]:
    """RA3xx findings intrinsic to the configuration itself."""
    out: list[Diagnostic] = []
    if config.max_iterations == 0:
        out.append(make(
            "RA302",
            "max_iterations = 0: compaction never runs, only the "
            "start-up schedule is produced",
        ))
    return out


def check_target_length(
    graph: CSDFG,
    arch: Architecture,
    config: CycloConfig | None,
    target_length: int | None,
) -> list[Diagnostic]:
    """RA301/RA305: prove a target infeasible, or report the bound."""
    if graph.num_nodes == 0:
        return []
    bound = length_lower_bound(graph, arch, config)
    out: list[Diagnostic] = [make(
        "RA305",
        f"every legal schedule of {graph.name!r} on {arch.name!r} has "
        f"length >= {bound} control steps",
    )]
    if target_length is not None and target_length < bound:
        out.append(make(
            "RA301",
            f"target length {target_length} is statically infeasible: "
            f"the provable lower bound is {bound} control steps",
        ))
    return out
