"""Unfolding-based scheduling study (extension).

The iteration bound is generally *fractional* (``max cycle t/d``);
a static schedule of one loop body can only achieve integer lengths.
Unfolding the loop by ``f`` schedules ``f`` consecutive iterations as
one body, so the effective per-iteration initiation interval becomes
``L_f / f`` and can approach the fractional bound — the classical
companion result to retiming (Parhi & Messerschmitt).  This module runs
cyclo-compaction on unfolded bodies and reports the effective rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import cyclo_compact
from repro.graph.csdfg import CSDFG
from repro.graph.properties import iteration_bound
from repro.graph.transform import unfold

__all__ = ["UnfoldingPoint", "unfolding_study"]


@dataclass(frozen=True)
class UnfoldingPoint:
    """Result of scheduling one unfolding factor.

    Attributes
    ----------
    factor:
        Unfolding factor ``f``.
    length:
        Schedule length of the unfolded body (covers ``f`` iterations).
    effective:
        Per-original-iteration initiation interval ``length / f``.
    bound:
        The graph's fractional iteration bound (the floor for
        ``effective`` at any factor).
    """

    factor: int
    length: int
    effective: Fraction
    bound: Fraction


def unfolding_study(
    graph: CSDFG,
    arch: Architecture,
    factors: tuple[int, ...] = (1, 2, 3),
    *,
    config: CycloConfig | None = None,
) -> list[UnfoldingPoint]:
    """Schedule ``graph`` unfolded by each factor and report rates.

    Every point satisfies ``effective >= bound``; on architectures with
    cheap communication, larger factors typically close the gap to the
    fractional bound.
    """
    bound = iteration_bound(graph)
    cfg = config if config is not None else CycloConfig(max_iterations=40)
    points: list[UnfoldingPoint] = []
    for factor in factors:
        body = graph if factor == 1 else unfold(graph, factor)
        result = cyclo_compact(body, arch, config=cfg)
        points.append(
            UnfoldingPoint(
                factor=factor,
                length=result.final_length,
                effective=Fraction(result.final_length, factor),
                bound=bound,
            )
        )
    return points
