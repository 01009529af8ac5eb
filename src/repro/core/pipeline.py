"""High-level optimisation driver: cyclo-compaction + refinement rounds.

:func:`optimize` alternates the paper's cyclo-compaction with the
post-pass local search of :mod:`repro.core.refine` until neither makes
progress.  Each refinement can unstick the rotation from a local
minimum (it may move *any* task, not just the first row), after which
another compaction round often finds further rotations — on the
bundled 19-node workload this closes the remaining gap to the paper's
published lengths on the linear array.

This is the recommended one-call entry point for users who just want
the shortest schedule; ``cyclo_compact`` remains the paper-faithful
single-phase algorithm used by the reproduction benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cache import CommCostCache
from repro.arch.comm import ContentionModel
from repro.arch.contention import ContendedCostReport, contended_cost
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.core.refine import refine_schedule
from repro.errors import SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.retiming.basic import compose_retimings
from repro.schedule.table import ScheduleTable

__all__ = [
    "OptimizeResult",
    "optimize",
    "ContentionResult",
    "contention_aware_schedule",
]


@dataclass
class OptimizeResult:
    """Outcome of :func:`optimize`.

    Attributes
    ----------
    schedule, graph, retiming:
        Best schedule found, the matching retimed graph, and the
        cumulative retiming from the input graph.
    initial_length:
        The very first start-up schedule's length.
    round_lengths:
        Best length after each (compaction + refinement) round.
    """

    schedule: ScheduleTable
    graph: CSDFG
    retiming: dict[Node, int]
    initial_length: int
    round_lengths: list[int] = field(default_factory=list)

    @property
    def final_length(self) -> int:
        return self.schedule.length


def optimize(
    graph: CSDFG,
    arch: Architecture,
    *,
    config: CycloConfig | None = None,
    max_rounds: int = 4,
) -> OptimizeResult:
    """Alternate cyclo-compaction and refinement until a fixpoint.

    The input graph is never mutated.  ``config`` parametrises every
    compaction round (its ``pipelined_pes`` flag also drives the
    refiner).
    """
    cfg = config if config is not None else CycloConfig()

    result = cyclo_compact(graph, arch, config=cfg)
    best_schedule = result.schedule
    best_graph = result.graph
    cumulative = dict(result.retiming)
    initial_length = result.initial_length
    round_lengths = [best_schedule.length]

    for _ in range(max_rounds):
        improved = False

        refined = refine_schedule(
            best_graph,
            arch,
            best_schedule,
            pipelined_pes=cfg.pipelined_pes,
        )
        if refined.final_length <= best_schedule.length:
            # equal lengths still help: the moved placements give the
            # next compaction round a different first row to rotate
            moved = refined.moves > 0
            if refined.final_length < best_schedule.length:
                improved = True
            best_schedule = refined.schedule
            if not (improved or moved):
                break

        again = cyclo_compact(
            best_graph, arch, config=cfg, initial=best_schedule
        )
        if again.final_length < best_schedule.length:
            improved = True
            best_schedule = again.schedule
            best_graph = again.graph
            cumulative = compose_retimings(cumulative, again.retiming)
        round_lengths.append(best_schedule.length)
        if not improved:
            break

    return OptimizeResult(
        schedule=best_schedule,
        graph=best_graph,
        retiming=cumulative,
        initial_length=initial_length,
        round_lengths=round_lengths,
    )


@dataclass
class ContentionResult:
    """Outcome of :func:`contention_aware_schedule`.

    Attributes
    ----------
    schedule, graph, retiming:
        The winning schedule (lowest contended communication bill),
        its retimed graph and the cumulative retiming.
    comm:
        The frozen-occupancy :class:`CommCostCache` the winner was
        scheduled and validated under (``None`` when the
        contention-blind baseline won: it was priced contention-free).
    model:
        The contention model all candidates were evaluated with.
    blind, aware:
        The contention-blind baseline run and the winning
        contention-aware run (``None`` if no aware round improved).
    blind_report, final_report:
        Contended re-pricing of the baseline and of the winner (see
        :func:`repro.arch.contention.contended_cost`); the pipeline
        minimises ``contended_cost`` and never returns a schedule with
        a higher bill than the baseline.
    round_costs:
        Contended communication bill after the baseline and after each
        aware round, in order.
    """

    schedule: ScheduleTable
    graph: CSDFG
    retiming: dict[Node, int]
    comm: CommCostCache | None
    model: ContentionModel
    blind: CycloResult
    aware: CycloResult | None
    blind_report: ContendedCostReport
    final_report: ContendedCostReport
    round_costs: list[int] = field(default_factory=list)

    @property
    def initial_length(self) -> int:
        return self.blind.initial_length

    @property
    def final_length(self) -> int:
        return self.schedule.length

    @property
    def stop_reason(self) -> str:
        """Why the winning run's compaction loop ended."""
        return (self.blind if self.aware is None else self.aware).stop_reason

    @property
    def blind_cost(self) -> int:
        """Contended bill of the contention-blind baseline."""
        return self.blind_report.contended_cost

    @property
    def final_cost(self) -> int:
        """Contended bill of the returned schedule."""
        return self.final_report.contended_cost


def contention_aware_schedule(
    graph: CSDFG,
    arch: Architecture,
    *,
    config: CycloConfig | None = None,
) -> ContentionResult:
    """Two-phase contention-sensitive scheduling.

    Phase one runs the paper's contention-blind cyclo-compaction.
    Phase two freezes the resulting assignment's link occupancy
    (:class:`~repro.arch.contention.LinkOccupancy`), rebuilds the comm
    cache with the surcharged prices and re-runs compaction under them
    — transfers routed through congested links now look expensive, so
    the remapper is steered away from the hotspots it created.  The
    reprice-and-reschedule step repeats up to
    ``config.contention_rounds`` times (the occupancy snapshot
    refreshed from the latest schedule each round, stopping early at an
    occupancy fixpoint), and the schedule with the lowest *contended*
    communication bill wins; the blind baseline competes too, so the
    result is never worse than ignoring contention.

    The model is ``config.resolve_contention()`` and must not be
    ``None``.  Every candidate is scheduled against a frozen price
    snapshot, so within each run the engine's legality guarantees hold
    verbatim — the winner is validator-legal under the returned
    ``comm`` cache.
    """
    cfg = config if config is not None else CycloConfig()
    model = cfg.resolve_contention()
    if model is None:
        raise SchedulingError(
            "contention_aware_schedule needs a contention model: set "
            "config.contention_model"
        )

    blind = cyclo_compact(graph, arch, config=cfg)
    blind_report = contended_cost(
        blind.graph, arch, blind.schedule.processor_map(), model
    )

    best_cost = blind_report.contended_cost
    best_report = blind_report
    best_run: CycloResult = blind
    best_comm: CommCostCache | None = None
    best_aware: CycloResult | None = None
    round_costs = [blind_report.contended_cost]

    # each round is priced against the occupancy the previous report
    # was billed on: the placements of the round before it
    prev_report = blind_report
    for _ in range(cfg.contention_rounds):
        comm = CommCostCache.for_graph(  # repro-lint: disable=RC203 (deliberate per-round reprice of the contention fixpoint)
            arch, graph, contention=model, occupancy=prev_report.occupancy
        )
        aware = cyclo_compact(graph, arch, config=cfg, comm=comm)
        report = contended_cost(
            aware.graph, arch, aware.schedule.processor_map(), model
        )
        round_costs.append(report.contended_cost)
        # primary objective: the contended communication bill; equal
        # bills fall back to the paper's objective, schedule length
        if (report.contended_cost, aware.schedule.length) < (
            best_cost,
            best_run.schedule.length,
        ):
            best_cost = report.contended_cost
            best_report = report
            best_run = aware
            best_comm = comm
            best_aware = aware
        if report.loads == prev_report.loads:
            break  # repricing fixpoint: the next round would repeat
        prev_report = report

    return ContentionResult(
        schedule=best_run.schedule,
        graph=best_run.graph,
        retiming=dict(best_run.retiming),
        comm=best_comm,
        model=model,
        blind=blind,
        aware=best_aware,
        blind_report=blind_report,
        final_report=best_report,
        round_costs=round_costs,
    )
