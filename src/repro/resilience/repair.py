"""Degraded-topology schedule repair.

Given a legal schedule and a set of faults, repair proceeds locally
first: the tasks stranded on failed PEs are *evacuated* and re-placed
by the communication-sensitive remapping pass
(:func:`repro.core.remapping.remap_nodes`) onto the surviving PEs of a
:class:`~repro.arch.degraded.DegradedTopology`; edges re-routed over
longer surviving paths are absorbed by padding the schedule length to
:func:`~repro.schedule.validate.minimum_feasible_length`.  When a
zero-delay dependence cannot be padded away, the evacuation set grows
(the violated consumers join it) and the round repeats — a bounded
escalation, never a loop.

The repaired schedule is re-validated with ``collect_violations`` on
the degraded machine, so a repair can never *silently* hand back an
illegal schedule.  When local repair regresses past
``max_regression`` times the pre-fault length — or escalation exhausts
its rounds — a full :func:`~repro.core.cyclo.cyclo_compact`
re-optimisation on the degraded topology takes over; if even that
cannot produce a legal schedule the caller receives a typed
:class:`~repro.errors.InfeasibleScheduleError`.  A disconnected
surviving network raises
:class:`~repro.errors.DisconnectedTopologyError` before any repair is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.arch.cache import CommCostCache
from repro.arch.comm import ContentionModel
from repro.arch.contention import LinkOccupancy
from repro.arch.degraded import DegradedTopology
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import cyclo_compact
from repro.core.remapping import remap_nodes
from repro.errors import InfeasibleScheduleError, ReproError
from repro.graph.csdfg import CSDFG, Node
from repro.obs import metrics, span
from repro.resilience.faults import Fault, FaultCampaign, LinkFault, PEFault
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import (
    collect_violations,
    minimum_feasible_length,
)

__all__ = ["RepairResult", "degrade", "repair_schedule"]


@dataclass
class RepairResult:
    """Outcome of one successful repair.

    Attributes
    ----------
    schedule:
        The repaired schedule, validated legal on ``degraded``.
    graph:
        The CSDFG ``schedule`` is legal for.  Local repair keeps the
        input graph; the full re-optimisation fallback returns the
        retimed graph :func:`~repro.core.cyclo.cyclo_compact` produced
        — callers must carry this graph forward, not the input one.
    degraded:
        The surviving topology the schedule is legal on.
    moved:
        ``node -> (pe, cb)`` for every task that changed placement.
    original_length:
        Pre-fault schedule length.
    repaired_length:
        Post-repair schedule length.
    strategy:
        ``"noop"`` (fault did not touch the schedule), ``"local"``
        (evacuate + remap), or ``"reoptimized"`` (full cyclo-compaction
        fallback).
    rounds:
        Evacuation rounds the local repair needed.
    comm:
        When repairing under a contention model, the contended
        :class:`CommCostCache` the repaired schedule was priced *and*
        validated against — the frozen occupancy snapshot the repair
        steered by, on the degraded machine, so rerouted hops carry
        the congestion surcharge of the traffic that shares the
        surviving links.  ``None`` for contention-free repairs.
    """

    schedule: ScheduleTable
    graph: CSDFG
    degraded: DegradedTopology
    moved: dict[Node, tuple[int, int]] = field(default_factory=dict)
    original_length: int = 0
    repaired_length: int = 0
    strategy: str = "local"
    rounds: int = 0
    comm: CommCostCache | None = None

    @property
    def regression(self) -> float:
        """Length regression ratio (1.0 == no regression)."""
        if self.original_length == 0:
            return 1.0
        return self.repaired_length / self.original_length


def degrade(
    arch: Architecture,
    faults: FaultCampaign | Iterable[Fault],
) -> DegradedTopology:
    """The surviving topology after every fault in ``faults``.

    Transient faults are treated as down (callers repairing mid-outage
    see the degraded machine; the simulator re-degrades on heal).
    Raises :class:`~repro.errors.DisconnectedTopologyError` when the
    survivors are split.
    """
    failed_pes = [f.pe for f in faults if isinstance(f, PEFault)]
    failed_links = [f.link for f in faults if isinstance(f, LinkFault)]
    if isinstance(arch, DegradedTopology):
        return arch.degrade(failed_pes=failed_pes, failed_links=failed_links)
    return DegradedTopology(
        arch, failed_pes=failed_pes, failed_links=failed_links
    )


def repair_schedule(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    faults: FaultCampaign | Iterable[Fault] | DegradedTopology,
    *,
    max_regression: float = 1.5,
    max_rounds: int = 4,
    pipelined_pes: bool = False,
    reoptimize_config: CycloConfig | None = None,
    contention: ContentionModel | None = None,
) -> RepairResult:
    """Repair ``schedule`` after ``faults``, or raise a typed error.

    ``faults`` may be a campaign/iterable of fault events or an
    already-built :class:`DegradedTopology`.  The result's schedule
    always passes ``collect_violations`` on the degraded machine —
    that check runs inside this function, unconditionally.

    With ``contention`` set, every legality check and remap prices
    communication through a contended cache whose link-occupancy
    snapshot is frozen from the surviving placements at the start of
    each repair round: hops rerouted around the failures are charged
    for the traffic that shares the surviving links, not the stale
    contention-free rows of the healthy machine.  The final validation
    runs under the same frozen cache the repair was priced with
    (returned as ``result.comm``) — the two-phase freeze-then-certify
    contract of ``contention_aware_schedule``.

    Raises
    ------
    DisconnectedTopologyError
        When the surviving network is split (before any repair).
    InfeasibleScheduleError
        When neither local repair nor full re-optimisation produces a
        legal schedule on the surviving machine.
    """
    if isinstance(faults, DegradedTopology):
        degraded = faults
    else:
        degraded = degrade(arch, faults)

    with span(
        "repair", workload=graph.name, arch=degraded.name
    ) as repair_span:
        result = _repair(
            graph,
            degraded,
            schedule,
            max_regression=max_regression,
            max_rounds=max_rounds,
            pipelined_pes=pipelined_pes,
            reoptimize_config=reoptimize_config,
            contention=contention,
        )
        metrics.inc("resilience.repair.calls")
        metrics.inc(f"resilience.repair.{result.strategy}")
        metrics.inc("resilience.repair.moved_nodes", len(result.moved))
        metrics.set_gauge(
            "resilience.repair.regression", round(result.regression, 4)
        )
        repair_span.add(
            strategy=result.strategy,
            moved=len(result.moved),
            length_before=result.original_length,
            length_after=result.repaired_length,
        )
    return result


def _repair(
    graph: CSDFG,
    degraded: DegradedTopology,
    schedule: ScheduleTable,
    *,
    max_regression: float,
    max_rounds: int,
    pipelined_pes: bool,
    reoptimize_config: CycloConfig | None,
    contention: ContentionModel | None = None,
) -> RepairResult:
    original_length = schedule.length
    local = _local_repair(
        graph,
        degraded,
        schedule,
        max_rounds=max_rounds,
        pipelined_pes=pipelined_pes,
        contention=contention,
    )
    if local is not None:
        local.original_length = original_length
        local.repaired_length = local.schedule.length
        if (
            original_length == 0
            or local.schedule.length <= max_regression * original_length
        ):
            return local
        # regressed past the threshold: try a full re-optimisation and
        # keep whichever schedule is shorter
        metrics.inc("resilience.repair.regression_fallbacks")

    reopt = _reoptimize(
        graph,
        degraded,
        pipelined_pes=pipelined_pes,
        config=reoptimize_config,
        contention=contention,
    )
    if reopt is None and local is None:
        raise InfeasibleScheduleError(
            f"no legal schedule for {graph.name!r} on {degraded.name!r}: "
            f"local repair failed after {max_rounds} round(s) and "
            f"re-optimisation found no legal schedule on the "
            f"{degraded.num_alive} surviving PE(s)"
        )
    if reopt is not None and (
        local is None or reopt[0].length < local.schedule.length
    ):
        reopt_schedule, reopt_graph, reopt_comm = reopt
        moved = {
            node: (
                reopt_schedule.placement(node).pe,
                reopt_schedule.placement(node).start,
            )
            for node in reopt_schedule.nodes()
            if node not in schedule
            or schedule.placement(node).pe
            != reopt_schedule.placement(node).pe
            or schedule.placement(node).start
            != reopt_schedule.placement(node).start
        }
        return RepairResult(
            schedule=reopt_schedule,
            graph=reopt_graph,
            degraded=degraded,
            moved=moved,
            original_length=original_length,
            repaired_length=reopt_schedule.length,
            strategy="reoptimized",
            comm=reopt_comm,
        )
    assert local is not None
    return local


def _contended_cache(
    graph: CSDFG,
    degraded: DegradedTopology,
    schedule: ScheduleTable,
    contention: ContentionModel | None,
) -> CommCostCache | None:
    """Contended pricing frozen from the schedule's current placements.

    Only survivors count: nodes stranded on dead PEs (or not placed at
    all) contribute no occupancy — their traffic is exactly what the
    repair is about to move.  ``None`` when repairing contention-free.
    """
    if contention is None:
        return None
    assignment = {}
    for node in schedule.nodes():
        pe = schedule.placement(node).pe
        if pe < degraded.num_pes and degraded.is_alive(pe):
            assignment[node] = pe
    occupancy = LinkOccupancy.from_assignment(graph, degraded, assignment)
    return CommCostCache.for_graph(
        degraded, graph, contention=contention, occupancy=occupancy
    )


def _local_repair(
    graph: CSDFG,
    degraded: DegradedTopology,
    schedule: ScheduleTable,
    *,
    max_rounds: int,
    pipelined_pes: bool,
    contention: ContentionModel | None = None,
) -> RepairResult | None:
    """Evacuate-and-remap repair; ``None`` when escalation gives up."""
    repaired = schedule.copy(name=f"{schedule.name}:repaired")
    stranded: set[Node] = {
        node
        for node in repaired.nodes()
        if repaired.placement(node).pe >= degraded.num_pes
        or not degraded.is_alive(repaired.placement(node).pe)
    }
    comm = _contended_cache(graph, degraded, repaired, contention)
    broken = _violated_edges(
        graph, degraded, repaired, pipelined_pes=pipelined_pes, comm=comm
    )
    # zero-delay edges broken by re-routing cannot be padded away: their
    # consumers must move too; delayed edges pad via the implied length
    evacuate = stranded | {e.dst for e in broken if e.delay == 0}
    if not evacuate and not broken:
        # the fault missed this schedule entirely (e.g. an unused link)
        if collect_violations(
            graph, degraded, repaired, pipelined_pes=pipelined_pes, comm=comm
        ):  # pragma: no cover - defensive, _violated_edges covers edges
            return None
        return RepairResult(
            schedule=repaired,
            graph=graph,
            degraded=degraded,
            strategy="noop",
            comm=comm,
        )

    moved: dict[Node, tuple[int, int]] = {}
    for round_index in range(1, max_rounds + 1):
        for node in evacuate:
            if node in repaired:
                repaired.remove(node)
        # price the remap against the survivors' occupancy: the
        # evacuees are unplaced, so their traffic no longer pins the
        # links it used before the fault
        comm = _contended_cache(graph, degraded, repaired, contention)
        outcome = remap_nodes(
            graph,
            degraded,
            repaired,
            sorted(evacuate, key=str),
            previous_length=max(repaired.length, 1),
            relaxation=True,
            pipelined_pes=pipelined_pes,
            comm=comm,
        )
        if not outcome.accepted:
            # some evacuated node has no admissible slot against its
            # still-placed zero-delay neighbours: evacuate those too
            grown = _grow_evacuation(graph, repaired, evacuate)
            if grown == evacuate:
                metrics.inc("resilience.repair.local_failures")
                return None
            evacuate = grown
            continue
        moved.update(outcome.placements)

        # legality is certified under the same frozen snapshot the
        # remap was priced with (the two-phase contract): re-freezing
        # from the post-remap placements could demand a schedule that
        # accommodates congestion it was never charged for, which is
        # unsatisfiable when a zero-delay edge crosses a link the
        # repair itself loaded
        bad_edges = _violated_edges(
            graph, degraded, repaired, pipelined_pes=pipelined_pes, comm=comm
        )
        if bad_edges:
            # delayed-edge violations pad away; zero-delay ones cannot
            feasible_length = minimum_feasible_length(
                graph, degraded, repaired, pipelined_pes=pipelined_pes,
                comm=comm,
            )
            if feasible_length is not None:
                repaired.set_length(max(feasible_length, repaired.length))
                bad_edges = _violated_edges(
                    graph, degraded, repaired, pipelined_pes=pipelined_pes,
                    comm=comm,
                )
        if bad_edges:
            evacuate = evacuate | {e.dst for e in bad_edges}
            continue

        violations = collect_violations(
            graph, degraded, repaired, pipelined_pes=pipelined_pes, comm=comm
        )
        if violations:
            metrics.inc("resilience.repair.local_failures")
            return None
        return RepairResult(
            schedule=repaired,
            graph=graph,
            degraded=degraded,
            moved=moved,
            strategy="local",
            rounds=round_index,
            comm=comm,
        )
    metrics.inc("resilience.repair.local_failures")
    return None


def _grow_evacuation(
    graph: CSDFG, schedule: ScheduleTable, evacuate: set[Node]
) -> set[Node]:
    """Evacuation set plus the placed zero-delay neighbours of its
    members (the constraints that pinned the failed remap)."""
    grown = set(evacuate)
    for node in evacuate:
        for e in graph.out_edges(node):
            if e.delay == 0 and e.dst in schedule:
                grown.add(e.dst)
        for e in graph.in_edges(node):
            if e.delay == 0 and e.src in schedule:
                grown.add(e.src)
    return grown


def _violated_edges(
    graph: CSDFG,
    degraded: DegradedTopology,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: CommCostCache | None = None,
) -> list:
    """Edges whose dependence inequality fails on ``degraded`` (both
    endpoints placed on alive PEs; others are someone else's problem).
    ``comm`` overrides the pricing (contended repair rounds pass the
    re-frozen cache; the default is the contention-free cost)."""
    del pipelined_pes  # the dependence rule is identical for pipelined PEs
    cost = comm.cost if comm is not None else degraded.comm_cost
    bad = []
    L = schedule.length
    for edge in graph.edges():
        if edge.src not in schedule or edge.dst not in schedule:
            continue
        pu = schedule.placement(edge.src)
        pv = schedule.placement(edge.dst)
        if not (
            pu.pe < degraded.num_pes
            and pv.pe < degraded.num_pes
            and degraded.is_alive(pu.pe)
            and degraded.is_alive(pv.pe)
        ):
            continue
        M = cost(pu.pe, pv.pe, edge.volume)
        if pv.start + edge.delay * L < pu.finish + M + 1:
            bad.append(edge)
    return bad


def _reoptimize(
    graph: CSDFG,
    degraded: DegradedTopology,
    *,
    pipelined_pes: bool,
    config: CycloConfig | None,
    contention: ContentionModel | None = None,
) -> tuple[ScheduleTable, CSDFG, CommCostCache | None] | None:
    """From-scratch cyclo-compaction on the surviving machine as
    ``(schedule, matching retimed graph, contended cache)``, or
    ``None`` when it cannot produce a legal schedule.

    Under contention this is the two-phase flow in miniature: a blind
    compaction seeds a frozen occupancy snapshot and a second
    compaction runs under the surcharged cache.  Either compaction
    certifies what it returns under the prices it ran with, so an
    illegal result surfaces as its :class:`ReproError`."""
    cfg = config if config is not None else CycloConfig(
        pipelined_pes=pipelined_pes
    )
    try:
        result = cyclo_compact(graph, degraded, config=cfg)
    except ReproError:
        metrics.inc("resilience.repair.reoptimize_failures")
        return None
    comm = _contended_cache(
        result.graph, degraded, result.schedule, contention
    )
    if comm is not None:
        # two-phase: freeze the blind run's occupancy, then compact
        # again under the surcharged prices
        try:
            result = cyclo_compact(graph, degraded, config=cfg, comm=comm)
        except ReproError:
            metrics.inc("resilience.repair.reoptimize_failures")
            return None
    return result.schedule, result.graph, comm
