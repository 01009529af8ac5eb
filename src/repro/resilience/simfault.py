"""Fault-injecting execution of static cyclic schedules.

Executes a schedule iteration by iteration while a
:class:`~repro.resilience.faults.FaultCampaign` kills PEs and links
mid-run.  Reconfiguration is *drain-and-switch* (the standard model for
checkpointed streaming reconfiguration): a fault whose strike step
falls inside iteration ``j`` lets iteration ``j`` drain, then the
machine degrades, the schedule is repaired on the surviving topology
(:func:`~repro.resilience.repair.repair_schedule`), and iteration
``j + 1`` launches on the repaired schedule.  Transient faults heal at
``at_step + duration`` — the healed topology is rebuilt from the
remaining active faults and the current schedule (still legal: more
hardware never lengthens a route) keeps running.

The schedule is validated on entry and again after every
reconfiguration (nothing else changes it), so the execution can only
end in one of two ways — the invariant the ``faults-recover`` fuzz
property asserts:

* all requested iterations completed, each on a schedule that passed
  validation for its topology, or
* a typed error: :class:`~repro.errors.DisconnectedTopologyError`,
  :class:`~repro.errors.InfeasibleScheduleError`, or
  :class:`~repro.errors.StallDetectedError` from the progress watchdog
  (which fires when reconfigurations stop advancing the iteration
  clock).

An illegal schedule, on entry or out of a reconfiguration, raises
:class:`~repro.errors.ScheduleValidationError` instead: repair
validates its output, so that is a defect, not an ending.

Per-fault outcomes are published to the :mod:`repro.obs` metrics
registry (``resilience.sim.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.errors import (
    DisconnectedTopologyError,
    InfeasibleScheduleError,
    StallDetectedError,
)
from repro.graph.csdfg import CSDFG
from repro.obs import metrics, span
from repro.resilience.faults import Fault, FaultCampaign
from repro.resilience.repair import degrade, repair_schedule
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import validate_schedule
from repro.sim.engine import SimulationError

__all__ = ["FaultOutcome", "FaultSimulationResult", "simulate_with_faults"]


@dataclass(frozen=True)
class FaultOutcome:
    """What happened when one fault event was applied (or healed).

    ``event`` is ``"strike"`` or ``"heal"``; ``outcome`` is the repair
    strategy (``"noop"``, ``"local"``, ``"reoptimized"``, ``"healed"``)
    or the typed failure (``"disconnected"``, ``"infeasible"``).
    """

    fault: Fault
    event: str
    at_iteration: int
    outcome: str
    length_before: int
    length_after: int
    moved: int = 0
    detail: str = ""


@dataclass
class FaultSimulationResult:
    """Execution record of a faulted run.

    ``segments`` lists ``(iterations, schedule_length)`` runs between
    reconfigurations; their dot product is the makespan.
    """

    outcomes: list[FaultOutcome] = field(default_factory=list)
    segments: list[tuple[int, int]] = field(default_factory=list)
    iterations: int = 0
    requested_iterations: int = 0
    final_schedule: ScheduleTable | None = None
    final_graph: CSDFG | None = None
    final_topology: Architecture | None = None

    @property
    def makespan(self) -> int:
        return sum(n * length for n, length in self.segments)

    @property
    def reconfigurations(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome != "noop")

    def throughput(self) -> float:
        if self.makespan == 0:
            return 0.0
        return self.iterations / self.makespan

    def describe(self) -> str:
        lines = [
            f"{self.iterations}/{self.requested_iterations} iterations, "
            f"makespan {self.makespan} cs, "
            f"{self.reconfigurations} reconfiguration(s)"
        ]
        for o in self.outcomes:
            arrow = (
                f"L {o.length_before} -> {o.length_after}"
                if o.length_after
                else "no schedule"
            )
            lines.append(
                f"  [iter {o.at_iteration}] {o.fault.describe()} "
                f"({o.event}): {o.outcome}, {arrow}"
                + (f", moved {o.moved} task(s)" if o.moved else "")
            )
        return "\n".join(lines)


def simulate_with_faults(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    iterations: int,
    campaign: FaultCampaign,
    *,
    max_regression: float = 1.5,
    reoptimize_config: CycloConfig | None = None,
    pipelined_pes: bool = False,
    watchdog_limit: int | None = None,
) -> FaultSimulationResult:
    """Run ``iterations`` loop iterations under ``campaign``.

    Returns the full execution record, or raises the typed error that
    ended the run (after recording its outcome in the metrics
    registry).  ``watchdog_limit`` bounds the number of consecutive
    reconfigurations allowed without completing an iteration (default:
    ``3 * (len(campaign) + 1)``).
    """
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    if watchdog_limit is None:
        watchdog_limit = 3 * (len(campaign) + 1)

    with span(
        "simulate_faults",
        workload=graph.name,
        arch=arch.name,
        faults=len(campaign),
    ) as sim_span:
        result = _run(
            graph,
            arch,
            schedule,
            iterations,
            campaign,
            max_regression=max_regression,
            reoptimize_config=reoptimize_config,
            pipelined_pes=pipelined_pes,
            watchdog_limit=watchdog_limit,
        )
        sim_span.add(
            iterations=result.iterations,
            makespan=result.makespan,
            reconfigurations=result.reconfigurations,
        )
    return result


def _record(result: FaultSimulationResult, outcome: FaultOutcome) -> None:
    result.outcomes.append(outcome)
    metrics.inc("resilience.sim.fault_events")
    metrics.inc(f"resilience.sim.outcome.{outcome.outcome}")
    if outcome.length_before:
        metrics.set_gauge(
            "resilience.sim.last_regression",
            round(outcome.length_after / outcome.length_before, 4),
        )


def _run(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    iterations: int,
    campaign: FaultCampaign,
    *,
    max_regression: float,
    reoptimize_config: CycloConfig | None,
    pipelined_pes: bool,
    watchdog_limit: int,
) -> FaultSimulationResult:
    result = FaultSimulationResult(requested_iterations=iterations)
    current_graph = graph
    current_schedule = schedule
    current_arch: Architecture = arch

    pending: list[Fault] = campaign.ordered()
    active: list[Fault] = []  # struck and not yet healed
    heal_at: dict[Fault, int] = {}

    now = 0  # global control step clock
    completed = 0
    segment_iters = 0
    stalls = 0  # reconfigurations since the last completed iteration

    def close_segment() -> None:
        nonlocal segment_iters
        if segment_iters:
            result.segments.append((segment_iters, current_schedule.length))
            segment_iters = 0

    def check_current() -> None:
        # only a reconfiguration changes what runs, so the schedule is
        # checked on entry and after each one; repair validates its
        # output, so an illegal table here is a defect, not an
        # infeasible machine
        validate_schedule(
            current_graph,
            current_arch,
            current_schedule,
            pipelined_pes=pipelined_pes,
        )

    check_current()
    while completed < iterations:
        # 1. apply every fault event due by `now` ----------------------
        due = [f for f in pending if f.at_step <= now] or (
            # time between events is quantised to iteration boundaries;
            # if nothing is due yet but the next iteration would cross a
            # strike step, the fault lands at this boundary (drain model)
            [
                f
                for f in pending
                if f.at_step <= now + current_schedule.length
            ]
            if pending
            else []
        )
        heals = [f for f in active if f in heal_at and heal_at[f] <= now]
        if due or heals:
            stalls += 1
            if stalls > watchdog_limit:
                metrics.inc("resilience.sim.watchdog_fires")
                raise StallDetectedError(
                    f"no forward progress after {stalls} reconfiguration(s) "
                    f"at iteration {completed} (watchdog limit "
                    f"{watchdog_limit})"
                )
        for fault in heals:
            active.remove(fault)
            heal_at.pop(fault, None)
        for fault in due:
            pending.remove(fault)
            active.append(fault)
            if not fault.permanent:
                heal_at[fault] = fault.at_step + fault.duration

        if due or heals:
            close_segment()
            length_before = current_schedule.length
            try:
                degraded = degrade(arch, active)
            except DisconnectedTopologyError as exc:
                for fault in due:
                    _record(result, FaultOutcome(
                        fault=fault,
                        event="strike",
                        at_iteration=completed,
                        outcome="disconnected",
                        length_before=length_before,
                        length_after=0,
                        detail=str(exc),
                    ))
                raise
            try:
                repair = repair_schedule(
                    current_graph,
                    arch,
                    current_schedule,
                    degraded,
                    max_regression=max_regression,
                    pipelined_pes=pipelined_pes,
                    reoptimize_config=reoptimize_config,
                )
            except InfeasibleScheduleError as exc:
                for fault in due:
                    _record(result, FaultOutcome(
                        fault=fault,
                        event="strike",
                        at_iteration=completed,
                        outcome="infeasible",
                        length_before=length_before,
                        length_after=0,
                        detail=str(exc),
                    ))
                raise
            current_schedule = repair.schedule
            current_graph = repair.graph
            current_arch = repair.degraded
            for fault in due:
                _record(result, FaultOutcome(
                    fault=fault,
                    event="strike",
                    at_iteration=completed,
                    outcome=repair.strategy,
                    length_before=length_before,
                    length_after=current_schedule.length,
                    moved=len(repair.moved),
                ))
            for fault in heals:
                _record(result, FaultOutcome(
                    fault=fault,
                    event="heal",
                    at_iteration=completed,
                    outcome="healed",
                    length_before=length_before,
                    length_after=current_schedule.length,
                ))
            check_current()

        # 2. execute one iteration on the (possibly repaired) schedule
        now += current_schedule.length
        completed += 1
        segment_iters += 1
        stalls = 0

    close_segment()
    result.iterations = completed
    result.final_schedule = current_schedule
    result.final_graph = current_graph
    result.final_topology = current_arch
    metrics.inc("resilience.sim.runs")
    metrics.inc("resilience.sim.iterations", completed)
    return result
