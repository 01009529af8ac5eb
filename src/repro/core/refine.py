"""Post-compaction schedule refinement (extension).

Cyclo-compaction only ever re-places the rotated first row, so a
processor assignment chosen early can survive even when a better slot
opens up elsewhere.  This pass runs a deterministic local search on a
finished schedule: repeatedly pick one task, remove it, and re-place it
at the slot with the smallest implied schedule length (the same scoring
the remapping phase uses); keep the move when the projected schedule
length does not increase.  Sweeps repeat until a fixpoint.

The pass preserves the graph (no retiming) and is guaranteed to return
a legal schedule no longer than its input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core.psl import projected_schedule_length
from repro.core.remapping import _find_spot
from repro.errors import ScheduleValidationError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.validation import topological_order_zero_delay
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import collect_violations

__all__ = ["RefineResult", "refine_schedule"]


@dataclass(frozen=True)
class RefineResult:
    """Outcome of :func:`refine_schedule`.

    Attributes
    ----------
    schedule:
        The refined schedule (a copy; the input is untouched).
    initial_length, final_length:
        Lengths before and after refinement.
    moves:
        Number of accepted single-task moves.
    sweeps:
        Full passes over the node set until the fixpoint.
    """

    schedule: ScheduleTable
    initial_length: int
    final_length: int
    moves: int
    sweeps: int

    @property
    def improvement(self) -> int:
        return self.initial_length - self.final_length


def refine_schedule(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    max_sweeps: int = 10,
    pipelined_pes: bool = False,
) -> RefineResult:
    """Local-search refinement of a legal schedule.

    Raises :class:`~repro.errors.ScheduleValidationError` when the input
    schedule is illegal.
    """
    violations = collect_violations(
        graph, arch, schedule, pipelined_pes=pipelined_pes
    )
    if violations:
        raise ScheduleValidationError(["refine needs a legal schedule"] + violations)

    work = schedule.copy(name=f"{schedule.name}:refined")
    comm = CommCostCache.for_graph(arch, graph)
    initial_length = work.length
    order = topological_order_zero_delay(graph)
    total_moves = 0
    sweeps = 0

    for _ in range(max_sweeps):
        sweeps += 1
        moved_this_sweep = 0
        for node in order:
            if _try_move(graph, arch, work, node, pipelined_pes, comm):
                moved_this_sweep += 1
        total_moves += moved_this_sweep
        if moved_this_sweep == 0:
            break

    return RefineResult(
        schedule=work,
        initial_length=initial_length,
        final_length=work.length,
        moves=total_moves,
        sweeps=sweeps,
    )


def _try_move(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    node: Node,
    pipelined_pes: bool,
    comm: CommCostCache,
) -> bool:
    """Re-place ``node`` if a strictly better or equal-length-but-
    earlier slot exists; returns True when the placement changed."""
    before = schedule.placement(node)
    length_before = schedule.length
    schedule.remove(node)
    spot = _find_spot(
        graph,
        arch,
        schedule,
        node,
        cap=length_before,
        pipelined_pes=pipelined_pes,
        comm=comm,
    )
    if spot is None:
        # restore verbatim (cannot happen for legal inputs, but be safe)
        schedule.place(
            node, before.pe, before.start, before.duration, before.occupancy
        )
        return False
    pe, cb, duration = spot
    occupancy = 1 if pipelined_pes else duration
    schedule.place(node, pe, cb, duration, occupancy)
    new_length = projected_schedule_length(
        graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
    )
    changed = (pe, cb) != (before.pe, before.start)
    improved_position = new_length < length_before or (
        new_length == length_before
        and (cb + duration - 1, cb) < (before.finish, before.start)
    )
    if not (changed and improved_position):
        schedule.remove(node)
        schedule.place(
            node, before.pe, before.start, before.duration, before.occupancy
        )
        return False
    schedule.trim()
    schedule.set_length(max(new_length, schedule.makespan))
    return True
