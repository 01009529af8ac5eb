"""Single-processor schedule: the upper bracket on schedule length.

The sequential schedule (all tasks on the first live PE in zero-delay
topological order) upper-bounds any sensible parallel schedule.  The
lower bracket is the floor ``B`` of
:func:`repro.core.bounds.length_lower_bound`.
"""

from __future__ import annotations

from repro.arch.topology import Architecture
from repro.core.psl import projected_schedule_length
from repro.graph.csdfg import CSDFG
from repro.graph.validation import topological_order_zero_delay
from repro.schedule.table import ScheduleTable

__all__ = ["sequential_schedule"]


def sequential_schedule(graph: CSDFG, arch: Architecture) -> ScheduleTable:
    """All tasks on the first live PE (PE 0 on a healthy machine), back
    to back, in zero-delay topological order.

    Communication is free on a single PE; the delayed self-dependences
    are honoured by the projected-schedule-length padding (rarely
    binding, since the makespan is already the total work).
    """
    schedule = ScheduleTable(arch.num_pes, name=f"{graph.name}:sequential")
    pe = arch.processors[0]
    cs = 1
    for node in topological_order_zero_delay(graph):
        duration = arch.execution_time(pe, graph.time(node))
        schedule.place(node, pe, cs, duration)
        cs += duration
    schedule.set_length(projected_schedule_length(graph, arch, schedule))
    return schedule
