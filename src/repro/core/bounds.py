"""The schedule-length floor ``B``: no legal schedule is shorter.

:func:`length_lower_bound` is the largest floor provable from the graph
and machine alone.  With ``live`` the surviving PEs and ``s`` the
smallest speed scale among them (1 on a homogeneous machine)::

    B = max(1, ceil(IB), ceil(occ / |live|), max t(v) * s)

* the **iteration bound** ``IB = max_C (sum t) / (sum d)``: no static
  cyclic schedule of any processor count beats the maximum cycle ratio;
* the **processor occupancy bound** ``ceil(occ / |live|)``: every task
  holds a live PE for at least ``t(v) * s`` control steps, so
  ``occ = total work * s``.  A pipelined PE issues a new task every
  control step, so there ``occ`` is the task count;
* the **longest task** ``max t(v) * s``: the validator requires every
  task to finish within the schedule length.

Every caller that needs a floor reads this one: the static analyzer's
RA301/RA305, the exact search's starting length, ``repro schedule``'s
report and the ``bounds`` fuzz property.
"""

from __future__ import annotations

import math

from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.graph.csdfg import CSDFG
from repro.graph.properties import iteration_bound

__all__ = ["length_lower_bound"]


def length_lower_bound(
    graph: CSDFG, arch: Architecture, config: CycloConfig | None = None
) -> int:
    """The statically provable schedule-length floor ``B`` (>= 1)."""
    if graph.num_nodes == 0:
        return 1
    live = arch.processors
    scale = min(arch.time_scales[p] for p in live)
    if config is not None and config.pipelined_pes:
        occupancy = graph.num_nodes
    else:
        occupancy = graph.total_work() * scale
    longest = max(graph.time(v) for v in graph.nodes()) * scale
    return max(
        1,
        math.ceil(iteration_bound(graph)),
        -(-occupancy // len(live)),  # ceil division
        longest,
    )
