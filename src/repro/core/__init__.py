"""The paper's contribution: start-up scheduling + cyclo-compaction.

High-level entry points:

* :func:`repro.core.startup.start_up_schedule` — the §3
  communication-aware list scheduler,
* :func:`repro.core.cyclo.cyclo_compact` — the §4 optimiser (rotation +
  remapping with/without relaxation).
"""

from repro.core.anticipation import anticipated_start, latest_finish
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.core.mobility import mobility, mobility_map
from repro.core.pipeline import (
    ContentionResult,
    OptimizeResult,
    contention_aware_schedule,
    optimize,
)
from repro.core.priority import (
    PriorityFn,
    PriorityKey,
    fifo_priority,
    mobility_only_priority,
    paper_priority,
    volume_only_priority,
)
from repro.core.psl import projected_schedule_length, psl_edge_bound
from repro.core.refine import RefineResult, refine_schedule
from repro.core.remapping import RemapOutcome, remap_nodes
from repro.core.rotation import rotate_schedule, undo_rotation
from repro.core.startup import start_up_schedule
from repro.core.trace import CompactionTrace, IterationRecord

__all__ = [
    "CompactionTrace",
    "ContentionResult",
    "CycloConfig",
    "CycloResult",
    "IterationRecord",
    "OptimizeResult",
    "PriorityFn",
    "PriorityKey",
    "RefineResult",
    "RemapOutcome",
    "anticipated_start",
    "contention_aware_schedule",
    "cyclo_compact",
    "fifo_priority",
    "latest_finish",
    "mobility",
    "mobility_map",
    "mobility_only_priority",
    "optimize",
    "paper_priority",
    "projected_schedule_length",
    "psl_edge_bound",
    "refine_schedule",
    "remap_nodes",
    "rotate_schedule",
    "start_up_schedule",
    "undo_rotation",
    "volume_only_priority",
]
