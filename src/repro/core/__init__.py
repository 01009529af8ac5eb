"""The paper's contribution: start-up scheduling + cyclo-compaction.

High-level entry points:

* :func:`repro.core.startup.start_up_schedule` — the §3
  communication-aware list scheduler,
* :func:`repro.core.cyclo.cyclo_compact` — the §4 optimiser (rotation +
  remapping with/without relaxation),
* :func:`repro.core.bounds.length_lower_bound` — the floor ``B`` that
  no legal schedule beats.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bounds": ("length_lower_bound",),
    "config": ("CycloConfig",),
    "cyclo": ("CycloResult", "cyclo_compact"),
    "mobility": ("mobility", "mobility_map"),
    "pipeline": (
        "ContentionResult", "OptimizeResult", "contention_aware_schedule",
        "optimize",
    ),
    "priority": (
        "PriorityFn", "PriorityKey", "fifo_priority", "mobility_only_priority",
        "paper_priority", "volume_only_priority",
    ),
    "psl": ("projected_schedule_length", "psl_edge_bound"),
    "refine": ("RefineResult", "refine_schedule"),
    "remapping": ("RemapOutcome", "remap_nodes"),
    "rotation": ("rotate_schedule", "undo_rotation"),
    "startup": ("start_up_schedule",),
    "trace": ("CompactionTrace", "IterationRecord"),
})

# Eager: ``mobility`` also names its submodule, and the first import of
# a submodule binds it as a package attribute.  Importing it here, before
# any caller can, leaves the function bound instead of the module.
from repro.core.mobility import mobility
