"""Baseline schedulers the paper compares against (or that motivate it)."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "comm_rotation_unit": ("comm_rotation_schedule",),
    "etf": ("etf_schedule",),
    "exact": ("exact_minimum_length", "find_schedule_of_length"),
    "list_oblivious": ("oblivious_list_schedule",),
    "result": ("BaselineResult", "evaluate_under"),
    "rotation_chao": ("rotation_schedule",),
    "sequential": ("sequential_schedule",),
})
