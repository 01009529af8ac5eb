"""Baseline schedulers the paper compares against (or that motivate it)."""

from repro.baselines.comm_rotation_unit import comm_rotation_schedule
from repro.baselines.etf import etf_schedule
from repro.baselines.exact import exact_minimum_length, find_schedule_of_length
from repro.baselines.list_oblivious import oblivious_list_schedule
from repro.baselines.result import BaselineResult, evaluate_under
from repro.baselines.rotation_chao import rotation_schedule
from repro.baselines.sequential import sequential_schedule

__all__ = [
    "BaselineResult",
    "comm_rotation_schedule",
    "etf_schedule",
    "evaluate_under",
    "exact_minimum_length",
    "find_schedule_of_length",
    "oblivious_list_schedule",
    "rotation_schedule",
    "sequential_schedule",
]
