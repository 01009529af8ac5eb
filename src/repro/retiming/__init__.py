"""Retiming substrate: basics, rotation primitive, Leiserson–Saxe,
prologue/epilogue extraction."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "basic": (
        "apply_retiming", "compose_retimings", "is_legal_retiming",
        "normalize_retiming", "retimed_delay", "zero_retiming",
    ),
    "incremental": ("can_rotate", "rotate_nodes", "unrotate_nodes"),
    "leiserson_saxe": (
        "feasible_retiming_for_period", "min_period_retiming", "wd_matrices",
    ),
    "prologue": ("Instance", "LoopCode", "build_loop_code"),
})
