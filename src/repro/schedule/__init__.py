"""Schedule substrate: tables, validation, rendering, metrics."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "io": (
        "load_schedule", "save_schedule", "schedule_from_json",
        "schedule_to_json",
    ),
    "metrics": (
        "ScheduleMetrics", "compute_metrics", "remote_edge_count", "speedup",
        "total_comm_cost", "utilization",
    ),
    "render": ("render_gantt", "render_summary", "render_table"),
    "table": ("Placement", "ScheduleTable"),
    "validate": (
        "collect_violations", "is_valid_schedule", "minimum_feasible_length",
        "validate_schedule",
    ),
})
