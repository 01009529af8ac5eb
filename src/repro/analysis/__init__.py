"""Experiment harness: runners, table formatting, ablations,
convergence studies."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ablation": (
        "PRIORITY_VARIANTS", "CommAblationRow", "comm_awareness_ablation",
        "priority_ablation", "relaxation_ablation",
    ),
    "convergence": ("ConvergenceReport", "convergence_study"),
    "experiments": ("ExperimentCell", "run_cell", "run_grid"),
    "full_report": ("generate_full_report",),
    "report": (
        "PaperComparison", "markdown_comparison_table", "markdown_grid",
    ),
    "sweep": (
        "SweepPoint", "pe_count_sweep", "slowdown_sweep", "volume_sweep",
    ),
    "tables": ("format_cells", "format_table11"),
    "unfolding": ("UnfoldingPoint", "unfolding_study"),
})
