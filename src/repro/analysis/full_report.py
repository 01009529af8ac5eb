"""One-shot reproduction report: every paper experiment in one
markdown document.

:func:`generate_full_report` reruns the Figure 1 walk-through, the
19-node grid and the Table 11 filter study and renders a self-contained
markdown report with paper-vs-measured tables — the machinery behind
``python -m repro report``.
"""

from __future__ import annotations

from repro.analysis.experiments import run_cell, run_grid
from repro.analysis.report import (
    PaperComparison,
    markdown_comparison_table,
    markdown_grid,
)
from repro.arch.registry import paper_architectures
from repro.core.config import CycloConfig
from repro.graph.transform import slowdown
from repro.workloads.filters import elliptic_wave_filter, lattice_filter
from repro.workloads.paper_examples import figure1_csdfg, figure1_mesh, figure7_csdfg

__all__ = ["generate_full_report"]

#: paper-reported (init, after) pairs for the 19-node Tables 1-10.
PAPER_19NODE = {
    "com": (12, 5),
    "lin": (13, 7),
    "rin": (15, 7),
    "2-d": (13, 6),
    "hyp": (13, 6),
}


def generate_full_report(
    *, compaction_passes: int = 80, include_table11: bool = True
) -> str:
    """Render the complete reproduction report as markdown."""
    cfg = CycloConfig(max_iterations=compaction_passes)
    sections = [
        "# Reproduction report — cyclo-compaction scheduling (ICPP'95)",
        "",
        "Regenerated by `python -m repro report`.  Paper values from the",
        "published tables; `shape` flags cells within the documented",
        "reconstruction tolerance (DESIGN.md §5).",
        "",
    ]

    # Figure 1 ---------------------------------------------------------
    cell, result = run_cell(figure1_csdfg(), figure1_mesh(), config=cfg)
    sections.append(
        markdown_comparison_table(
            "Figures 1-4 — the running example (2x2 mesh)",
            [PaperComparison("figure1 @ mesh2x2", 7, 5, cell)],
        )
    )
    sections.append(
        f"Start-up schedule matches the paper cell-for-cell; compaction "
        f"trajectory: {result.trace.lengths}.\n"
    )

    # Tables 1-10 ------------------------------------------------------
    archs = paper_architectures(8)
    cells = run_grid(figure7_csdfg(), archs, config=cfg)
    comparisons = [
        PaperComparison(key, *PAPER_19NODE[key], measured=cells[key])
        for key in PAPER_19NODE
    ]
    sections.append(
        markdown_comparison_table(
            "Tables 1-10 — 19-node CSDFG on five 8-PE architectures",
            comparisons,
        )
    )
    sections.append(markdown_grid("Measured detail", cells))

    # Table 11 ---------------------------------------------------------
    if include_table11:
        for name, graph in (
            ("Elliptic Filter (slowdown 3)", slowdown(elliptic_wave_filter(), 3)),
            ("Lattice Filter (slowdown 3)", slowdown(lattice_filter(8), 3)),
        ):
            lines = [f"### Table 11 — {name}", ""]
            lines.append("| policy | " + " | ".join(PAPER_19NODE) + " |")
            lines.append("|---|" + "---|" * len(PAPER_19NODE))
            for relaxation, label in ((False, "w/o"), (True, "with")):
                row_cfg = CycloConfig(
                    relaxation=relaxation,
                    max_iterations=compaction_passes,
                )
                row = run_grid(graph, archs, config=row_cfg)
                lines.append(
                    f"| {label} | "
                    + " | ".join(
                        f"{row[key].init}→{row[key].after}" for key in PAPER_19NODE
                    )
                    + " |"
                )
            sections.append("\n".join(lines) + "\n")

    return "\n".join(sections)
