#!/usr/bin/env python3
"""DSP filter scheduling across architectures (the paper's Table 11).

Takes the 5th-order elliptic wave filter and an 8-stage lattice filter,
applies the paper's slow-down-3 transform, and schedules them on the
five experimental 8-PE architectures under both remapping policies,
printing a Table 11-shaped comparison.

Run:  python examples/filter_pipeline.py
"""

from repro import paper_architectures
from repro.analysis import format_table11, run_grid
from repro.core import CycloConfig
from repro.graph import slowdown
from repro.workloads import elliptic_wave_filter, lattice_filter


def main() -> None:
    workloads = {
        "Elliptic Filter": slowdown(elliptic_wave_filter(), 3),
        "Lattice Filter": slowdown(lattice_filter(8), 3),
    }
    archs = paper_architectures(8)

    rows = []
    for name, graph in workloads.items():
        print(f"scheduling {name} ({graph.num_nodes} ops, "
              f"total work {graph.total_work()})...")
        for relaxation, label in ((False, "w/o"), (True, "with")):
            cfg = CycloConfig(
                relaxation=relaxation,
                max_iterations=80,
                validate_each_step=False,
            )
            cells = run_grid(graph, archs, config=cfg)
            rows.append((name, label, cells))

    print()
    print(format_table11(rows))
    print()
    print("reading the table: 'init' is the start-up schedule length,")
    print("'after' the cyclo-compacted length; 'with'/'w/o' is remapping")
    print("relaxation (Definition 4.2). Expected shape: after < init")
    print("everywhere, relaxation never worse, completely connected (com)")
    print("ties or wins.")


if __name__ == "__main__":
    main()
