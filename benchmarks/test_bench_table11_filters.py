"""Experiment TAB11: the paper's Table 11 — 5th-order elliptic wave
filter and lattice filter, slow-down factor 3, both remapping policies,
on all five architectures.

The filter graphs are reconstructions, so absolute lengths differ from
the paper's 99-126 scale; the published *shape* is asserted instead:

* cyclo-compaction always shortens the start-up schedule,
* remapping with relaxation is never worse than without,
* the completely connected architecture ties or wins the "after" row.
"""

import pytest
from _report import write_report

from repro.analysis import format_table11, run_grid
from repro.arch import paper_architectures
from repro.core import CycloConfig
from repro.graph import slowdown
from repro.workloads import elliptic_wave_filter, lattice_filter

SLOWDOWN = 3
ARCH_ORDER = ("com", "lin", "rin", "2-d", "hyp")

WORKLOADS = {
    "Elliptic Filter": lambda: slowdown(elliptic_wave_filter(), SLOWDOWN),
    "Lattice Filter": lambda: slowdown(lattice_filter(8), SLOWDOWN),
}


def _cfg(relaxation: bool) -> CycloConfig:
    return CycloConfig(
        relaxation=relaxation, max_iterations=80, validate_each_step=False
    )


@pytest.fixture(scope="module")
def table11():
    archs = paper_architectures(8)
    rows = []
    cells_by_key = {}
    for workload, build in WORKLOADS.items():
        graph = build()
        for relaxation, label in ((False, "w/o"), (True, "with")):
            cells = run_grid(graph, archs, config=_cfg(relaxation))
            rows.append((workload, label, cells))
            cells_by_key[(workload, label)] = cells
    write_report("table11_filters", format_table11(rows, ARCH_ORDER))
    return cells_by_key


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("relaxation", [False, True])
def test_bench_table11_cell(benchmark, workload, relaxation, table11):
    """Timing benchmark: one full (workload x policy) row."""
    graph = WORKLOADS[workload]()
    archs = paper_architectures(8)

    cells = benchmark.pedantic(
        lambda: run_grid(graph, archs, config=_cfg(relaxation)),
        rounds=2,
        iterations=1,
    )
    for key, cell in cells.items():
        assert cell.after <= cell.init, (workload, key)


def test_bench_table11_relaxation_never_worse(benchmark, table11):
    table11 = benchmark(lambda: table11)
    for workload in WORKLOADS:
        with_relax = table11[(workload, "with")]
        without = table11[(workload, "w/o")]
        for key in ARCH_ORDER:
            assert with_relax[key].after <= without[key].after, (workload, key)


def test_bench_table11_complete_wins(benchmark, table11):
    table11 = benchmark(lambda: table11)
    for workload in WORKLOADS:
        cells = table11[(workload, "with")]
        best = min(cells[k].after for k in ARCH_ORDER)
        assert cells["com"].after <= best + 1, workload


def test_bench_table11_compaction_everywhere(benchmark, table11):
    table11 = benchmark(lambda: table11)
    for (workload, label), cells in table11.items():
        for key in ARCH_ORDER:
            assert cells[key].after < cells[key].init, (workload, label, key)
