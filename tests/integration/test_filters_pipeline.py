"""Integration: the paper's Table 11 (filters with slowdown 3).

Shape checks on the reconstructed filter benchmarks: compaction always
helps, remapping with relaxation never ends worse than without, and the
completely connected architecture ties or wins the "after" column.
"""

import pytest

from repro.analysis import run_grid
from repro.arch import paper_architectures
from repro.core import CycloConfig
from repro.graph import slowdown
from repro.workloads import elliptic_wave_filter, lattice_filter

CFG_RELAX = CycloConfig(relaxation=True, max_iterations=80, validate_each_step=False)
CFG_STRICT = CycloConfig(relaxation=False, max_iterations=80, validate_each_step=False)


@pytest.fixture(scope="module", params=["elliptic", "lattice"])
def filter_cells(request):
    graph = {
        "elliptic": lambda: slowdown(elliptic_wave_filter(), 3),
        "lattice": lambda: slowdown(lattice_filter(8), 3),
    }[request.param]()
    archs = paper_architectures(8)
    with_relax = run_grid(graph, archs, config=CFG_RELAX)
    without = run_grid(graph, archs, config=CFG_STRICT)
    return request.param, with_relax, without


class TestTable11Shape:
    def test_compaction_always_helps(self, filter_cells):
        name, with_relax, without = filter_cells
        for key in with_relax:
            assert with_relax[key].after < with_relax[key].init, (name, key)
            assert without[key].after <= without[key].init, (name, key)

    def test_relaxation_never_worse(self, filter_cells):
        name, with_relax, without = filter_cells
        for key in with_relax:
            assert with_relax[key].after <= without[key].after, (name, key)

    def test_complete_ties_or_wins(self, filter_cells):
        name, with_relax, _ = filter_cells
        best = min(c.after for c in with_relax.values())
        assert with_relax["com"].after <= best + 1, name

    def test_bound_respected(self, filter_cells):
        import math

        name, with_relax, without = filter_cells
        for cells in (with_relax, without):
            for key, cell in cells.items():
                assert cell.after >= math.ceil(cell.bound), (name, key)
