"""Integration: the paper's Figure 1-4 walk-through end to end.

Reproduces the §1/§3/§4 running example: the 6-node CSDFG of Figure 1(b)
scheduled onto the 2x2 mesh of Figure 1(a).  The start-up schedule must
match the paper's Figure 2(a)/6(b) cell for cell; cyclo-compaction must
reach the paper's 5 control steps or better.
"""

import math

from repro.analysis import run_cell
from repro.baselines import sequential_schedule
from repro.core import (
    CycloConfig,
    cyclo_compact,
    length_lower_bound,
    start_up_schedule,
)
from repro.graph import iteration_bound
from repro.retiming import apply_retiming
from repro.schedule import render_table, validate_schedule
from repro.workloads import figure1_csdfg, figure1_mesh


class TestStartupMatchesPaper:
    def test_exact_table(self):
        g, m = figure1_csdfg(), figure1_mesh()
        s = start_up_schedule(g, m)
        # paper Figure 2(a): pe1 runs A B B D E E F; C lands at cs3 on
        # a PE one hop from pe1
        assert s.length == 7
        pe1 = [s.cell(0, cs) for cs in range(1, 8)]
        assert pe1 == ["A", "B", "B", "D", "E", "E", "F"]
        assert s.start("C") == 3
        assert m.hops(0, s.processor("C")) == 1
        validate_schedule(g, m, s)


class TestCompactionMatchesPaper:
    def test_reaches_paper_length_or_better(self):
        g, m = figure1_csdfg(), figure1_mesh()
        result = cyclo_compact(g, m)
        assert result.initial_length == 7
        assert result.final_length <= 5  # paper: 5 after 3 passes
        # absolute floor
        assert result.final_length >= math.ceil(iteration_bound(g))

    def test_three_passes_suffice_for_improvement(self):
        g, m = figure1_csdfg(), figure1_mesh()
        cfg = CycloConfig(max_iterations=3)
        result = cyclo_compact(g, m, config=cfg)
        assert result.final_length < result.initial_length

    def test_schedule_is_fully_consistent(self):
        g, m = figure1_csdfg(), figure1_mesh()
        result = cyclo_compact(g, m)
        validate_schedule(result.graph, m, result.schedule)
        rebuilt = apply_retiming(g, result.retiming)
        assert rebuilt.structurally_equal(result.graph)
        # rendering works on the final table (smoke)
        assert "pe1" in render_table(result.schedule)

    def test_both_policies_improve(self):
        g, m = figure1_csdfg(), figure1_mesh()
        for relaxation in (True, False):
            cell, _ = run_cell(g, m, config=CycloConfig(relaxation=relaxation))
            assert cell.after < cell.init


class TestAgainstBounds:
    def test_final_inside_analytic_bracket(self):
        g, m = figure1_csdfg(), figure1_mesh()
        result = cyclo_compact(g, m)
        assert length_lower_bound(g, m) <= result.final_length
        assert result.final_length <= sequential_schedule(g, m).length
