"""Unit tests for the pipelined processing-element mode (paper §2)."""

import pytest

from repro.arch import CompletelyConnected, LinearArray
from repro.core import CycloConfig, cyclo_compact, start_up_schedule
from repro.errors import PlacementConflictError
from repro.graph import CSDFG
from repro.schedule import (
    Placement,
    ScheduleTable,
    collect_violations,
    is_valid_schedule,
)
from repro.sim import simulate
from repro.workloads import figure1_csdfg, figure1_mesh


def mul_chain():
    """Three independent 3-cycle tasks kept live by self-loops."""
    g = CSDFG("muls")
    for n in "abc":
        g.add_node(n, 3)
        g.add_edge(n, n, 1, 1)
    return g


class TestPlacementOccupancy:
    def test_default_occupancy_is_duration(self):
        p = Placement("a", 0, 1, 3)
        assert p.occupancy == 3
        assert p.busy_until == 3

    def test_pipelined_occupancy(self):
        p = Placement("a", 0, 2, 3, occupancy=1)
        assert p.finish == 4
        assert p.busy_until == 2

    def test_occupancy_bounds(self):
        with pytest.raises(Exception):
            Placement("a", 0, 1, 2, occupancy=0)
        with pytest.raises(Exception):
            Placement("a", 0, 1, 2, occupancy=3)

    def test_table_back_to_back_issue(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3, occupancy=1)
        t.place("b", 0, 2, 3, occupancy=1)  # issues while a executes
        assert t.finish("a") == 3 and t.finish("b") == 4

    def test_same_issue_step_conflicts(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3, occupancy=1)
        with pytest.raises(PlacementConflictError):
            t.place("b", 0, 1, 2, occupancy=1)


class TestValidatorPipelined:
    def test_overlapping_execution_legal_when_pipelined(self):
        g = mul_chain()
        arch = CompletelyConnected(1)
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3, occupancy=1)
        t.place("b", 0, 2, 3, occupancy=1)
        t.place("c", 0, 3, 3, occupancy=1)
        t.set_length(5)
        assert is_valid_schedule(g, arch, t, pipelined_pes=True)
        assert not is_valid_schedule(g, arch, t)  # illegal on plain PEs

    def test_same_issue_step_still_illegal(self):
        g = mul_chain()
        arch = CompletelyConnected(1)
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3, occupancy=1)
        # bypass the table's own guard to exercise the validator
        t._placements["b"] = Placement("b", 0, 1, 3, occupancy=1)
        t._placements["c"] = Placement("c", 0, 2, 3, occupancy=1)
        t.set_length(5)
        issues = collect_violations(g, arch, t, pipelined_pes=True)
        assert any("resource conflict" in i for i in issues)


class TestSchedulersPipelined:
    def test_startup_packs_tighter(self):
        g = mul_chain()
        arch = CompletelyConnected(1)
        plain = start_up_schedule(g, arch)
        piped = start_up_schedule(g, arch, pipelined_pes=True)
        assert piped.makespan < plain.makespan
        assert is_valid_schedule(g, arch, piped, pipelined_pes=True)

    def test_cyclo_pipelined_valid_and_competitive(self):
        # pipelining enlarges the feasible space, but the optimiser is a
        # heuristic, so compare with slack rather than strictly
        g, m = figure1_csdfg(), figure1_mesh()
        plain = cyclo_compact(
            g, m, config=CycloConfig(validate_each_step=True)
        )
        piped = cyclo_compact(
            g, m,
            config=CycloConfig(pipelined_pes=True, validate_each_step=True),
        )
        assert piped.final_length <= plain.final_length + 1
        assert piped.final_length <= piped.initial_length
        assert is_valid_schedule(
            piped.graph, m, piped.schedule, pipelined_pes=True
        )

    def test_pipelined_single_pe_reaches_issue_limit(self):
        # on one pipelined PE the bound is one issue per control step
        g = mul_chain()
        arch = CompletelyConnected(1)
        result = cyclo_compact(
            g, arch,
            config=CycloConfig(pipelined_pes=True, validate_each_step=True),
        )
        # 3 tasks, self-loop latency 3: L >= 3; issue limit: L >= 3
        assert result.final_length <= 5

    def test_simulator_accepts_pipelined_schedule(self):
        g = mul_chain()
        arch = CompletelyConnected(1)
        s = start_up_schedule(g, arch, pipelined_pes=True)
        simulate(g, arch, s, iterations=4, pipelined_pes=True)

    def test_rotation_round_trip_keeps_occupancy(self):
        from repro.core import rotate_schedule, undo_rotation

        g = mul_chain()
        arch = CompletelyConnected(1)
        s = start_up_schedule(g, arch, pipelined_pes=True)
        snapshot = s.copy()
        working = g.copy()
        rotated, old = rotate_schedule(working, s)
        undo_rotation(working, s, rotated, old, snapshot.length)
        assert s.same_placements(snapshot)
        assert all(
            s.placement(n).occupancy == snapshot.placement(n).occupancy
            for n in g.nodes()
        )


class TestPipelinedOnMultiPe:
    def test_valid_across_architectures(self, figure7):
        for arch in (LinearArray(4), CompletelyConnected(4)):
            cfg = CycloConfig(
                pipelined_pes=True, max_iterations=20, validate_each_step=False
            )
            result = cyclo_compact(figure7, arch, config=cfg)
            assert is_valid_schedule(
                result.graph, arch, result.schedule, pipelined_pes=True
            )
            assert result.final_length <= result.initial_length
