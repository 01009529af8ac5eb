"""Unit tests for the static cyclic schedule validator."""

import pytest

from repro.arch import CompletelyConnected, LinearArray
from repro.errors import ScheduleValidationError
from repro.graph import CSDFG
from repro.schedule import (
    ScheduleTable,
    collect_violations,
    is_valid_schedule,
    minimum_feasible_length,
    validate_schedule,
)


def two_node_graph(delay=0, volume=1):
    g = CSDFG("g")
    g.add_node("u", 1)
    g.add_node("v", 1)
    g.add_edge("u", "v", delay, volume)
    return g


class TestCompleteness:
    def test_missing_node(self):
        g = two_node_graph()
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        issues = collect_violations(g, CompletelyConnected(2), t)
        assert any("not scheduled" in i for i in issues)

    def test_extra_node(self):
        g = two_node_graph()
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        t.place("v", 0, 2, 1)
        t.place("ghost", 1, 1, 1)
        issues = collect_violations(g, CompletelyConnected(2), t)
        assert any("not in the graph" in i for i in issues)

    def test_wrong_duration(self):
        g = CSDFG("g")
        g.add_node("u", 3)
        arch = CompletelyConnected(1)
        t = ScheduleTable(1)
        t.place("u", 0, 1, 1)
        issues = collect_violations(g, arch, t)
        # the message names the node, the PE and the architecture
        assert any(
            "duration" in i and "'u'" in i and "pe1" in i and arch.name in i
            for i in issues
        )

    def test_pe_outside_architecture(self):
        g = CSDFG("g")
        g.add_node("u", 1)
        arch = CompletelyConnected(2)
        t = ScheduleTable(4)
        t.place("u", 3, 1, 1)
        issues = collect_violations(g, arch, t)
        assert any(
            "outside architecture" in i and "'u'" in i and arch.name in i
            for i in issues
        )

    def test_finish_beyond_length(self):
        g = CSDFG("g")
        g.add_node("u", 2)
        t = ScheduleTable(1)
        t.place("u", 0, 1, 2)
        # sabotage: shrink length bypassing the setter guard
        t._length = 1
        issues = collect_violations(g, CompletelyConnected(1), t)
        assert any(
            "beyond length" in i and "'u'" in i and "pe1" in i
            for i in issues
        )

    def test_placed_on_failed_pe(self):
        from repro.arch import DegradedTopology

        g = CSDFG("g")
        g.add_node("u", 1)
        arch = DegradedTopology(CompletelyConnected(3), failed_pes=[2])
        t = ScheduleTable(3)
        t.place("u", 2, 1, 1)
        issues = collect_violations(g, arch, t)
        assert any(
            "placed on failed pe3" in i and "'u'" in i and arch.name in i
            for i in issues
        )


class TestPrecedence:
    def test_same_pe_sequential_ok(self):
        g = two_node_graph()
        t = ScheduleTable(1)
        t.place("u", 0, 1, 1)
        t.place("v", 0, 2, 1)
        assert is_valid_schedule(g, CompletelyConnected(1), t)

    def test_same_cs_zero_delay_bad(self):
        g = two_node_graph()
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        t.place("v", 1, 1, 1)
        issues = collect_violations(g, CompletelyConnected(2), t)
        # names the edge, both PEs, and the violated inequality terms
        assert any(
            "dependence edge ('u', 'v')" in i
            and "pe1->pe2" in i
            and "CB('v')" in i
            for i in issues
        )

    def test_comm_cost_enforced(self):
        g = two_node_graph(volume=2)
        arch = LinearArray(3)
        t = ScheduleTable(3)
        t.place("u", 0, 1, 1)
        t.place("v", 2, 4, 1)  # needs CE(u)+M+1 = 1+4+1 = 6
        assert not is_valid_schedule(g, arch, t)
        t2 = ScheduleTable(3)
        t2.place("u", 0, 1, 1)
        t2.place("v", 2, 6, 1)
        assert is_valid_schedule(g, arch, t2)

    def test_delayed_edge_uses_length(self):
        g = two_node_graph(delay=1, volume=3)
        arch = LinearArray(2)
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        t.place("v", 1, 1, 1)
        # CB(v) + 1*L >= CE(u) + 3 + 1  =>  L >= 4
        t.set_length(4)
        assert is_valid_schedule(g, arch, t)
        t3 = t.copy()
        t3._length = 3
        assert not is_valid_schedule(g, arch, t3)

    def test_validate_raises(self):
        g = two_node_graph()
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        t.place("v", 1, 1, 1)
        with pytest.raises(ScheduleValidationError):
            validate_schedule(g, CompletelyConnected(2), t)


class TestResources:
    def test_overlap_reported(self):
        g = CSDFG("g")
        g.add_node("u", 2)
        g.add_node("v", 1)
        t = ScheduleTable(1)
        t.place("u", 0, 1, 2)
        # bypass the cell index to simulate a corrupted table
        t._placements["v"] = type(t.placement("u"))("v", 0, 2, 1)
        issues = collect_violations(g, CompletelyConnected(1), t)
        assert any(
            "resource conflict on pe1" in i and "'u'" in i and "'v'" in i
            for i in issues
        )


class TestMinimumFeasibleLength:
    def test_zero_delay_violation_unsalvageable(self):
        g = two_node_graph()
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        t.place("v", 1, 1, 1)
        assert minimum_feasible_length(g, CompletelyConnected(2), t) is None

    def test_delayed_edge_padding(self):
        g = two_node_graph(delay=2, volume=4)
        arch = LinearArray(2)
        t = ScheduleTable(2)
        t.place("u", 0, 1, 1)
        t.place("v", 1, 1, 1)
        # CB(v) + 2L >= 1 + 4 + 1  =>  L >= ceil(5/2) = 3
        assert minimum_feasible_length(g, arch, t) == 3

    def test_makespan_dominates(self):
        g = two_node_graph(delay=1)
        t = ScheduleTable(1)
        t.place("u", 0, 1, 1)
        t.place("v", 0, 5, 1)
        arch = CompletelyConnected(1)
        assert minimum_feasible_length(g, arch, t) == 5

    def test_missing_node_is_none(self):
        g = two_node_graph()
        t = ScheduleTable(1)
        t.place("u", 0, 1, 1)
        assert minimum_feasible_length(g, CompletelyConnected(1), t) is None

    def test_result_is_tight(self, figure1, mesh2x2):
        from repro.core import start_up_schedule

        s = start_up_schedule(figure1, mesh2x2)
        L = minimum_feasible_length(figure1, mesh2x2, s)
        assert L == s.length  # startup already padded to the minimum
        shrunk = s.copy()
        if L is not None and L > s.makespan:
            shrunk._length = L - 1
            assert not is_valid_schedule(figure1, mesh2x2, shrunk)


class TestMinimumFeasibleLengthSinglePass:
    """The length-independent rules are checked once, from the
    placements, never from the table's cell index."""

    def test_execution_overlap_behind_issue_only_cells(self):
        g = CSDFG("g")
        g.add_node("u", 3)
        g.add_node("v", 1)
        arch = CompletelyConnected(1)
        t = ScheduleTable(1)
        # occupancy 1 leaves cs2 free in the cell index, but u executes
        # through cs3, so only pipelined PEs may issue v at cs2
        t.place("u", 0, 1, 3, occupancy=1)
        t.place("v", 0, 2, 1, occupancy=1)
        assert minimum_feasible_length(g, arch, t) is None
        assert minimum_feasible_length(g, arch, t, pipelined_pes=True) == 3

    def test_nonzero_origin_matches_a_fresh_table(self):
        g = two_node_graph(delay=2, volume=4)
        arch = LinearArray(2)
        moved = ScheduleTable(2)
        moved.place("u", 0, 2, 1)
        moved.shift_all(2)  # origin 2, u stored at cs2 (absolute 4)
        moved.place("v", 1, 1, 1)  # stored before the origin
        fresh = ScheduleTable(2)
        fresh.place("u", 0, 4, 1)
        fresh.place("v", 1, 1, 1)
        # CB(v) + 2L >= 4 + 4 + 1  =>  L >= ceil(8/2) = 4 = makespan
        assert minimum_feasible_length(g, arch, moved) == 4
        assert minimum_feasible_length(g, arch, fresh) == 4

    def test_structural_problems_are_none(self):
        g = two_node_graph(delay=1)
        arch = CompletelyConnected(2)

        def table(num_pes=2, **v):
            t = ScheduleTable(num_pes)
            t.place("u", 0, 1, 1)
            t.place("v", v.get("pe", 1), 3, v.get("duration", 1))
            return t

        assert minimum_feasible_length(g, arch, table()) == 3
        assert minimum_feasible_length(g, arch, table(duration=2)) is None
        assert minimum_feasible_length(g, arch, table(3, pe=2)) is None
        foreign = table()
        foreign.place("w", 0, 2, 1)
        assert minimum_feasible_length(g, arch, foreign) is None

    def test_failed_pe_is_none(self):
        from repro.arch import make_architecture
        from repro.arch.degraded import DegradedTopology

        g = two_node_graph(delay=1)
        arch = DegradedTopology(make_architecture("ring", 4), failed_pes=(1,))
        t = ScheduleTable(4)
        t.place("u", 0, 1, 1)
        t.place("v", 2, 1, 1)
        assert minimum_feasible_length(g, arch, t) is not None
        t.remove("v")
        t.place("v", 1, 1, 1)
        assert minimum_feasible_length(g, arch, t) is None

    def test_empty_graph_is_one(self):
        empty = CSDFG("empty")
        t = ScheduleTable(1)
        assert minimum_feasible_length(empty, CompletelyConnected(1), t) == 1
