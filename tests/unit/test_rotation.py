"""Unit tests for the rotation phase."""

import pytest

from repro.arch import CompletelyConnected, LinearArray, Mesh2D
from repro.core import (
    cyclo_compact,
    rotate_schedule,
    start_up_schedule,
    undo_rotation,
)
from repro.errors import IllegalRetimingError
from repro.graph import CSDFG
from repro.schedule import ScheduleTable
from repro.workloads import make_workload, workload_names


class TestRotateSchedule:
    def test_rotates_first_row(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        g = figure1.copy()
        rotated, old = rotate_schedule(g, s)
        assert rotated == ["A"]
        assert old[0].start == 1 and old[0].pe == 0

    def test_graph_retimed(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        g = figure1.copy()
        rotate_schedule(g, s)
        assert g.delay("D", "A") == 2
        assert g.delay("A", "B") == 1

    def test_table_shifted(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        g = figure1.copy()
        rotate_schedule(g, s)
        assert "A" not in s
        assert s.start("B") == 1
        assert s.start("C") == 2
        assert s.length == 6

    def test_multiple_first_row_nodes(self):
        g = CSDFG("two-roots")
        for n in "ab":
            g.add_node(n, 1)
            g.add_edge(n, n, 1, 1)
        s = ScheduleTable(2, length=1)
        s.place("a", 0, 1, 1)
        s.place("b", 1, 1, 1)
        rotated, _ = rotate_schedule(g, s)
        assert rotated == ["a", "b"]
        assert s.num_tasks == 0

    def test_internal_edges_do_not_block_rotation(self):
        # u -> v zero-delay with both nodes in row 1: the edge is
        # internal to the rotated set, so rotation is legal (the
        # schedule itself is illegal, but the primitive is exercised)
        g = CSDFG("pairrow")
        g.add_node("u", 1)
        g.add_node("v", 1)
        g.add_edge("u", "v", 0, 1)
        g.add_edge("v", "u", 1, 1)
        s = ScheduleTable(2)
        s.place("u", 0, 1, 1)
        s.place("v", 1, 1, 1)
        rotated, _ = rotate_schedule(g, s)
        assert set(rotated) == {"u", "v"}
        assert g.delay("u", "v") == 0  # internal edge untouched

    def test_illegal_first_row_raises_before_mutation(self):
        # a first-row node with a zero-delay producer *outside* the
        # rotated set (an artificially illegal schedule) must be caught
        # before any graph mutation
        g = CSDFG("bad")
        g.add_node("w", 1)
        g.add_node("v", 1)
        g.add_edge("w", "v", 0, 1)
        g.add_edge("v", "w", 1, 1)
        s = ScheduleTable(2)
        s.place("v", 0, 1, 1)  # v in row 1, its producer w is not
        s.place("w", 1, 2, 1)
        before = g.copy()
        with pytest.raises(IllegalRetimingError):
            rotate_schedule(g, s)
        assert g.structurally_equal(before)


class TestUndoRotation:
    def test_round_trip(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        snapshot = s.copy()
        g = figure1.copy()
        original_length = s.length
        rotated, old = rotate_schedule(g, s)
        undo_rotation(g, s, rotated, old, original_length)
        assert g.structurally_equal(figure1)
        assert s.same_placements(snapshot)

    def test_round_trip_after_trial_placements(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        snapshot = s.copy()
        g = figure1.copy()
        rotated, old = rotate_schedule(g, s)
        # trial remapping that then must be discarded
        s.place("A", 3, 2, 1)
        undo_rotation(g, s, rotated, old, snapshot.length)
        assert s.same_placements(snapshot)
        assert g.structurally_equal(figure1)


class TestRotatedSetInvariant:
    """After rotating a legal schedule no rotated node has a zero-delay
    out-edge: every edge leaving the set gains a delay, and an internal
    edge enters a first-row node, which a legal schedule only allows
    with a delay on it.  The remapping order of a rotated set is
    therefore a tie-break, not a dependence requirement (the set still
    has zero-delay *in*-edges from outside, which the floor handles)."""

    ARCHES = [LinearArray(4), Mesh2D(2, 4), CompletelyConnected(3)]

    @pytest.mark.parametrize("name", workload_names())
    def test_no_zero_delay_out_edge_after_rotation(self, name, monkeypatch):
        from repro.core import cyclo as cyclo_mod

        seen = {"rotations": 0, "zero_delay_in": 0}

        def checked(graph, schedule):
            rotated, old = rotate_schedule(graph, schedule)
            for v in rotated:
                for e in graph.out_edges(v):
                    assert e.delay > 0, (name, e.key, e.delay)
                seen["zero_delay_in"] += sum(
                    e.delay == 0 for e in graph.in_edges(v)
                )
            seen["rotations"] += 1
            return rotated, old

        monkeypatch.setattr(cyclo_mod, "rotate_schedule", checked)
        for arch in self.ARCHES:
            cyclo_compact(make_workload(name), arch)
        assert seen["rotations"] > 0
        # the invariant is about out-edges only: the rotated sets do
        # take zero-delay inputs from outside
        assert seen["zero_delay_in"] > 0
