"""Unit tests for the incremental PSL tracker (repro.core.psl.PSLTracker).

``refresh`` is the batch path (one ``kernels.edge_bounds`` call over
every edge); ``update_nodes``/``snapshot``/``restore`` are the
per-pass path the compaction loop drives.  Both must agree with the
full rescan ``projected_schedule_length``.
"""

import pytest

from repro.arch import LinearArray
from repro.arch.cache import CommCostCache
from repro.arch.degraded import DegradedTopology
from repro.arch.registry import make_architecture
from repro.core import (
    CycloConfig,
    cyclo_compact,
    projected_schedule_length,
    start_up_schedule,
)
from repro.core.psl import PSLTracker
from repro.errors import InfeasibleScheduleError
from repro.graph import CSDFG
from repro.schedule import ScheduleTable
from repro.workloads import make_workload

MACHINES = {
    "mesh8": lambda: make_architecture("mesh", 8),
    "ring8": lambda: make_architecture("ring", 8),
    "complete16": lambda: make_architecture("complete", 16),
    "mesh8-minus-0-6": lambda: DegradedTopology(
        make_architecture("mesh", 8), failed_pes=[0, 6]
    ),
}


def _move(schedule, node, pe, start):
    placed = schedule.remove(node)
    schedule.place(node, pe, start, placed.duration)


@pytest.fixture
def chain3():
    """u -> v (delay 1), v -> x (delay 0), all of time 1."""
    g = CSDFG("chain3")
    for n in ("u", "v", "x"):
        g.add_node(n, 1)
    g.add_edge("u", "v", 1, 1)
    g.add_edge("v", "x", 0, 1)
    return g


class TestRefresh:
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("workload", ["figure1", "figure7", "elliptic5"])
    def test_matches_full_rescan_on_start_up(self, workload, machine):
        graph = make_workload(workload)
        arch = MACHINES[machine]()
        schedule = start_up_schedule(graph, arch)
        want = projected_schedule_length(graph, arch, schedule)
        for comm in (None, CommCostCache.for_graph(arch, graph)):
            tracker = PSLTracker(graph, arch, schedule, comm=comm)
            assert tracker.projected_length() == want
            tracker.refresh()
            assert tracker.projected_length() == want

    def test_matches_full_rescan_on_compacted_schedule(self):
        arch = make_architecture("mesh", 8)
        result = cyclo_compact(
            make_workload("figure7"),
            arch,
            config=CycloConfig(max_iterations=10, validate_each_step=False),
        )
        tracker = PSLTracker(result.graph, arch, result.schedule)
        assert tracker.projected_length() == projected_schedule_length(
            result.graph, arch, result.schedule
        )

    def test_names_first_violated_edge_in_edges_order(self):
        g = CSDFG("g")
        for n in ("a", "b", "c", "d"):
            g.add_node(n, 1)
        g.add_edge("a", "b", 0, 1)  # stays satisfied
        g.add_edge("c", "d", 0, 1)
        g.add_edge("b", "d", 0, 1)
        # edges() groups by source: b -> d comes before c -> d
        assert [e.key for e in g.edges()] == [
            ("a", "b"), ("b", "d"), ("c", "d")
        ]
        arch = LinearArray(2)
        s = ScheduleTable(2)
        s.place("a", 0, 1, 1)
        s.place("b", 0, 2, 1)
        s.place("c", 0, 3, 1)
        s.place("d", 1, 3 + arch.comm_cost(0, 1, 1) + 1, 1)
        tracker = PSLTracker(g, arch, s)
        _move(s, "d", 1, 2)  # now both b -> d and c -> d are violated
        with pytest.raises(InfeasibleScheduleError) as info:
            tracker.refresh()
        assert str(info.value) == (
            "edge ('b', 'd') violates an intra-iteration dependence "
            "as placed"
        )

    def test_constructor_rejects_violated_schedule(self, chain3):
        s = ScheduleTable(1)
        s.place("u", 0, 1, 1)
        s.place("v", 0, 3, 1)
        s.place("x", 0, 2, 1)
        with pytest.raises(InfeasibleScheduleError, match=r"\('v', 'x'\)"):
            PSLTracker(chain3, LinearArray(1), s)


class TestUpdateNodes:
    def test_violation_returns_none_and_commits_nothing(self, chain3):
        s = ScheduleTable(1)
        s.place("u", 0, 1, 1)
        s.place("v", 0, 2, 1)
        s.place("x", 0, 3, 1)
        tracker = PSLTracker(chain3, LinearArray(1), s)
        before = dict(tracker._bounds)
        length = tracker.projected_length()
        # the in-edge u -> v is visited first and its bound would move
        # (0 -> -3); the out-edge v -> x is then violated
        _move(s, "v", 0, 5)
        assert tracker.update_nodes(["v"]) is None
        assert tracker._bounds == before
        _move(s, "v", 0, 2)
        assert tracker.projected_length() == length

    def test_legal_move_matches_full_rescan(self, chain3):
        s = ScheduleTable(1)
        s.place("u", 0, 1, 1)
        s.place("v", 0, 2, 1)
        s.place("x", 0, 4, 1)
        arch = LinearArray(1)
        tracker = PSLTracker(chain3, arch, s)
        _move(s, "u", 0, 3)
        got = tracker.update_nodes(["u"])
        assert got == projected_schedule_length(chain3, arch, s) == 4


class TestSnapshotRestore:
    def test_round_trip_gives_back_the_same_length(self):
        g = CSDFG("pair")
        g.add_node("u", 1)
        g.add_node("v", 1)
        g.add_edge("u", "v", 1, 2)
        arch = LinearArray(3)
        s = ScheduleTable(3)
        s.place("u", 0, 1, 1)
        s.place("v", 2, 1, 1)  # two hops: CE(u) + M + 1 - CB(v) = 5
        tracker = PSLTracker(g, arch, s)
        length = tracker.projected_length()
        assert length == projected_schedule_length(g, arch, s) == 5
        bounds = dict(tracker._bounds)

        snap = tracker.snapshot(["v"])
        _move(s, "v", 0, 2)  # same PE: no communication
        assert tracker.update_nodes(["v"]) == 2
        # roll the pass back: schedule first, then the bounds
        _move(s, "v", 2, 1)
        tracker.restore(snap)
        assert tracker.projected_length() == length
        assert tracker._bounds == bounds
