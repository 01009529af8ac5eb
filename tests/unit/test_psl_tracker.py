"""Unit tests for the incremental PSL tracker (repro.core.psl.PSLTracker).

``refresh`` is the batch path (one ``kernels.edge_bounds`` call over
every edge); ``update_nodes``/``snapshot``/``restore`` are the
per-pass path the compaction loop drives.  Both must agree with the
full rescan ``projected_schedule_length``.  Only delayed edges keep a
bound, and a compaction run seeds one tracker from the unpadded
start-up placements, which also pads the start-up table.
"""

import pytest

from repro.arch import LinearArray
from repro.arch.cache import CommCostCache
from repro.arch.comm import make_contention_model
from repro.arch.contention import LinkOccupancy
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
from repro.qa import sample_sized_graph
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

    def test_restore_is_exact_across_a_delay_flip(self):
        """Rotating ``v`` takes its in-edge to zero delay and gives its
        out-edge one: the update drops one bound and adds another, and
        the restore of a rejected pass must undo both."""
        g = CSDFG("flip")
        for n in ("u", "v", "x"):
            g.add_node(n, 1)
        g.add_edge("u", "v", 1, 2)
        g.add_edge("v", "x", 0, 2)
        arch = LinearArray(3)
        s = ScheduleTable(3)
        s.place("u", 0, 1, 1)
        s.place("v", 2, 1, 1)  # u -> v: 1 + M(pe1, pe3) 4 + 1 - 1 = 5
        s.place("x", 2, 2, 1)
        tracker = PSLTracker(g, arch, s)
        assert tracker.projected_length() == 5
        bounds = dict(tracker._bounds)
        assert set(bounds) == {("u", "v")}  # delayed edges only

        g.set_delay("u", "v", 0)
        g.set_delay("v", "x", 1)
        snap = tracker.snapshot(["v"])
        assert snap == {("u", "v"): 5, ("v", "x"): None}
        _move(s, "v", 0, 3)  # v -> x: 3 + M(pe1, pe3) 4 + 1 - 2 = 6
        assert tracker.update_nodes(["v"]) == 6
        assert projected_schedule_length(g, arch, s) == 6
        assert set(tracker._bounds) == {("v", "x")}

        # reject the pass: undo the rotation, then restore the bounds;
        # a leaked v -> x bound would read 6
        g.set_delay("u", "v", 1)
        g.set_delay("v", "x", 0)
        _move(s, "v", 2, 1)
        tracker.restore(snap)
        assert tracker._bounds == bounds
        assert tracker.projected_length() == 5
        assert projected_schedule_length(g, arch, s) == 5


def _contended_cache(graph, arch):
    blind = start_up_schedule(graph, arch)
    return CommCostCache.for_graph(
        arch, graph,
        contention=make_contention_model("serialized", weight=2),
        occupancy=LinkOccupancy.from_assignment(
            graph, arch, blind.processor_map()
        ),
    )


class TestSeededOnce:
    """``cyclo_compact`` seeds one tracker from the unpadded start-up
    placements and pads the start-up table with it."""

    @pytest.mark.parametrize(
        "machine", ["plain", "pipelined", "contended", "degraded"]
    )
    @pytest.mark.parametrize("workload", ["elliptic5", "diffeq", "biquad2"])
    def test_initial_length_is_the_padded_start_up(self, workload, machine):
        graph = make_workload(workload)
        arch = MACHINES["mesh8-minus-0-6" if machine == "degraded" else "ring8"]()
        pipelined = machine == "pipelined"
        comm = (
            _contended_cache(graph, arch) if machine == "contended"
            else CommCostCache.for_graph(arch, graph)
        )
        raw = start_up_schedule(
            graph, arch, pad_for_delayed_edges=False, pipelined_pes=pipelined,
            comm=comm,
        )
        padded = start_up_schedule(
            graph, arch, pipelined_pes=pipelined, comm=comm
        )
        result = cyclo_compact(
            graph, arch, comm=comm,
            config=CycloConfig(max_iterations=0, pipelined_pes=pipelined),
        )
        want = projected_schedule_length(
            graph, arch, raw, pipelined_pes=pipelined, comm=comm
        )
        assert result.initial_length == want == padded.length
        assert result.initial_schedule.same_placements(padded)

    def test_the_pad_is_exercised(self):
        graph = make_workload("elliptic5")
        arch = make_architecture("ring", 8)
        raw = start_up_schedule(graph, arch, pad_for_delayed_edges=False)
        assert cyclo_compact(
            graph, arch, config=CycloConfig(max_iterations=0)
        ).initial_length > raw.length

    @pytest.mark.parametrize("kind", ["mesh", "ring", "complete"])
    @pytest.mark.parametrize("seed", range(4))
    def test_checked_monotone_runs_match_the_rescan(self, kind, seed):
        """``validate_each_step`` compares the incremental PSL with a
        full rescan after every pass (and raises on a mismatch); the
        monotone mode snapshots the bounds every pass."""
        graph = sample_sized_graph("layered", 40, seed=seed)
        arch = make_architecture(kind, 8)
        result = cyclo_compact(
            graph, arch,
            config=CycloConfig(
                relaxation=False, validate_each_step=True, max_iterations=40
            ),
        )
        assert result.trace.records
        assert result.final_length <= result.initial_length
