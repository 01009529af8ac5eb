"""Unit tests for the start-up (communication-aware list) scheduler."""

import pytest

from repro.arch import CompletelyConnected, LinearArray, Mesh2D
from repro.core import start_up_schedule
from repro.core.priority import fifo_priority
from repro.errors import SchedulingError
from repro.graph import CSDFG
from repro.schedule import is_valid_schedule, validate_schedule


class TestFigure1Exact:
    """The paper's §3 walk-through, cell by cell (Figure 6(b))."""

    def test_length_seven(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        assert s.length == 7

    def test_pe1_chain(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        assert s.processor("A") == 0 and s.start("A") == 1
        assert s.processor("B") == 0 and s.start("B") == 2
        assert s.processor("D") == 0 and s.start("D") == 4
        assert s.processor("E") == 0 and s.start("E") == 5
        assert s.processor("F") == 0 and s.start("F") == 7

    def test_c_deferred_by_comm_cost(self, figure1, mesh2x2):
        # comm from A forces C to cs3 on a neighbouring PE (paper: PE2)
        s = start_up_schedule(figure1, mesh2x2)
        assert s.start("C") == 3
        assert s.processor("C") != 0
        assert mesh2x2.hops(0, s.processor("C")) == 1

    def test_valid(self, figure1, mesh2x2):
        validate_schedule(figure1, mesh2x2, start_up_schedule(figure1, mesh2x2))


class TestGeneralBehaviour:
    def test_single_pe_serialises(self, figure1):
        arch = CompletelyConnected(1)
        s = start_up_schedule(figure1, arch)
        assert s.length >= figure1.total_work()
        assert is_valid_schedule(figure1, arch, s)

    def test_empty_graph_rejected(self):
        with pytest.raises(SchedulingError):
            start_up_schedule(CSDFG(), CompletelyConnected(2))

    def test_all_workloads_valid(self, figure7):
        for arch in (CompletelyConnected(4), LinearArray(4), Mesh2D(2, 2)):
            s = start_up_schedule(figure7, arch)
            assert is_valid_schedule(figure7, arch, s)

    def test_alternative_priority_still_valid(self, figure7):
        arch = Mesh2D(2, 2)
        s = start_up_schedule(figure7, arch, priority=fifo_priority)
        assert is_valid_schedule(figure7, arch, s)

    def test_padding_for_delayed_edges(self):
        # u -> v same iteration on one PE is tight, but the loop-carried
        # v -> u edge with a big volume forces padding when split
        g = CSDFG("pad")
        g.add_node("u", 1)
        g.add_node("v", 1)
        g.add_edge("u", "v", 0, 1)
        g.add_edge("v", "u", 1, 6)
        arch = LinearArray(2)
        s = start_up_schedule(g, arch)
        assert is_valid_schedule(g, arch, s)

    def test_padding_can_be_disabled(self):
        g = CSDFG("pad")
        g.add_node("u", 1)
        g.add_node("v", 1)
        g.add_edge("u", "v", 0, 1)
        g.add_edge("v", "u", 1, 6)
        arch = LinearArray(2)
        raw = start_up_schedule(g, arch, pad_for_delayed_edges=False)
        assert raw.length == raw.makespan

    def test_parallel_roots_spread(self):
        g = CSDFG("roots")
        for n in "abcd":
            g.add_node(n, 1)
            g.add_edge(n, n, 1, 1)  # keep nodes in cycles (self loops)
        arch = CompletelyConnected(4)
        s = start_up_schedule(g, arch)
        assert s.makespan == 1  # four roots, four PEs, no dependences
        assert len({s.processor(n) for n in "abcd"}) == 4

    def test_respects_multicycle_occupancy(self, figure1, mesh2x2):
        s = start_up_schedule(figure1, mesh2x2)
        # B occupies two consecutive cells on its PE
        pe = s.processor("B")
        assert s.cell(pe, 2) == "B" and s.cell(pe, 3) == "B"


class TestCounters:
    """The ``startup.*`` counters the benchmark's per-layer table reads."""

    def test_one_key_per_node_and_last_step(self, figure7):
        from repro.obs import InMemorySink, metrics, sink_installed

        arch = Mesh2D(2, 2)
        with sink_installed(InMemorySink()):
            s = start_up_schedule(figure7, arch)
        counters = metrics.snapshot()["counters"]
        assert counters["startup.placements"] == figure7.num_nodes
        assert counters["startup.pf_evaluations"] == figure7.num_nodes
        assert counters["startup.control_steps"] == max(
            s.start(v) for v in figure7.nodes()
        )
