"""Unit tests for the start-up (communication-aware list) scheduler."""

import pytest

from repro.arch import CompletelyConnected, LinearArray, Mesh2D
from repro.arch.cache import CommCostCache
from repro.arch.comm import ConstantLatencyModel
from repro.core import start_up_schedule
from repro.core.startup import _index_graph, start_up_step_limit
from repro.core.priority import fifo_priority
from repro.errors import SchedulingError
from repro.graph import CSDFG, alap_times, asap_times, critical_path_length
from repro.graph.generators import layered_csdfg, random_csdfg
from repro.graph.properties import alap_indexed
from repro.graph.validation import topological_order_zero_delay
from repro.perf.reference import reference_start_up_schedule
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


class TestStepLimit:
    """The start-up step limit covers the prices the run really pays."""

    @pytest.mark.parametrize(
        "schedule", [start_up_schedule, reference_start_up_schedule]
    )
    def test_latency_above_hops_times_volume(self, schedule):
        # a and b start on different PEs, so c waits 10 steps for data:
        # a limit of work + diameter * volume (6) gave up before cs 12
        g = CSDFG()
        g.add_nodes(["a", "b", "c"])
        g.add_edge("a", "c", 0)
        g.add_edge("b", "c", 0)
        arch = CompletelyConnected(2, comm_model=ConstantLatencyModel(10))
        comm = CommCostCache.for_graph(arch, g)
        assert start_up_step_limit(g, arch, comm) == 3 + 2 * 10 + 1
        s = schedule(g, arch)
        assert s.start("c") == 12
        assert is_valid_schedule(g, arch, s)

    def test_slowest_pe_runs_all_work(self):
        g = CSDFG()
        g.add_nodes(["a", "b"], time=3)
        g.add_edge("a", "b", 0, 2)
        arch = LinearArray(3).with_time_scales([1, 2, 4])
        comm = CommCostCache.for_graph(arch, g)
        assert start_up_step_limit(g, arch, comm) == 6 * 4 + 2 * 2 + 1


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


class TestPrologue:
    """The one-walk prologue and the public helpers share one formula."""

    @staticmethod
    def _graphs():
        for seed in range(8):
            yield random_csdfg(5 + 3 * seed, seed=seed, edge_prob=0.3)
            yield layered_csdfg([3, 5, 4, 2], seed=seed, max_time=3,
                                max_volume=3)

    def test_matches_alap_times_and_step_limit(self):
        arch = Mesh2D(2, 3).with_time_scales([1, 2, 1, 3, 1, 2])
        for graph in self._graphs():
            nodes, times, rows, producers, order = _index_graph(graph)
            assert [nodes[i] for i in order] == (
                topological_order_zero_delay(graph)
            )
            assert dict(zip(nodes, alap_indexed(times, rows, order))) == (
                alap_times(graph)
            )
            for j, v in enumerate(nodes):
                assert sorted((nodes[i], m) for i, m in producers[j]) == (
                    sorted((e.src, e.volume) for e in graph.in_edges(v)
                           if e.delay == 0)
                )
            # the slowest PE runs every node, every edge at its dearest
            comm = CommCostCache.for_graph(arch, graph)
            assert start_up_step_limit(graph, arch, comm) == (
                3 * graph.total_work()
                + sum(comm.max_cost(e.volume) for e in graph.edges()) + 1
            )

    def test_levels_match_longest_paths(self):
        # ASAP = 1 + longest zero-delay path into v; ALAP = horizon + 1 -
        # longest zero-delay path out of v, both counted in node times
        for graph in self._graphs():
            order = topological_order_zero_delay(graph)
            into = {}
            for v in order:
                into[v] = max(
                    (into[e.src] + graph.time(e.src)
                     for e in graph.in_edges(v) if e.delay == 0),
                    default=0,
                )
            out = {}
            for v in reversed(order):
                out[v] = graph.time(v) + max(
                    (out[e.dst] for e in graph.out_edges(v) if e.delay == 0),
                    default=0,
                )
            horizon = max(out.values())
            assert critical_path_length(graph) == horizon
            assert asap_times(graph) == {v: into[v] + 1 for v in order}
            assert alap_times(graph) == {
                v: horizon + 1 - out[v] for v in order
            }
            assert alap_times(graph, horizon + 4) == {
                v: horizon + 5 - out[v] for v in order
            }


class TestSweeps:
    def test_sweeps_count_visited_steps(self, figure7):
        from repro.obs import InMemorySink, metrics, sink_installed

        arch = Mesh2D(2, 2)
        keys = ("startup.sweeps", "startup.control_steps")
        counts = {}
        with sink_installed(InMemorySink()):
            for schedule in (start_up_schedule, reference_start_up_schedule):
                before = metrics.snapshot()["counters"]
                schedule(figure7, arch)
                after = metrics.snapshot()["counters"]
                counts[schedule] = [
                    after[k] - before.get(k, 0) for k in keys
                ]
        fast_sweeps, fast_steps = counts[start_up_schedule]
        ref_sweeps, ref_steps = counts[reference_start_up_schedule]
        # the event-driven walk jumps over steps where nothing can be
        # placed; the reference visits every step up to the last
        assert fast_steps == ref_steps
        assert ref_sweeps == ref_steps
        assert 1 <= fast_sweeps < fast_steps


class TestProgress:
    """Every sweep moves ``cs`` forward, or start-up raises."""

    def test_non_advancing_step_raises_within_a_second(self, monkeypatch):
        import itertools
        import signal
        import time

        import repro.core.startup as startup_module

        # drop the producer's finish offset from every deferral's wake
        # bound (``repeat(offset)``): the wake-up then lands at or
        # before the step that deferred the node, which once made the
        # main loop spin forever
        monkeypatch.setattr(
            startup_module, "repeat", lambda _offset: itertools.repeat(0)
        )
        g = CSDFG()
        g.add_nodes(["a", "b", "c", "d"])
        for child in "bcd":
            g.add_edge("a", child, 0, 2)

        def hang(_signum, _frame):
            raise AssertionError("start-up made no progress and did not raise")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            began = time.perf_counter()
            with pytest.raises(SchedulingError, match="no progress at cs"):
                start_up_schedule(g, Mesh2D(2, 2))
            assert time.perf_counter() - began < 1.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
