"""Unit tests for the cyclo-compaction driver."""

import pytest

from repro.arch import (
    CompletelyConnected,
    LinearArray,
    Ring,
    make_architecture,
)
from repro.core import CycloConfig, cyclo_compact, start_up_schedule
from repro.core import cyclo as cyclo_mod
from repro.core import remapping as remapping_mod
from repro.errors import (
    GraphValidationError,
    ScheduleValidationError,
    SchedulingError,
)
from repro.graph import CSDFG, chain_csdfg
from repro.graph.validation import topological_order_zero_delay
from repro.obs import InMemorySink, metrics, sink_installed
from repro.retiming import apply_retiming
from repro.schedule import ScheduleTable, is_valid_schedule

# the debug checks (every intermediate schedule, the PSL cross-check,
# the placement order) on, as these tests had them before they became
# opt-in
CHECKED = CycloConfig(validate_each_step=True)


class TestFigure1:
    def test_compacts_to_paper_or_better(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        assert result.initial_length == 7
        assert result.final_length <= 5  # paper reaches 5

    def test_final_schedule_valid(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        assert is_valid_schedule(result.graph, mesh2x2, result.schedule)

    def test_never_worse_than_initial(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        assert result.final_length <= result.initial_length

    def test_input_graph_not_mutated(self, figure1, mesh2x2):
        snapshot = figure1.copy()
        cyclo_compact(figure1, mesh2x2, config=CHECKED)
        assert figure1.structurally_equal(snapshot)

    def test_retiming_consistency(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        rebuilt = apply_retiming(figure1, result.retiming)
        assert rebuilt.structurally_equal(result.graph)


class TestPolicies:
    def test_without_relaxation_monotone_trajectory(self, figure1, mesh2x2):
        cfg = CycloConfig(relaxation=False, validate_each_step=True)
        result = cyclo_compact(figure1, mesh2x2, config=cfg)
        lengths = result.trace.lengths
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    def test_relaxation_keeps_best_seen(self, figure7):
        arch = CompletelyConnected(4)
        result = cyclo_compact(figure7, arch, config=CHECKED)
        assert result.final_length == min(result.trace.lengths)

    def test_zero_iterations_returns_startup(self, figure1, mesh2x2):
        cfg = CycloConfig(max_iterations=0, validate_each_step=True)
        result = cyclo_compact(figure1, mesh2x2, config=cfg)
        assert result.final_length == result.initial_length
        assert result.trace.records == []

    def test_patience_stops_early(self, figure7):
        arch = CompletelyConnected(4)
        cfg = CycloConfig(
            patience=2, max_iterations=100, validate_each_step=True
        )
        result = cyclo_compact(figure7, arch, config=cfg)
        assert len(result.trace.records) < 100

    def test_config_validation(self):
        with pytest.raises(SchedulingError):
            CycloConfig(max_iterations=-1)
        with pytest.raises(SchedulingError):
            CycloConfig(patience=0)


class TestInitialSchedule:
    def test_custom_initial_used(self, figure1, mesh2x2):
        init = start_up_schedule(figure1, mesh2x2)
        result = cyclo_compact(
            figure1, mesh2x2, config=CHECKED, initial=init
        )
        assert result.initial_schedule.same_placements(init)
        # caller's schedule not mutated
        assert init.length == 7

    def test_illegal_initial_rejected(self, figure1, mesh2x2):
        bogus = ScheduleTable(mesh2x2.num_pes)
        bogus.place("A", 0, 1, 1)  # missing everything else
        with pytest.raises(ScheduleValidationError):
            cyclo_compact(figure1, mesh2x2, initial=bogus)


class TestTrace:
    def test_records_per_pass(self, figure1, mesh2x2):
        cfg = CycloConfig(max_iterations=5, validate_each_step=True)
        result = cyclo_compact(figure1, mesh2x2, config=cfg)
        assert 1 <= len(result.trace.records) <= 5
        first = result.trace.records[0]
        assert first.index == 1
        assert first.rotated == ("A",)

    def test_best_so_far_monotone(self, figure7):
        arch = LinearArray(4)
        result = cyclo_compact(figure7, arch, config=CHECKED)
        bests = [r.best_so_far for r in result.trace.records]
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    def test_improvement_accessor(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        assert result.trace.improvement() == (
            result.initial_length - result.final_length
        )


class TestPlacementRanks:
    def test_zero_delay_cycle_raises_the_walk_error(self):
        g = CSDFG("zcycle")
        g.add_nodes(["a", "b", "c"])
        g.add_edge("a", "b", 0)
        g.add_edge("b", "c", 0)
        g.add_edge("c", "a", 0)
        with pytest.raises(GraphValidationError) as walked:
            topological_order_zero_delay(g)
        with pytest.raises(GraphValidationError) as cached:
            cyclo_mod._TopoRankCache().ranks(g, ["a", "b"])
        assert str(cached.value) == str(walked.value)
        assert cached.value.issues == walked.value.issues

    def test_single_node_rotations_never_build_the_adjacency(self, monkeypatch):
        builds = []
        real_build = cyclo_mod._TopoRankCache._build
        monkeypatch.setattr(
            cyclo_mod._TopoRankCache, "_build",
            lambda self, graph: builds.append(graph) or real_build(self, graph),
        )
        cfg = CycloConfig(max_iterations=20, validate_each_step=False)
        with sink_installed(InMemorySink()):
            result = cyclo_compact(
                chain_csdfg(40, loop_delay=2), Ring(4), config=cfg
            )
        assert len(result.trace.records) > 1
        assert all(len(r.rotated) == 1 for r in result.trace.records)
        counters = metrics.snapshot()["counters"]
        assert counters.get("remap.toporank_rebuilds", 0) == 0
        assert builds == []

    @staticmethod
    def _reversed_ranks(monkeypatch):
        real_ranks = cyclo_mod._TopoRankCache.ranks

        def reversed_ranks(self, graph, rotated):
            rank = real_ranks(self, graph, rotated)
            return None if rank is None else {v: -r for v, r in rank.items()}

        monkeypatch.setattr(cyclo_mod._TopoRankCache, "ranks", reversed_ranks)

    def test_validate_each_step_catches_a_wrong_order(self, figure7, monkeypatch):
        self._reversed_ranks(monkeypatch)
        cfg = CycloConfig(max_iterations=20, validate_each_step=True)
        with pytest.raises(SchedulingError, match="cached placement order"):
            cyclo_compact(figure7, LinearArray(4), config=cfg)

    def test_order_check_off_without_validate_each_step(
        self, figure7, monkeypatch
    ):
        self._reversed_ranks(monkeypatch)
        walks = []
        monkeypatch.setattr(
            remapping_mod, "topological_order_zero_delay",
            lambda graph: walks.append(graph) or topological_order_zero_delay(graph),
        )
        cfg = CycloConfig(max_iterations=20, validate_each_step=False)
        result = cyclo_compact(figure7, LinearArray(4), config=cfg)
        assert any(len(r.rotated) > 1 for r in result.trace.records)
        assert walks == []


class TestReturnedScheduleCertified:
    """Every schedule ``cyclo_compact`` returns is certified under the
    prices of the run, whatever the debug and recovery options say."""

    @staticmethod
    def _under_reporting_psl(monkeypatch):
        # the incremental PSL claims one step less than the truth, so
        # the engine shortens the schedule past what its edges allow
        real_update = cyclo_mod.PSLTracker.update_nodes

        def update_nodes(self, nodes):
            length = real_update(self, nodes)
            return None if length is None else length - 1

        monkeypatch.setattr(cyclo_mod.PSLTracker, "update_nodes", update_nodes)

    @pytest.mark.parametrize("recover", [False, True])
    def test_psl_under_report_is_caught(self, figure7, monkeypatch, recover):
        self._under_reporting_psl(monkeypatch)
        cfg = CycloConfig(
            max_iterations=20,
            validate_each_step=False,
            recover_on_error=recover,
        )
        with pytest.raises(ScheduleValidationError, match=r"\('S', 'A'\)"):
            cyclo_compact(figure7, make_architecture("mesh", 4), config=cfg)

    def test_one_validate_span_per_run(self, figure7):
        sink = InMemorySink()
        with sink_installed(sink):
            cyclo_compact(
                figure7, make_architecture("mesh", 4),
                config=CycloConfig(max_iterations=20),
            )
        names = [e["name"] for e in sink.spans()]
        assert names.count("validate") == 1


def working_retiming(graph, trace):
    """The working retiming at the end of a run, read off its trace:
    each node counts once per accepted pass that rotated it (rejected
    passes undo their rotation, and a pass that raises before counting
    leaves no record)."""
    retiming = {v: 0 for v in graph.nodes()}
    for record in trace.records:
        if record.accepted:
            for v in record.rotated:
                retiming[v] += 1
    return retiming


class TestBestGraph:
    """The best graph is the working graph, not a clone, when the run
    ends on the best retiming."""

    @pytest.mark.parametrize("relaxation", [True, False])
    @pytest.mark.parametrize("passes", [3, 10, None])
    @pytest.mark.parametrize("workload", ["figure1", "figure7", "biquad2"])
    def test_graph_is_final_graph_exactly_when_retimings_match(
        self, workload, passes, relaxation
    ):
        from repro.workloads import make_workload

        graph = make_workload(workload)
        result = cyclo_compact(
            graph, make_architecture("ring", 8),
            config=CycloConfig(relaxation=relaxation, max_iterations=passes),
        )
        working = working_retiming(graph, result.trace)
        assert result.final_graph.structurally_equal(
            apply_retiming(graph, working)
        )
        same = result.retiming == working
        assert (result.graph is result.final_graph) == same
        assert result.graph.structurally_equal(
            apply_retiming(graph, result.retiming)
        )

    def test_both_outcomes_occur(self, figure7):
        arch = make_architecture("ring", 8)
        shared = cyclo_compact(
            figure7, arch, config=CycloConfig(max_iterations=3)
        )
        cloned = cyclo_compact(figure7, arch)
        assert shared.graph is shared.final_graph
        assert cloned.graph is not cloned.final_graph

    def test_half_rotated_working_graph_is_not_returned(
        self, figure7, monkeypatch
    ):
        # the pass raises after rotating the graph but before the
        # retiming is counted: the retimings still match, the working
        # graph does not
        rotate = cyclo_mod.rotate_schedule

        def rotate_then_raise(graph, schedule):
            rotate(graph, schedule)
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(cyclo_mod, "rotate_schedule", rotate_then_raise)
        result = cyclo_compact(
            figure7, make_architecture("ring", 8),
            config=CycloConfig(recover_on_error=True),
        )
        assert result.stop_reason == "error"
        assert result.retiming == working_retiming(figure7, result.trace)
        assert result.graph is not result.final_graph
        assert result.graph.structurally_equal(figure7)
