"""Unit tests for the baseline schedulers and analytic bounds."""

import math

from repro.arch import (
    CompletelyConnected,
    DegradedTopology,
    LinearArray,
    Mesh2D,
    make_architecture,
)
from repro.baselines import (
    comm_rotation_schedule,
    exact_minimum_length,
    oblivious_list_schedule,
    rotation_schedule,
    sequential_schedule,
)
from repro.core import CycloConfig, cyclo_compact, length_lower_bound
from repro.graph import (
    CSDFG,
    critical_path_length,
    iteration_bound,
    scale_volumes,
)
from repro.schedule import collect_violations, is_valid_schedule


class TestSequential:
    def test_length_is_total_work(self, figure1):
        arch = CompletelyConnected(4)
        s = sequential_schedule(figure1, arch)
        assert s.makespan == figure1.total_work()
        assert is_valid_schedule(figure1, arch, s)

    def test_everything_on_pe0(self, figure7):
        s = sequential_schedule(figure7, LinearArray(8))
        assert all(p.pe == 0 for p in s.placements())


class TestDeadPE0:
    """Both baselines time and place on the first live PE, so a machine
    whose PE 0 failed still gets a schedule (not DeadProcessorError)."""

    def arch(self):
        return DegradedTopology(make_architecture("mesh", 4), failed_pes=(0,))

    def test_sequential_uses_live_pes_only(self, figure1):
        arch = self.arch()
        s = sequential_schedule(figure1, arch)
        assert {p.pe for p in s.placements()} <= set(arch.processors)
        assert collect_violations(figure1, arch, s) == []

    def test_exact_witness_is_legal(self, figure1):
        arch = self.arch()
        length, witness = exact_minimum_length(figure1, arch)
        assert length >= length_lower_bound(figure1, arch)
        assert collect_violations(figure1, arch, witness) == []


class TestBounds:
    def test_brackets(self, figure1, mesh2x2):
        assert iteration_bound(figure1) == 3
        assert critical_path_length(figure1) == 6
        assert sequential_schedule(figure1, mesh2x2).length == 8
        assert length_lower_bound(figure1, mesh2x2) == 3

    def test_schedulers_respect_bounds(self, figure7):
        arch = CompletelyConnected(8)
        result = cyclo_compact(figure7, arch)
        assert result.final_length >= math.ceil(iteration_bound(figure7))
        assert result.final_length >= length_lower_bound(figure7, arch)


class TestObliviousList:
    def test_penalty_on_distant_architecture(self):
        # a comm-heavy fork-join where ignoring comm hurts
        g = CSDFG("hot")
        g.add_node("a", 1)
        for i in range(4):
            g.add_node(f"b{i}", 2)
            g.add_edge("a", f"b{i}", 0, 4)
        g.add_node("z", 1)
        for i in range(4):
            g.add_edge(f"b{i}", "z", 0, 4)
        g.add_edge("z", "a", 1, 1)
        arch = LinearArray(5)
        base = oblivious_list_schedule(g, arch)
        assert (not base.feasible) or base.claimed_length <= base.actual_length

    def test_feasible_on_its_decision_model(self, figure7):
        base = oblivious_list_schedule(figure7, Mesh2D(2, 4))
        # claimed schedule is valid with zero comm by construction
        from repro.arch import ZeroCommModel

        zero = Mesh2D(2, 4).with_comm_model(ZeroCommModel())
        assert is_valid_schedule(figure7, zero, base.schedule)

    def test_penalty_property(self, figure7):
        base = oblivious_list_schedule(figure7, LinearArray(8))
        if base.feasible:
            assert base.penalty == base.actual_length - base.claimed_length
        else:
            assert base.penalty is None


class TestRotationBaseline:
    def test_runs_and_reports(self, figure1, mesh2x2):
        cfg = CycloConfig(max_iterations=10, validate_each_step=False)
        base = rotation_schedule(figure1, mesh2x2, config=cfg)
        assert base.claimed_length >= 1
        # evaluation either succeeds with >= claimed, or is infeasible
        assert base.actual_length is None or (
            base.actual_length >= base.claimed_length
        )

    def test_cyclo_beats_or_ties_oblivious_rotation(self, figure7):
        arch = LinearArray(8)
        cfg = CycloConfig(max_iterations=30, validate_each_step=False)
        ours = cyclo_compact(figure7, arch, config=cfg).final_length
        theirs = rotation_schedule(figure7, arch, config=cfg).actual_length
        assert theirs is None or ours <= theirs


class TestCommRotationBaseline:
    def test_matches_cyclo_on_complete(self, figure1):
        arch = CompletelyConnected(4)
        cfg = CycloConfig(max_iterations=20, validate_each_step=False)
        ours = cyclo_compact(figure1, arch, config=cfg).final_length
        base = comm_rotation_schedule(figure1, arch, config=cfg)
        assert base.actual_length == base.claimed_length == ours

    def test_underestimates_on_linear(self, figure7):
        heavy = scale_volumes(figure7, 3)
        arch = LinearArray(8)
        cfg = CycloConfig(max_iterations=25, validate_each_step=False)
        base = comm_rotation_schedule(heavy, arch, config=cfg)
        # topology-blind decisions cannot beat their own claim once
        # multi-hop costs are charged
        assert base.actual_length is None or (
            base.actual_length >= base.claimed_length
        )
