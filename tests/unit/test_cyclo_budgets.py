"""Unit tests for the hardened optimiser budgets (deadline, recovery)."""

import pytest

import repro.core.cyclo as cyclo_mod
from repro.arch import Mesh2D
from repro.core import CycloConfig, cyclo_compact
from repro.errors import SchedulingError
from repro.schedule import collect_violations, schedule_to_json
from repro.workloads import figure1_csdfg, figure7_csdfg


class TestDeadline:
    def test_exhausted_deadline_returns_best_legal(self):
        graph = figure7_csdfg()
        arch = Mesh2D(2, 4)
        result = cyclo_compact(
            graph, arch, config=CycloConfig(deadline_seconds=0.0)
        )
        assert result.stop_reason == "deadline"
        assert result.trace.records == []  # stopped before pass 1
        # the contract: whatever the budget, the result is legal
        assert collect_violations(result.graph, arch, result.schedule) == []
        assert result.schedule.length == result.initial_length

    def test_deadline_keeps_start_as_working_state(self):
        graph = figure1_csdfg()
        arch = Mesh2D(2, 2)
        result = cyclo_compact(
            graph, arch, config=CycloConfig(deadline_seconds=0.0)
        )
        assert result.trace.records == []
        assert result.final_graph.structurally_equal(graph)
        assert schedule_to_json(result.final_schedule) == schedule_to_json(
            result.initial_schedule
        )

    def test_no_deadline_runs_to_completion(self):
        graph = figure1_csdfg()
        arch = Mesh2D(2, 2)
        result = cyclo_compact(
            graph, arch, config=CycloConfig(max_iterations=6)
        )
        assert result.stop_reason in ("completed", "converged", "patience")

    def test_negative_deadline_rejected(self):
        with pytest.raises(SchedulingError):
            CycloConfig(deadline_seconds=-1.0)


class TestRecoverOnError:
    @pytest.fixture
    def exploding_remap(self, monkeypatch):
        """Make the first remapping pass raise mid-flight."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(cyclo_mod, "remap_nodes", boom)

    def test_default_propagates(self, exploding_remap):
        graph = figure1_csdfg()
        arch = Mesh2D(2, 2)
        with pytest.raises(RuntimeError, match="injected"):
            cyclo_compact(graph, arch)

    def test_recover_returns_best_legal(self, exploding_remap):
        graph = figure1_csdfg()
        arch = Mesh2D(2, 2)
        result = cyclo_compact(
            graph, arch, config=CycloConfig(recover_on_error=True)
        )
        assert result.stop_reason == "error"
        assert collect_violations(result.graph, arch, result.schedule) == []
        # nothing was accepted before the explosion: best == initial
        assert result.schedule.length == result.initial_length


class TestConfigRoundtrip:
    def test_to_from_dict(self):
        cfg = CycloConfig(
            relaxation=False,
            max_iterations=17,
            patience=3,
            validate_each_step=False,
            pipelined_pes=True,
            remap_strategy="first-fit",
            deadline_seconds=2.5,
            recover_on_error=True,
        )
        assert CycloConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError):
            CycloConfig.from_dict({"warp_factor": 9})
