"""Unit tests for the optimiser's stop and error behaviour and the
config round-trip."""

import pytest

import repro.core.cyclo as cyclo_mod
from repro.arch import Mesh2D
from repro.core import CycloConfig, cyclo_compact
from repro.errors import SchedulingError
from repro.schedule import schedule_to_json
from repro.workloads import figure1_csdfg


class TestDeadline:
    def test_deadline_keeps_start_as_working_state(self):
        # the pass budget is the only deadline: a run stopped before
        # pass 1 returns the start-up state as its working state
        graph = figure1_csdfg()
        arch = Mesh2D(2, 2)
        result = cyclo_compact(
            graph, arch, config=CycloConfig(max_iterations=0)
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
        assert result.stop_reason in ("completed", "converged")


class TestRecoverOnError:
    @pytest.fixture
    def exploding_remap(self, monkeypatch):
        """Make the first remapping pass raise mid-flight."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(cyclo_mod, "remap_nodes", boom)

    def test_default_propagates(self, exploding_remap):
        # the loop's only error behaviour: a pass exception propagates
        graph = figure1_csdfg()
        arch = Mesh2D(2, 2)
        with pytest.raises(RuntimeError, match="injected"):
            cyclo_compact(graph, arch)


class TestConfigRoundtrip:
    def test_to_from_dict(self):
        cfg = CycloConfig(
            relaxation=False,
            max_iterations=17,
            validate_each_step=False,
            pipelined_pes=True,
            remap_strategy="first-fit",
        )
        assert CycloConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(SchedulingError, match="warp_factor"):
            CycloConfig.from_dict({"warp_factor": 9})
