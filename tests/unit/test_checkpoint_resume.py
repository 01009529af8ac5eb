"""Unit tests for checkpoint/resume of compaction runs.

The acceptance invariant: a run checkpointed after k passes and resumed
to z passes produces exactly the run that did z passes uninterrupted
(the optimiser is deterministic).
"""

import dataclasses

import pytest

from repro.arch import Mesh2D, make_architecture
from repro.core import CycloConfig, cyclo_compact
from repro.core import cyclo as cyclo_mod
from repro.errors import CheckpointError, ScheduleValidationError
from repro.resilience import CompactionCheckpoint, resume_compaction
from repro.schedule import schedule_to_json
from repro.workloads import figure1_csdfg, figure7_csdfg

ARCH = Mesh2D(2, 4)
FULL = CycloConfig(max_iterations=24, validate_each_step=True)
PARTIAL = CycloConfig(max_iterations=8, validate_each_step=True)


def same_run(a, b) -> None:
    assert schedule_to_json(a.schedule) == schedule_to_json(b.schedule)
    assert a.retiming == b.retiming
    assert a.stop_reason == b.stop_reason
    assert a.trace.records == b.trace.records
    assert schedule_to_json(a.final_schedule) == schedule_to_json(
        b.final_schedule
    )


class TestResumeEqualsUninterrupted:
    def test_figure7(self):
        graph = figure7_csdfg()
        full = cyclo_compact(graph, ARCH, config=FULL)
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        ckpt = CompactionCheckpoint.capture(partial, graph, ARCH, PARTIAL)
        resumed = resume_compaction(graph, ARCH, ckpt, config=FULL)
        same_run(resumed, full)

    def test_through_json(self, tmp_path):
        graph = figure7_csdfg()
        full = cyclo_compact(graph, ARCH, config=FULL)
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        ckpt = CompactionCheckpoint.capture(partial, graph, ARCH, PARTIAL)
        path = ckpt.save(tmp_path / "run.ckpt.json")
        loaded = CompactionCheckpoint.load(path)
        resumed = resume_compaction(graph, ARCH, loaded, config=FULL)
        same_run(resumed, full)

    def test_deadline_killed_run_resumes(self):
        graph = figure1_csdfg()
        killed_cfg = CycloConfig(
            max_iterations=18, deadline_seconds=0.0, validate_each_step=True
        )
        killed = cyclo_compact(graph, ARCH, config=killed_cfg)
        assert killed.stop_reason == "deadline"
        ckpt = CompactionCheckpoint.capture(killed, graph, ARCH, killed_cfg)
        # default resume config == checkpointed config minus the deadline
        resumed = resume_compaction(graph, ARCH, ckpt)
        full = cyclo_compact(
            graph, ARCH,
            config=CycloConfig(max_iterations=18, validate_each_step=True),
        )
        same_run(resumed, full)

    def test_resumed_schedule_is_certified(self, monkeypatch):
        # a resumed run returns through the same certification as a
        # fresh one: an incremental PSL that claims one step less than
        # the truth shortens the schedule past what edge ('S', 'A')
        # allows, and the resume must raise instead of returning it
        graph, arch = figure7_csdfg(), make_architecture("mesh", 4)
        cfg = CycloConfig(max_iterations=4, validate_each_step=False)
        partial = cyclo_compact(graph, arch, config=cfg)
        ckpt = CompactionCheckpoint.capture(partial, graph, arch, cfg)
        real_update = cyclo_mod.PSLTracker.update_nodes

        def update_nodes(self, nodes):
            length = real_update(self, nodes)
            return None if length is None else length - 1

        monkeypatch.setattr(cyclo_mod.PSLTracker, "update_nodes", update_nodes)
        with pytest.raises(ScheduleValidationError, match=r"\('S', 'A'\)"):
            resume_compaction(
                graph, arch, ckpt,
                config=CycloConfig(max_iterations=20, validate_each_step=False),
            )


class TestGuards:
    def test_wrong_workload_rejected(self):
        graph = figure1_csdfg()
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        ckpt = CompactionCheckpoint.capture(partial, graph, ARCH, PARTIAL)
        with pytest.raises(CheckpointError, match="workload"):
            resume_compaction(figure7_csdfg(), ARCH, ckpt)

    def test_wrong_architecture_rejected(self):
        graph = figure1_csdfg()
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        ckpt = CompactionCheckpoint.capture(partial, graph, ARCH, PARTIAL)
        with pytest.raises(CheckpointError, match="architecture"):
            resume_compaction(graph, Mesh2D(2, 2), ckpt)

    def test_capture_requires_final_state(self):
        graph = figure1_csdfg()
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        gutted = dataclasses.replace(partial, final_schedule=None)
        with pytest.raises(CheckpointError, match="final"):
            CompactionCheckpoint.capture(gutted, graph, ARCH, PARTIAL)

    def test_format_guards(self):
        with pytest.raises(CheckpointError, match="format"):
            CompactionCheckpoint.from_dict({"format": "something-else"})
        graph = figure1_csdfg()
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        ckpt = CompactionCheckpoint.capture(partial, graph, ARCH, PARTIAL)
        data = ckpt.to_dict()
        data["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            CompactionCheckpoint.from_dict(data)

    def test_unknown_config_key_is_typed(self):
        # checkpoints saved while CycloConfig still had a fast_path
        # field carry it; loading one must fail by contract, naming it
        graph = figure1_csdfg()
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        data = CompactionCheckpoint.capture(
            partial, graph, ARCH, PARTIAL
        ).to_dict()
        data["config"]["fast_path"] = True
        with pytest.raises(CheckpointError, match="fast_path"):
            CompactionCheckpoint.from_dict(data)

    def test_missing_field_is_typed(self):
        graph = figure1_csdfg()
        partial = cyclo_compact(graph, ARCH, config=PARTIAL)
        data = CompactionCheckpoint.capture(
            partial, graph, ARCH, PARTIAL
        ).to_dict()
        del data["stall"]
        with pytest.raises(CheckpointError, match="stall"):
            CompactionCheckpoint.from_dict(data)
