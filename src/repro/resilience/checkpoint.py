"""Checkpoint/resume of cyclo-compaction runs.

A :class:`CompactionCheckpoint` freezes everything an interrupted
optimiser needs to continue exactly where it stopped: the working
schedule and retiming, the best-so-far schedule and retiming, the
:class:`~repro.core.trace.CompactionTrace` so far, the stall counter,
and fingerprints of the (workload, architecture, config) triple.  The
payload is plain JSON, built on the existing
``CompactionTrace.to_dict`` / ``schedule_to_json`` round-trips, so a
deadline-killed run (``stop_reason == "deadline"``) can be persisted
and resumed in another process.

Because the optimiser is deterministic, a resumed run appends exactly
the passes the uninterrupted run would have produced — the acceptance
invariant ``resume(checkpoint(run_k), z) == run_z`` is checked in
``tests/unit/test_checkpoint_resume.py``.  Resuming against the wrong
graph, architecture or config raises
:class:`~repro.errors.CheckpointError` instead of silently diverging.

Node labels must be strings (the convention of every serializer in
this library — see :mod:`repro.schedule.io`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, _LoopState, _run_passes
from repro.core.trace import CompactionTrace
from repro.errors import CheckpointError
from repro.graph.csdfg import CSDFG
from repro.obs import metrics, span
from repro.retiming.basic import apply_retiming
from repro.schedule.io import schedule_from_json, schedule_to_json

__all__ = ["CompactionCheckpoint", "resume_compaction"]

_FORMAT = "repro-compaction-checkpoint"
_VERSION = 1


@dataclass
class CompactionCheckpoint:
    """A paused compaction run, JSON round-trippable."""

    workload: str
    arch_name: str
    num_nodes: int
    num_pes: int
    config: CycloConfig
    completed_passes: int
    stall: int
    trace: CompactionTrace
    working_schedule: dict
    best_schedule: dict
    initial_schedule: dict
    working_retiming: dict[str, int]
    best_retiming: dict[str, int]

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        result: CycloResult,
        graph: CSDFG,
        arch: Architecture,
        config: CycloConfig,
    ) -> "CompactionCheckpoint":
        """Checkpoint ``result`` of ``cyclo_compact(graph, arch,
        config=config)`` (typically a deadline-stopped run)."""
        if result.final_schedule is None or result.final_graph is None:
            raise CheckpointError(
                "result carries no final optimiser state; it was not "
                "produced by this library's cyclo_compact"
            )
        return cls(
            workload=graph.name,
            arch_name=arch.name,
            num_nodes=graph.num_nodes,
            num_pes=arch.num_pes,
            config=config,
            completed_passes=len(result.trace.records),
            stall=result.final_stall,
            trace=result.trace,
            working_schedule=schedule_to_json(result.final_schedule),
            best_schedule=schedule_to_json(result.schedule),
            initial_schedule=schedule_to_json(result.initial_schedule),
            working_retiming={
                str(v): r for v, r in result.final_retiming.items()
            },
            best_retiming={str(v): r for v, r in result.retiming.items()},
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "workload": self.workload,
            "arch_name": self.arch_name,
            "num_nodes": self.num_nodes,
            "num_pes": self.num_pes,
            "config": self.config.to_dict(),
            "completed_passes": self.completed_passes,
            "stall": self.stall,
            "trace": self.trace.to_dict(),
            "working_schedule": self.working_schedule,
            "best_schedule": self.best_schedule,
            "initial_schedule": self.initial_schedule,
            "working_retiming": self.working_retiming,
            "best_retiming": self.best_retiming,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompactionCheckpoint":
        if data.get("format") != _FORMAT:
            raise CheckpointError(
                f"not a compaction checkpoint (format "
                f"{data.get('format')!r})"
            )
        if data.get("version") != _VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {data.get('version')!r}"
            )
        try:
            return cls(
                workload=data["workload"],
                arch_name=data["arch_name"],
                num_nodes=data["num_nodes"],
                num_pes=data["num_pes"],
                config=CycloConfig.from_dict(data["config"]),
                completed_passes=data["completed_passes"],
                stall=data["stall"],
                trace=CompactionTrace.from_dict(data["trace"]),
                working_schedule=data["working_schedule"],
                best_schedule=data["best_schedule"],
                initial_schedule=data["initial_schedule"],
                working_retiming=dict(data["working_retiming"]),
                best_retiming=dict(data["best_retiming"]),
            )
        except (KeyError, TypeError) as exc:
            # a missing field (KeyError) or a config key this version
            # does not know (TypeError from CycloConfig) names the key
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "CompactionCheckpoint":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json(indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CompactionCheckpoint":
        return cls.from_json(Path(path).read_text())


def resume_compaction(
    graph: CSDFG,
    arch: Architecture,
    checkpoint: CompactionCheckpoint,
    *,
    config: CycloConfig | None = None,
) -> CycloResult:
    """Continue a checkpointed run of ``cyclo_compact(graph, arch)``.

    ``graph``/``arch`` must be the same workload and architecture the
    checkpoint was captured from (fingerprints are verified);
    ``config`` defaults to the checkpointed config *minus its
    deadline* — resuming with the deadline that killed the original
    run would stop again immediately.  Returns the same
    :class:`CycloResult` the uninterrupted run would have produced,
    certified the same way: an illegal best schedule, whether found by
    the resumed passes or read from the checkpoint, raises
    :class:`~repro.errors.ScheduleValidationError`.
    """
    _verify(graph, arch, checkpoint)
    cfg = config if config is not None else CycloConfig.from_dict(
        {**checkpoint.config.to_dict(), "deadline_seconds": None}
    )

    try:
        working_retiming = {
            v: checkpoint.working_retiming[str(v)] for v in graph.nodes()
        }
        best_retiming = {
            v: checkpoint.best_retiming[str(v)] for v in graph.nodes()
        }
    except KeyError as missing:
        raise CheckpointError(
            f"checkpoint retiming is missing node {missing}; was it "
            f"captured from a different workload?"
        ) from None

    with span(
        "resume_compaction", workload=graph.name, arch=arch.name
    ) as sp:
        state = _LoopState(
            working=apply_retiming(graph, working_retiming),
            schedule=schedule_from_json(checkpoint.working_schedule),
            retiming=working_retiming,
            best_schedule=schedule_from_json(checkpoint.best_schedule),
            best_graph=apply_retiming(graph, best_retiming),
            best_retiming=best_retiming,
            initial_schedule=schedule_from_json(checkpoint.initial_schedule),
            trace=CompactionTrace(
                initial_length=checkpoint.trace.initial_length,
                records=list(checkpoint.trace.records),
            ),
            stall=checkpoint.stall,
            next_index=checkpoint.completed_passes + 1,
        )
        metrics.inc("cyclo.resumes")
        result = _run_passes(
            state, graph, arch, cfg, comm=CommCostCache.for_graph(arch, graph)
        )
        sp.add(
            resumed_at=checkpoint.completed_passes + 1,
            passes=len(result.trace.records),
            final_length=result.final_length,
        )
    return result


def _verify(
    graph: CSDFG, arch: Architecture, checkpoint: CompactionCheckpoint
) -> None:
    problems = []
    if graph.name != checkpoint.workload:
        problems.append(
            f"workload {graph.name!r} != checkpointed "
            f"{checkpoint.workload!r}"
        )
    if graph.num_nodes != checkpoint.num_nodes:
        problems.append(
            f"{graph.num_nodes} nodes != checkpointed {checkpoint.num_nodes}"
        )
    if arch.name != checkpoint.arch_name:
        problems.append(
            f"architecture {arch.name!r} != checkpointed "
            f"{checkpoint.arch_name!r}"
        )
    if arch.num_pes != checkpoint.num_pes:
        problems.append(
            f"{arch.num_pes} PEs != checkpointed {checkpoint.num_pes}"
        )
    if problems:
        raise CheckpointError("; ".join(problems))
