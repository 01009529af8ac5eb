"""Sharded best-of-N compaction restarts (``repro schedule --restarts``).

Cyclo-compaction is deterministic, so re-running it buys nothing — but
its outcome depends on the start-up schedule, and the start-up schedule
depends on the priority function.  :func:`best_of_restarts` runs ``N``
restarts whose priorities are deterministically jittered per restart
index (restart 0 is the plain paper priority, so the best-of-N result
is never worse than the single run) and returns the shortest schedule
found.

Restarts are sharded across :func:`repro.perf.run_parallel` workers in
**synchronized stages** of ``stage_passes`` compaction passes each: a
worker runs its restart up to the stage boundary, freezes it into a
:class:`~repro.resilience.checkpoint.CompactionCheckpoint`, and ships
the checkpoint home; the parent then broadcasts the best length known
so far into the next stage's pruning decisions.  Because stage
boundaries are fixed by ``(seed, restarts, stage_passes)`` alone and
``run_parallel`` returns results in item order, the outcome is
**identical for every ``jobs`` value** — the worker count changes only
wall-clock time, never the winner (pinned in
``tests/unit/test_restarts.py``).

Pruning, between stages:

* a restart stops naturally when its compaction run converges, runs out
  of patience, or spends the pass budget (its length is final);
* a still-running restart is dropped (``stop_reason == "pruned"``) when
  it sits strictly above the best known length *and* made no progress
  during the last stage — it is stalled above an incumbent it would
  have to beat;
* everything stops (``"lower-bound"``) once the best known length
  reaches ``length_lower_bound(graph, arch, config)`` — no restart can
  beat the floor ``B`` (which counts pipelined PEs' issue slots, not
  their work), so finishing the others is wasted work.

Both prunings read only stage-boundary lengths, so they are as
deterministic as the engine itself.  Wall-clock deadlines are stripped
from the per-stage configs — a deadline would make stage outcomes
depend on machine speed, which is exactly what the jobs-invariance
guarantee forbids.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from repro.arch.topology import Architecture
from repro.core.bounds import length_lower_bound
from repro.core.config import CycloConfig
from repro.core.cyclo import cyclo_compact
from repro.core.priority import PriorityKey, paper_priority
from repro.core.startup import start_up_schedule
from repro.errors import SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.obs import metrics, span
from repro.perf.parallel import run_parallel
from repro.resilience.checkpoint import CompactionCheckpoint, resume_compaction
from repro.retiming.basic import apply_retiming
from repro.schedule.io import schedule_from_json
from repro.schedule.table import ScheduleTable

__all__ = [
    "JitteredPriority",
    "RestartOutcome",
    "RestartReport",
    "best_of_restarts",
]


class JitteredPriority:
    """The paper priority key with a deterministic per-node jitter in
    ``[0, 1)`` added to its constant part — enough to shuffle ties and
    near-ties in the start-up ready queue, which is what diversifies the
    restarts.  The jitter has 32 fractional bits, so scores stay exact.

    The jitter comes from ``crc32`` over ``seed:index:node`` (never
    python's ``hash``, which is salted per process and would break the
    jobs-invariance guarantee).  Instances are picklable, so the
    priority travels to worker processes.
    """

    __slots__ = ("seed", "index")

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.index = index

    def __call__(self, graph, alap, finish, node) -> PriorityKey:
        a, b = paper_priority(graph, alap, finish, node)
        digest = zlib.crc32(f"{self.seed}:{self.index}:{node}".encode())
        return a + digest / 2**32, b

    def __reduce__(self):
        return (JitteredPriority, (self.seed, self.index))


@dataclass(frozen=True)
class RestartOutcome:
    """Where one restart ended up.

    ``stop_reason`` is the engine's reason (``completed`` /
    ``converged`` / ``patience``) or the shard driver's (``pruned`` /
    ``lower-bound``).  ``length`` is the restart's best length at the
    moment it stopped — for pruned restarts, a valid but abandoned
    schedule length.
    """

    index: int
    length: int
    initial_length: int
    passes: int
    stop_reason: str


@dataclass
class RestartReport:
    """Result of :func:`best_of_restarts`.

    ``schedule``/``graph``/``retiming`` reproduce the winning restart's
    best schedule exactly (same invariants as
    :class:`~repro.core.cyclo.CycloResult`); ``outcomes`` records every
    restart, winner first not guaranteed — they come in restart order.
    """

    schedule: ScheduleTable
    graph: CSDFG
    retiming: dict[Node, int]
    winner: RestartOutcome
    outcomes: list[RestartOutcome]
    seed: int
    restarts: int
    jobs: int
    stages: int
    lower_bound: int

    @property
    def final_length(self) -> int:
        return self.schedule.length


def _run_stage(payload: tuple) -> dict:
    """One restart, advanced to the next stage boundary (worker side)."""
    graph, arch, stage_cfg, seed, index, ckpt_dict = payload
    if ckpt_dict is None:
        priority = (
            paper_priority if index == 0 else JitteredPriority(seed, index)
        )
        initial = start_up_schedule(
            graph,
            arch,
            priority=priority,
            pipelined_pes=stage_cfg.pipelined_pes,
        )
        result = cyclo_compact(graph, arch, config=stage_cfg, initial=initial)
    else:
        ckpt = CompactionCheckpoint.from_dict(ckpt_dict)
        result = resume_compaction(graph, arch, ckpt, config=stage_cfg)
    return {
        "index": index,
        "length": result.final_length,
        "initial_length": result.initial_length,
        "passes": len(result.trace.records),
        "stop_reason": result.stop_reason,
        "checkpoint": CompactionCheckpoint.capture(
            result, graph, arch, stage_cfg
        ).to_dict(),
    }


def best_of_restarts(
    graph: CSDFG,
    arch: Architecture,
    config: CycloConfig | None = None,
    *,
    restarts: int,
    jobs: int = 1,
    seed: int = 0,
    stage_passes: int = 8,
) -> RestartReport:
    """Best schedule over ``restarts`` jittered compaction restarts.

    Parameters
    ----------
    restarts:
        How many restarts to run (>= 1).  Restart 0 uses the plain
        paper priority, so the report is never worse than a single
        :func:`~repro.core.cyclo.cyclo_compact` run of the same config.
    jobs:
        Worker processes for each stage (forwarded to
        :func:`repro.perf.run_parallel`).  Changes wall-clock only —
        the winner, lengths and placements are jobs-invariant.
    seed:
        Seeds the per-restart priority jitter.
    stage_passes:
        Compaction passes per synchronization stage.  Part of the
        deterministic key: the same ``(seed, restarts, stage_passes)``
        always produces the same report.

    The config's ``deadline_seconds`` is ignored (stages must not
    depend on wall clock); apply an outer budget around this call
    instead.  Node labels must be strings (the checkpoint round-trip's
    convention).
    """
    if restarts < 1:
        raise SchedulingError(f"restarts must be >= 1, got {restarts}")
    if stage_passes < 1:
        raise SchedulingError(
            f"stage_passes must be >= 1, got {stage_passes}"
        )
    cfg = config if config is not None else CycloConfig()
    total = cfg.iterations_for(graph.num_nodes)
    lower = length_lower_bound(graph, arch, cfg)

    with span(
        "best_of_restarts",
        workload=graph.name,
        arch=arch.name,
        restarts=restarts,
        jobs=jobs,
    ) as sp:
        # per-restart shard state, updated at every stage boundary
        ckpts: list[dict | None] = [None] * restarts
        lengths: list[int | None] = [None] * restarts
        initials: list[int] = [0] * restarts
        passes: list[int] = [0] * restarts
        reasons: list[str | None] = [None] * restarts
        active = list(range(restarts))
        stages = 0
        stage_start = 1

        while active and stage_start <= total:
            stage_end = min(stage_start + stage_passes - 1, total)
            stage_cfg = replace(
                cfg, max_iterations=stage_end, deadline_seconds=None
            )
            payloads = [
                (graph, arch, stage_cfg, seed, i, ckpts[i]) for i in active
            ]
            rows = run_parallel(_run_stage, payloads, jobs=jobs)
            stages += 1
            for row in rows:
                i = row["index"]
                row["prev"] = lengths[i]
                ckpts[i] = row["checkpoint"]
                lengths[i] = row["length"]
                initials[i] = row["initial_length"]
                passes[i] = row["passes"]
                if row["stop_reason"] != "completed" or stage_end == total:
                    # the run ended inside the stage (converged /
                    # patience) or spent the full pass budget
                    reasons[i] = row["stop_reason"]
            best = min(v for v in lengths if v is not None)
            metrics.set_gauge("perf.restarts.best_length", best)
            if best <= lower:
                # the analytic bound is met; nothing left to beat
                for i in active:
                    if reasons[i] is None:
                        reasons[i] = "lower-bound"
                        metrics.inc("perf.restarts.lower_bound_stops")
                break
            survivors = []
            for row in rows:
                i = row["index"]
                if reasons[i] is not None:
                    continue  # finished naturally this stage
                stalled = row["prev"] is not None and row["prev"] == row["length"]
                if row["length"] > best and stalled:
                    reasons[i] = "pruned"
                    metrics.inc("perf.restarts.pruned")
                    continue
                survivors.append(i)
            active = survivors
            stage_start = stage_end + 1

        # every restart ran at least one stage (total >= 1 because
        # iterations_for never returns less than the node count floor),
        # so lengths/ckpts are fully populated
        winner_index = min(
            range(restarts), key=lambda i: (lengths[i], i)
        )
        winner_ckpt = CompactionCheckpoint.from_dict(ckpts[winner_index])
        best_schedule = schedule_from_json(winner_ckpt.best_schedule)
        best_retiming = {
            v: winner_ckpt.best_retiming[str(v)] for v in graph.nodes()
        }
        best_graph = apply_retiming(graph, best_retiming, name=graph.name)
        outcomes = [
            RestartOutcome(
                index=i,
                length=lengths[i],
                initial_length=initials[i],
                passes=passes[i],
                stop_reason=reasons[i] or "completed",
            )
            for i in range(restarts)
        ]
        sp.add(
            winner=winner_index,
            final_length=best_schedule.length,
            stages=stages,
        )
        metrics.inc("perf.restarts.runs")
    return RestartReport(
        schedule=best_schedule,
        graph=best_graph,
        retiming=best_retiming,
        winner=outcomes[winner_index],
        outcomes=outcomes,
        seed=seed,
        restarts=restarts,
        jobs=jobs,
        stages=stages,
        lower_bound=lower,
    )
