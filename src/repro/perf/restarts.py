"""Best-of-N compaction restarts (``repro schedule --restarts``).

Cyclo-compaction is deterministic, so re-running it buys nothing — but
its outcome depends on the start-up schedule, and the start-up schedule
depends on the priority function.  :func:`best_of_restarts` runs ``N``
restarts whose priorities are deterministically jittered per restart
index (restart 0 is the plain paper priority, so the best-of-N result
is never worse than the single run) and returns the shortest schedule
found.

Each restart is one whole, independent :func:`cyclo_compact` run,
fanned out over :func:`repro.perf.run_parallel`.  The shortest result
wins and ties go to the lowest restart index.  ``run_parallel``
returns results in item order, so the outcome is **identical for every
``jobs`` value** — the worker count changes only wall-clock time,
never the winner (pinned in ``tests/unit/test_restarts.py``).
Wall-clock deadlines are stripped from the config: a deadline would
make a restart's outcome depend on machine speed, which is exactly
what the jobs-invariance guarantee forbids.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.core.priority import PriorityKey, paper_priority
from repro.core.startup import start_up_schedule
from repro.errors import SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.obs import metrics, span
from repro.perf.parallel import run_parallel
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
    ``converged`` / ``patience``).
    """

    index: int
    length: int
    initial_length: int
    passes: int
    stop_reason: str


@dataclass
class RestartReport:
    """Result of :func:`best_of_restarts`.

    ``result`` is the winning restart's whole
    :class:`~repro.core.cyclo.CycloResult`; ``schedule``/``graph``/
    ``retiming`` read it.  ``outcomes`` records every restart in
    restart order.
    """

    result: CycloResult
    winner: RestartOutcome
    outcomes: list[RestartOutcome]
    seed: int
    restarts: int
    jobs: int

    @property
    def schedule(self) -> ScheduleTable:
        return self.result.schedule

    @property
    def graph(self) -> CSDFG:
        return self.result.graph

    @property
    def retiming(self) -> dict[Node, int]:
        return self.result.retiming

    @property
    def final_length(self) -> int:
        return self.result.final_length


def _run_restart(payload: tuple) -> CycloResult:
    """One whole restart (worker side)."""
    graph, arch, cfg, seed, index = payload
    priority = paper_priority if index == 0 else JitteredPriority(seed, index)
    initial = start_up_schedule(
        graph, arch, priority=priority, pipelined_pes=cfg.pipelined_pes
    )
    return cyclo_compact(graph, arch, config=cfg, initial=initial)


def best_of_restarts(
    graph: CSDFG,
    arch: Architecture,
    config: CycloConfig | None = None,
    *,
    restarts: int,
    jobs: int = 1,
    seed: int = 0,
) -> RestartReport:
    """Best schedule over ``restarts`` jittered compaction restarts.

    Parameters
    ----------
    restarts:
        How many restarts to run (>= 1).  Restart 0 uses the plain
        paper priority, so the report is never worse than a single
        :func:`~repro.core.cyclo.cyclo_compact` run of the same config.
    jobs:
        Worker processes (forwarded to :func:`repro.perf.run_parallel`).
        Changes wall-clock only — the winner, lengths and placements
        are jobs-invariant.
    seed:
        Seeds the per-restart priority jitter.

    The config's ``deadline_seconds`` is ignored (restarts must not
    depend on wall clock); apply an outer budget around this call
    instead.
    """
    if restarts < 1:
        raise SchedulingError(f"restarts must be >= 1, got {restarts}")
    cfg = replace(
        config if config is not None else CycloConfig(),
        deadline_seconds=None,
    )

    with span(
        "best_of_restarts",
        workload=graph.name,
        arch=arch.name,
        restarts=restarts,
        jobs=jobs,
    ) as sp:
        results = run_parallel(
            _run_restart,
            [(graph, arch, cfg, seed, i) for i in range(restarts)],
            jobs=jobs,
        )
        outcomes = [
            RestartOutcome(
                index=i,
                length=r.final_length,
                initial_length=r.initial_length,
                passes=len(r.trace.records),
                stop_reason=r.stop_reason,
            )
            for i, r in enumerate(results)
        ]
        winner = min(outcomes, key=lambda o: (o.length, o.index))
        sp.add(winner=winner.index, final_length=winner.length)
        metrics.inc("perf.restarts.runs")
    return RestartReport(
        result=results[winner.index],
        winner=winner,
        outcomes=outcomes,
        seed=seed,
        restarts=restarts,
        jobs=jobs,
    )
