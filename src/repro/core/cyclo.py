"""Cyclo-compaction scheduling — the paper's Algorithm Cyclo-Compact.

Drives repeated rotation (implicit retiming / loop pipelining) and
communication-sensitive remapping passes over an initial schedule,
keeping the best schedule encountered::

    S <- Start-Up-Schedule(G);  Q <- S
    for n in 1..z:
        (G, S) <- Rotate-Remap(G, S)
        if length(S) < length(Q): Q <- S
    return Q

*Remapping without relaxation* rolls a pass back whenever it would
lengthen the schedule (Theorem 4.4: lengths are monotonically
non-increasing); since a rolled-back pass would repeat identically, the
driver stops there.  *Remapping with relaxation* lets intermediate
schedules grow and relies on the best-seen bookkeeping.

Hardened budgets (``repro.resilience``): the loop honours a wall-clock
``deadline_seconds`` and, with ``recover_on_error``, an exception
inside a pass — instead of propagating — stops the loop and returns
the best legal schedule found before it.  Both paths go through the
same best-schedule bookkeeping, so budget exhaustion can never hand
back a half-mutated table.  The final *working* state (schedule,
retimed graph, retiming, stall counter) rides along on the result so
:mod:`repro.resilience.checkpoint` can serialize an interrupted run
and resume it exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.core.psl import PSLTracker
from repro.core.remapping import remap_nodes
from repro.core.rotation import rotate_schedule, undo_rotation
from repro.core.startup import start_up_schedule
from repro.core.trace import CompactionTrace, IterationRecord
from repro.errors import ScheduleValidationError, SchedulingError
from repro.obs import metrics, span
from repro.graph.csdfg import CSDFG, Node
from repro.graph.validation import topological_order_zero_delay
from repro.retiming.basic import apply_retiming
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import collect_violations

__all__ = ["CycloResult", "cyclo_compact"]


@dataclass
class CycloResult:
    """Output of :func:`cyclo_compact`.

    Attributes
    ----------
    schedule:
        The best (shortest) legal schedule found.
    graph:
        The retimed CSDFG matching ``schedule`` (the original input
        graph is never mutated).
    retiming:
        Cumulative retiming mapping the input graph to ``graph``
        (``graph == apply_retiming(input, retiming)``).
    initial_schedule:
        The start-up schedule the optimisation began from.
    trace:
        Per-pass records (lengths, rotated sets, accept/reject).
    stop_reason:
        Why the loop ended: ``"completed"`` (pass budget spent),
        ``"converged"`` (a monotone pass was rejected),
        ``"patience"`` (no improvement streak), ``"deadline"``
        (wall-clock budget exhausted) or ``"error"`` (a pass raised and
        ``recover_on_error`` was set).
    final_schedule / final_graph / final_retiming / final_stall:
        The *working* optimiser state when the loop stopped — what a
        checkpoint must capture to resume the run exactly (the best-*
        fields alone are not enough: the working schedule may be longer
        than the best one).
    """

    schedule: ScheduleTable
    graph: CSDFG
    retiming: dict[Node, int]
    initial_schedule: ScheduleTable
    trace: CompactionTrace
    stop_reason: str = "completed"
    final_schedule: ScheduleTable | None = None
    final_graph: CSDFG | None = None
    final_retiming: dict[Node, int] = field(default_factory=dict)
    final_stall: int = 0

    @property
    def initial_length(self) -> int:
        return self.initial_schedule.length

    @property
    def final_length(self) -> int:
        return self.schedule.length


@dataclass
class _LoopState:
    """Mutable optimiser state threaded through the pass loop (and
    restored verbatim by a checkpoint resume)."""

    working: CSDFG
    schedule: ScheduleTable
    retiming: dict[Node, int]
    best_schedule: ScheduleTable
    # None = copy-on-write: the best graph is materialised from
    # best_retiming only when the result is built (the working graph
    # differs from it purely by retiming counts)
    best_graph: CSDFG | None
    best_retiming: dict[Node, int]
    initial_schedule: ScheduleTable
    trace: CompactionTrace
    stall: int = 0
    next_index: int = 1


def _zero_delay_flipped(graph: CSDFG, rotated: list[Node]) -> bool:
    """Whether the last rotation changed the zero-delay subgraph.

    Rotation draws one delay from each edge entering the rotated set
    and pushes one onto each edge leaving it (edges internal to the
    set are untouched), so the zero-delay structure changed iff some
    entering edge just reached delay 0 or some leaving edge sits at
    delay 1 now (0 before).
    """
    rot = set(rotated)
    pred, succ = graph._pred, graph._succ
    for v in rotated:
        for e in pred[v].values():
            if e.delay == 0 and e.src not in rot:
                return True
        for e in succ[v].values():
            if e.delay == 1 and e.dst not in rot:
                return True
    return False


class _TopoRankCache:
    """Cross-pass cache of the zero-delay topological ranks feeding
    :func:`remap_nodes`'s placement order.

    Kahn's walk over the full graph is O(V + E) *per pass*; on
    thousand-node graphs it dominated everything the remapping fast
    path had saved.  The placement order only depends on the zero-delay
    subgraph, which a rotation leaves untouched unless it flips some
    edge's zero-delay status — so the ranks are rebuilt exactly on a
    flip (and dropped when a rollback reverts one) and reused
    otherwise.  Rank uniqueness makes the cached full-graph order sort
    identically to the per-pass restricted order it replaces.
    """

    __slots__ = ("_rank", "_fresh")

    def __init__(self) -> None:
        self._rank: dict[Node, int] | None = None
        self._fresh = False

    def ranks(self, graph: CSDFG, rotated: list[Node]) -> dict[Node, int] | None:
        """Ranks valid for ``graph`` as rotated; ``None`` only when the
        remap cannot need them (fewer than two rotated nodes)."""
        if self._rank is not None and _zero_delay_flipped(graph, rotated):
            self._rank = None
        self._fresh = False
        if len(rotated) <= 1:
            return self._rank
        if self._rank is None:
            metrics.inc("remap.toporank_rebuilds")
            self._rank = {
                v: i
                for i, v in enumerate(topological_order_zero_delay(graph))
            }
            self._fresh = True
        else:
            metrics.inc("remap.toporank_reuses")
        return self._rank

    def note_rollback(self) -> None:
        """A rejected pass undid its rotation: ranks built from the
        rotated graph no longer match the restored one."""
        if self._fresh:
            self._rank = None


def cyclo_compact(
    graph: CSDFG,
    arch: Architecture,
    *,
    config: CycloConfig | None = None,
    initial: ScheduleTable | None = None,
    comm: CommCostCache | None = None,
) -> CycloResult:
    """Run cyclo-compaction scheduling of ``graph`` on ``arch``.

    Parameters
    ----------
    config:
        Optimiser options (defaults to relaxed remapping, ``3 * |V|``
        passes).
    initial:
        Optional starting schedule (defaults to the paper's start-up
        schedule).  It must be legal for ``graph`` on ``arch``.
    comm:
        Optional pre-built :class:`CommCostCache` pricing this run —
        the hook the contention-aware pipeline uses to schedule under
        surcharged (frozen-occupancy) prices.  Defaults to the plain
        contention-free cache.  Every in-run consumer (start-up,
        remapping, PSL, validation) prices through it, so the returned
        schedule is legal w.r.t. exactly this cache's cost function.

    The input graph is copied, never mutated.
    """
    cfg = config if config is not None else CycloConfig()
    with span("cyclo_compact", workload=graph.name, arch=arch.name) as sp:
        # edge volumes are copy- and retiming-invariant, so one cache
        # built from the input graph serves the whole run
        if comm is None:
            comm = CommCostCache.for_graph(arch, graph)
        state = _initial_state(graph, arch, cfg, initial, comm=comm)
        result = _run_passes(state, graph, arch, cfg, comm=comm)
        sp.add(
            initial_length=result.initial_length,
            final_length=result.final_length,
            passes=len(result.trace.records),
            stop_reason=result.stop_reason,
        )
        # publish the hot-subsystem tallies exactly once per run (the
        # working table carries the probe/shift counts; best/initial
        # copies start from fresh zeros)
        comm.publish_stats()
        if result.final_schedule is not None:
            result.final_schedule.publish_stats()
    return result


def _initial_state(
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    initial: ScheduleTable | None,
    *,
    comm: CommCostCache,
) -> _LoopState:
    working = graph.copy()
    if initial is None:
        schedule = start_up_schedule(
            working, arch, pipelined_pes=cfg.pipelined_pes, comm=comm
        )
    else:
        violations = collect_violations(
            working, arch, initial, pipelined_pes=cfg.pipelined_pes, comm=comm
        )
        if violations:
            raise ScheduleValidationError(
                ["initial schedule is illegal"] + violations
            )
        schedule = initial.copy()
    retiming = {v: 0 for v in working.nodes()}
    return _LoopState(
        working=working,
        schedule=schedule,
        retiming=retiming,
        best_schedule=schedule.copy(),
        best_graph=None,
        best_retiming=dict(retiming),
        initial_schedule=schedule.copy(),
        trace=CompactionTrace(initial_length=schedule.length),
    )


def _run_passes(
    state: _LoopState,
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    *,
    comm: CommCostCache,
) -> CycloResult:
    """Drive passes ``state.next_index .. z``, honouring every budget."""
    started = time.monotonic()  # repro-lint: disable=RL102,RD103 (deadline budget, result-neutral)
    stop_reason = "completed"
    total = cfg.iterations_for(state.working.num_nodes)

    # the tracker is seeded from the (legal) working schedule and
    # updated incrementally by each remapping pass
    tracker = PSLTracker(
        state.working,
        arch,
        state.schedule,
        comm=comm,
        pipelined_pes=cfg.pipelined_pes,
    )
    topo_cache = _TopoRankCache()
    for index in range(state.next_index, total + 1):
        if (
            cfg.deadline_seconds is not None
            and time.monotonic() - started >= cfg.deadline_seconds  # repro-lint: disable=RL102,RD103 (deadline budget, result-neutral)
        ):
            metrics.inc("cyclo.deadline_stops")
            stop_reason = "deadline"
            break
        try:
            outcome_reason = _one_pass(
                state,
                arch,
                cfg,
                index,
                comm=comm,
                tracker=tracker,
                topo_cache=topo_cache,
            )
        except Exception:  # repro-lint: disable=RL105 (recover_on_error boundary)
            if not cfg.recover_on_error:
                raise
            # the working table may be half-mutated; the best-* fields
            # are clean validated copies, which is what we return
            metrics.inc("cyclo.recovered_errors")
            stop_reason = "error"
            break
        state.next_index = index + 1
        if outcome_reason is not None:
            stop_reason = outcome_reason
            break

    best_graph = state.best_graph
    if best_graph is None:
        # copy-on-write: materialise the best graph from the retiming
        # (same name the eager working.copy() used to carry)
        best_graph = apply_retiming(
            graph, state.best_retiming, name=graph.name
        )
    return CycloResult(
        schedule=state.best_schedule,
        graph=best_graph,
        retiming=state.best_retiming,
        initial_schedule=state.initial_schedule,
        trace=state.trace,
        stop_reason=stop_reason,
        final_schedule=state.schedule,
        final_graph=state.working,
        final_retiming=dict(state.retiming),
        final_stall=state.stall,
    )


def _one_pass(
    state: _LoopState,
    arch: Architecture,
    cfg: CycloConfig,
    index: int,
    *,
    comm: CommCostCache,
    tracker: PSLTracker,
    topo_cache: _TopoRankCache,
) -> str | None:
    """One rotate+remap pass; a stop reason string ends the loop."""
    working, schedule, retiming = state.working, state.schedule, state.retiming
    with span("pass", index=index) as pass_span:
        metrics.inc("cyclo.passes")
        previous_length = schedule.length
        with span("rotate", index=index):
            rotated, old_placements = rotate_schedule(working, schedule)
        for node in rotated:
            retiming[node] += 1
        topo_rank = topo_cache.ranks(working, rotated)
        with span("remap", index=index, nodes=len(rotated)):
            outcome = remap_nodes(
                working,
                arch,
                schedule,
                rotated,
                previous_length=previous_length,
                relaxation=cfg.relaxation,
                pipelined_pes=cfg.pipelined_pes,
                strategy=cfg.remap_strategy,
                comm=comm,
                psl=tracker,
                topo_rank=topo_rank,
                debug_check=cfg.validate_each_step,
            )
        if not outcome.accepted:
            metrics.inc("cyclo.rejected")
            metrics.inc("cyclo.rollbacks")
            topo_cache.note_rollback()
            undo_rotation(
                working, schedule, rotated, old_placements, previous_length
            )
            for node in rotated:
                retiming[node] -= 1
            state.trace.records.append(
                IterationRecord(
                    index=index,
                    rotated=tuple(rotated),
                    accepted=False,
                    length_after=schedule.length,
                    best_so_far=state.best_schedule.length,
                )
            )
            pass_span.add(accepted=False, length=schedule.length)
            # a rejected pass would repeat identically: stop here
            return "converged"

        metrics.inc("cyclo.accepted")
        if cfg.validate_each_step:
            violations = collect_violations(
                working, arch, schedule, pipelined_pes=cfg.pipelined_pes,
                comm=comm,
            )
            if violations:  # pragma: no cover - internal invariant
                raise SchedulingError(
                    "cyclo-compaction produced an illegal intermediate "
                    "schedule: " + "; ".join(violations)
                )

        improved = schedule.length < state.best_schedule.length
        if improved:
            metrics.inc("cyclo.improved")
            state.best_schedule = schedule.copy()
            state.best_graph = None  # rebuilt from best_retiming on demand
            state.best_retiming = dict(retiming)
            state.stall = 0
        else:
            state.stall += 1

        state.trace.records.append(
            IterationRecord(
                index=index,
                rotated=tuple(rotated),
                accepted=True,
                length_after=schedule.length,
                best_so_far=state.best_schedule.length,
            )
        )
        pass_span.add(accepted=True, length=schedule.length)
        if cfg.patience is not None and state.stall >= cfg.patience:
            return "patience"
    return None
