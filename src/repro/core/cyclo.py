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
back a half-mutated table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
from repro.graph.validation import (
    kahn_order,
    topological_order_zero_delay,
    zero_delay_row,
    zero_delay_rows,
)
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
        graph is never mutated).  When the working state ends on the
        best retiming this is the same object as ``final_graph``.
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
    final_schedule / final_graph:
        The *working* schedule and retimed graph when the loop stopped.
        The working schedule may be longer than the best one; the
        ``schedules-legal`` fuzz property checks that it is legal too.
    """

    schedule: ScheduleTable
    graph: CSDFG
    retiming: dict[Node, int]
    initial_schedule: ScheduleTable
    trace: CompactionTrace
    stop_reason: str
    final_schedule: ScheduleTable
    final_graph: CSDFG

    @property
    def initial_length(self) -> int:
        return self.initial_schedule.length

    @property
    def final_length(self) -> int:
        return self.schedule.length


@dataclass
class _LoopState:
    """Mutable optimiser state threaded through the pass loop.
    ``tracker`` is the PSL tracker seeded from the working schedule and
    updated incrementally by each remapping pass.  The best graph is
    not kept: it differs from the working graph purely by retiming
    counts, so it is materialised from ``best_retiming`` only when the
    result is built."""

    working: CSDFG
    schedule: ScheduleTable
    retiming: dict[Node, int]
    best_schedule: ScheduleTable
    best_retiming: dict[Node, int]
    initial_schedule: ScheduleTable
    trace: CompactionTrace
    tracker: PSLTracker
    stall: int = 0


class _TopoRankCache:
    """Zero-delay Kahn ranks of the rotated sets, from an integer
    adjacency kept for one run.

    :func:`remap_nodes` re-places a rotated set in the order of
    :func:`topological_order_zero_delay` (the slot tie-break), which
    depends only on the zero-delay subgraph.  Nodes are indexed by
    position in ``graph._time`` (the walk's seed order); each row holds
    a node's zero-delay successor indices in ``graph._succ`` order,
    which ``set_delay`` never reorders.  A rotation or its undo only
    changes edges incident to the rotated set, so a pass rebuilds just
    the rows of the rotated nodes and of their in-edge sources, and the
    ranks are walked again only when a row changed.  The walk runs
    LIFO over indices exactly like the dict walk, so the order is the
    same.  Nothing is built until a set of two or more nodes needs
    ranks: single-node runs never pay for the adjacency.
    """

    __slots__ = ("_index", "_rows", "_indeg", "_pos")

    def __init__(self) -> None:
        self._index: dict[Node, int] = {}
        self._rows: list[list[int]] = []
        self._indeg: list[int] = []
        self._pos: list[int] | None = None  # index -> rank; None = stale

    def ranks(self, graph: CSDFG, rotated: list[Node]) -> dict[Node, int] | None:
        """Ranks of the ``rotated`` nodes in ``graph`` as rotated;
        ``None`` when the remap cannot need them (fewer than two
        rotated nodes)."""
        if self._index:
            self._resync(graph, rotated)
        if len(rotated) <= 1:
            return None
        if not self._index:
            self._build(graph)
        if self._pos is None:
            metrics.inc("remap.toporank_rebuilds")
            self._pos = self._walk(graph)
        else:
            metrics.inc("remap.toporank_reuses")
        pos, index = self._pos, self._index
        return {v: pos[index[v]] for v in rotated}

    def note_rollback(self, graph: CSDFG, rotated: list[Node]) -> None:
        """A rejected pass undid the rotation of ``rotated``."""
        if self._index:
            self._resync(graph, rotated)

    def _build(self, graph: CSDFG) -> None:
        nodes, self._rows = zero_delay_rows(graph)
        self._index = {v: i for i, v in enumerate(nodes)}
        indeg = self._indeg = [0] * len(self._rows)
        for row in self._rows:
            for w in row:
                indeg[w] += 1

    def _resync(self, graph: CSDFG, rotated: list[Node]) -> None:
        succ, pred = graph._succ, graph._pred
        touched = set(rotated)
        for v in rotated:
            touched.update(pred[v])
        index, rows, indeg = self._index, self._rows, self._indeg
        for u in touched:
            i = index[u]
            row = zero_delay_row(succ[u], index)
            if row != rows[i]:
                for w in rows[i]:
                    indeg[w] -= 1
                for w in row:
                    indeg[w] += 1
                rows[i] = row
                self._pos = None

    def _walk(self, graph: CSDFG) -> list[int]:
        order = kahn_order(self._rows, self._indeg)
        pos = [0] * len(self._rows)
        for rank, u in enumerate(order):
            pos[u] = rank
        if len(order) != len(pos):
            # a zero-delay cycle: the dict walk names it in its error
            topological_order_zero_delay(graph)
            raise SchedulingError(  # pragma: no cover - defensive
                "zero-delay adjacency out of sync"
            )
        return pos


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

    The returned schedule is always certified (one
    :func:`~repro.schedule.validate.collect_violations` walk under
    ``comm``, whatever ``validate_each_step`` and ``recover_on_error``
    say); an illegal one raises :class:`ScheduleValidationError`.  The
    input graph is copied, never mutated.
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
        # one PSL walk: the run's tracker is seeded from the unpadded
        # placements and pads the table (start-up's own pad would walk
        # every edge a second time)
        schedule = start_up_schedule(
            working, arch, pipelined_pes=cfg.pipelined_pes, comm=comm,
            pad_for_delayed_edges=False,
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
    tracker = PSLTracker(
        working, arch, schedule, comm=comm, pipelined_pes=cfg.pipelined_pes,
    )
    if initial is None:
        schedule.set_length(tracker.projected_length())
    retiming = {v: 0 for v in working.nodes()}
    return _LoopState(
        working=working,
        schedule=schedule,
        retiming=retiming,
        best_schedule=schedule.copy(),
        best_retiming=dict(retiming),
        initial_schedule=schedule.copy(),
        trace=CompactionTrace(initial_length=schedule.length),
        tracker=tracker,
    )


def _run_passes(
    state: _LoopState,
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    *,
    comm: CommCostCache,
) -> CycloResult:
    """Drive passes ``1 .. z``, honouring every budget, and certify the
    best schedule before returning it."""
    started = time.monotonic()  # repro-lint: disable=RD103 (deadline budget, result-neutral)
    stop_reason = "completed"
    total = cfg.iterations_for(state.working.num_nodes)
    topo_cache = _TopoRankCache()
    for index in range(1, total + 1):
        if (
            cfg.deadline_seconds is not None
            and time.monotonic() - started >= cfg.deadline_seconds  # repro-lint: disable=RD103 (deadline budget, result-neutral)
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
        if outcome_reason is not None:
            stop_reason = outcome_reason
            break

    if stop_reason != "error" and state.best_retiming == state.retiming:
        # the working graph is the best one (a pass that raised may
        # have left it half-rotated, so it is not trusted then)
        best_graph = state.working
    else:
        # copy-on-write: materialise the best graph from the retiming
        # (same name the eager working.copy() used to carry)
        best_graph = apply_retiming(graph, state.best_retiming, name=graph.name)
    # certify what is returned, under the prices that steered the run
    violations = collect_violations(
        best_graph, arch, state.best_schedule,
        pipelined_pes=cfg.pipelined_pes, comm=comm,
    )
    if violations:
        raise ScheduleValidationError(
            ["cyclo-compaction returned an illegal schedule"] + violations
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
    )


def _one_pass(
    state: _LoopState,
    arch: Architecture,
    cfg: CycloConfig,
    index: int,
    *,
    comm: CommCostCache,
    topo_cache: _TopoRankCache,
) -> str | None:
    """One rotate+remap pass; a stop reason string ends the loop."""
    working, schedule, retiming = state.working, state.schedule, state.retiming
    tracker = state.tracker
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
            undo_rotation(
                working, schedule, rotated, old_placements, previous_length
            )
            topo_cache.note_rollback(working, rotated)
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
