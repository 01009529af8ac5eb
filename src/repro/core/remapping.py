"""The remapping phase (Definition 4.2): re-place rotated nodes.

Each rotated node is re-placed by scoring every free (processor,
control-step) slot with its **implied schedule length** — the smallest
``L`` at which that placement satisfies every dependence
incident to already-placed neighbours::

    in-edge  u -> v, dr = 0 :  cb >= CE(u) + M + 1          (feasibility)
    in-edge  u -> v, dr > 0 :  L >= ceil((CE(u) + M + 1 - cb) / dr)
    out-edge v -> x, dr = 0 :  CB(x) >= ce + M + 1           (feasibility)
    out-edge v -> x, dr > 0 :  L >= ceil((ce + M + 1 - CB(x)) / dr)

plus the node's own finish ``ce``.  The slot with the smallest implied
length wins (ties: earlier finish, earlier start, lower PE) — this is
the paper's remapping side condition "``CB(u) >= AN(u)``, ``CE(u) <
length(S)`` and ``PSL(v) <= length(S)`` for all v" turned from a filter
into the search objective.

*Remapping without relaxation* caps the implied length at the previous
schedule length and reports failure when any rotated node has no
admissible slot — the caller rolls the pass back, giving Theorem 4.4's
monotonicity.  *Remapping with relaxation* always places (the implied
length may exceed the previous length; the driver keeps the best
schedule seen, per Definition 4.2).

Fast path
---------
The slot search hoists all communication costs out of the per-slot
work: for each constraint the full per-candidate-PE cost row is fetched
once from a :class:`~repro.arch.cache.CommCostCache`, and each candidate
PE folds the rows into scalar floor/ceiling/delayed-bound constants.
Zero-delay *in* constraints are enforced entirely by the floor (every
start at or past it satisfies them); zero-delay *out* constraints give
a start-step ceiling past which every start violates one.

On one PE the search never walks free cells.  Write a start ``cb``'s
implied length as ``f(cb) = max(D(cb), U(cb))``, where ``D`` is the
delayed in-edges' bound ``max ceil((need - cb) / dr)`` (non-increasing
in ``cb``) and ``U`` is the finish ``ce``, the self-loop bound and the
delayed out-edges' bound ``max ceil((cb + base) / dr)`` (non-decreasing).
So ``f`` falls and then rises, and with the key ``(implied, ce, cb,
pe)`` a PE's best free start is one of two:

* right of the crossing ``c0`` (the first start with ``D <= U``, a
  binary search on plain integers) ``f = U`` is non-decreasing, so the
  earliest free start at or past ``c0`` wins there;
* left of it ``f = D`` is non-increasing, so the latest free start
  before ``c0`` (:meth:`~repro.schedule.table.ScheduleTable.last_free_start`)
  scores best there, and ``D``'s plateaus (``dr >= 2``) hand the tie
  to the earliest free start with the same score.

The left candidate wins ties (it starts earlier); the cap then accepts
or rejects the PE's winner, which has the PE's smallest implied length.
With no delayed in-edges ``c0`` is the floor and one
:meth:`~repro.schedule.table.ScheduleTable.earliest_slot` query decides
the PE.  ``first-fit`` keeps the earliest free start whose implied
length fits the cap; ``{f <= cap}`` is an integer interval whose ends
are closed forms, so that is one query too.  The search range also
ends where the incumbent from earlier PEs provably wins (every key
starts with ``implied >= ce``, or ``cb`` for first-fit).  The
``remap.candidate_slots`` metric counts the starts scored: at most two
per PE searched.  ``repro.perf.reference.reference_find_spot`` still
walks every free cell and is the oracle for all of this.

The per-PE floor/ceiling folds run once per node through
:func:`repro.core.kernels.fold_max` / ``fold_min`` over all candidate
PEs, and callers that already hold the rotated set's zero-delay Kahn
ranks (the compaction loop keeps an integer zero-delay adjacency
across passes) pass them via ``topo_rank`` and skip the per-pass dict
walk.

An optional :class:`~repro.core.psl.PSLTracker` replaces the full
``projected_schedule_length`` rescan after the placements with an
incremental update over edges incident to the remapped set.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core import kernels
from repro.core.psl import PSLTracker, projected_schedule_length
from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.validation import topological_order_zero_delay
from repro.obs import metrics
from repro.schedule.table import ScheduleTable

__all__ = ["RemapOutcome", "remap_nodes"]


@dataclass
class RemapOutcome:
    """Result of one remapping pass.

    Attributes
    ----------
    accepted:
        False when the without-relaxation policy rejected the pass (the
        caller must roll back).
    new_length:
        Schedule length after the pass (meaningful when accepted).
    placements:
        Where each rotated node landed, ``node -> (pe, cb)``.
    """

    accepted: bool
    new_length: int
    placements: dict[Node, tuple[int, int]] = field(default_factory=dict)


def remap_nodes(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    nodes: list[Node],
    *,
    previous_length: int,
    relaxation: bool,
    pipelined_pes: bool = False,
    strategy: str = "implied",
    comm: CommCostCache | None = None,
    psl: PSLTracker | None = None,
    topo_rank: dict[Node, int] | None = None,
    debug_check: bool = False,
) -> RemapOutcome:
    """Place ``nodes`` (already rotated out of ``schedule``) back in.

    ``schedule`` must be the rotated/renumbered table (length
    ``previous_length - 1`` with the rotated nodes absent).  On a
    rejected pass the trial placements are removed again so the caller
    can restore its snapshot cheaply.  ``strategy`` selects the slot
    search: ``"implied"`` (this implementation's scoring) or
    ``"first-fit"`` (the paper's literal procedure).

    ``comm`` prices every placement (a plain
    :class:`~repro.arch.cache.CommCostCache` for ``graph`` when
    omitted); ``psl`` supplies incremental projected-schedule-length
    bounds (its edge snapshot is restored on every rejected pass, so
    the tracker always reflects the schedule the caller sees).
    ``topo_rank`` optionally supplies, for each node of ``nodes``, its
    position in the full-graph zero-delay Kahn order under the graph's
    *current* delays, so the placement order need not re-run Kahn's
    algorithm.  ``debug_check=True`` cross-checks that order against a
    fresh walk and the incremental length against the full rescan, and
    raises :class:`SchedulingError` on divergence.
    """
    if comm is None:
        comm = CommCostCache.for_graph(arch, graph)
    ordered = _placement_order(graph, nodes, topo_rank)
    if debug_check and topo_rank is not None:
        walked = _placement_order(graph, nodes)
        if walked != ordered:
            raise SchedulingError(
                f"cached placement order {list(map(str, ordered))} != "
                f"Kahn order {list(map(str, walked))}"
            )
    placed: list[Node] = []
    outcome = RemapOutcome(accepted=True, new_length=previous_length)
    cap = None if relaxation else previous_length
    metrics.inc("remap.nodes", len(ordered))
    # the snapshot is only consumed by the no-relaxation reject path
    # (an infeasible update commits nothing, so it needs no restore)
    snap = psl.snapshot(nodes) if psl is not None and not relaxation else None

    for node in ordered:
        spot = _find_spot(
            graph,
            arch,
            schedule,
            node,
            cap=cap,
            pipelined_pes=pipelined_pes,
            strategy=strategy,
            comm=comm,
        )
        if spot is None:
            metrics.inc("remap.unplaceable_nodes")
            _rollback(schedule, placed)
            return RemapOutcome(accepted=False, new_length=previous_length)
        pe, cb, duration = spot
        occupancy = 1 if pipelined_pes else duration
        schedule.place(node, pe, cb, duration, occupancy)
        placed.append(node)
        outcome.placements[node] = (pe, cb)

    if psl is not None:
        new_length = psl.update_nodes(nodes)
        if new_length is None:  # pragma: no cover - defensive
            _rollback(schedule, placed)
            return RemapOutcome(accepted=False, new_length=previous_length)
        if debug_check:
            full = projected_schedule_length(
                graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
            )
            if full != new_length:
                raise SchedulingError(
                    f"incremental PSL {new_length} != full rescan {full} "
                    f"after remapping {sorted(map(str, nodes))}"
                )
    else:
        try:
            new_length = projected_schedule_length(
                graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
            )
        except InfeasibleScheduleError:  # pragma: no cover - defensive
            _rollback(schedule, placed)
            return RemapOutcome(accepted=False, new_length=previous_length)

    if not relaxation and new_length > previous_length:
        _rollback(schedule, placed)
        if psl is not None:
            psl.restore(snap)
        return RemapOutcome(accepted=False, new_length=previous_length)

    schedule.trim()
    schedule.set_length(max(new_length, schedule.makespan))
    outcome.new_length = schedule.length
    return outcome


def _placement_order(
    graph: CSDFG,
    nodes: list[Node],
    topo_rank: dict[Node, int] | None = None,
) -> list[Node]:
    """Zero-delay topological order restricted to ``nodes``.

    For an arbitrary node set (``resilience/repair.py`` remaps the
    tasks of failed PEs) the order is a dependence requirement: a
    node's intra-iteration producers inside the set are placed first.
    For a *rotated* set it is not — after a rotation no rotated node
    has a zero-delay out-edge (edges leaving the set gain a delay and
    internal edges already carry one), so the order is only a
    deterministic tie-break.  It still decides which node claims a
    contested slot first, so it must stay to keep schedules identical.

    ``topo_rank`` holds each node's position in the full-graph Kahn
    order (:func:`topological_order_zero_delay`); when omitted the walk
    runs here.  Positions are unique, so they alone decide the sort.
    """
    if len(nodes) <= 1:
        return list(nodes)
    if topo_rank is None:
        topo_rank = {
            v: i for i, v in enumerate(topological_order_zero_delay(graph))
        }
    return sorted(nodes, key=topo_rank.__getitem__)


def _find_spot(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    node: Node,
    *,
    cap: int | None,
    pipelined_pes: bool = False,
    strategy: str = "implied",
    comm: CommCostCache,
) -> tuple[int, int, int] | None:
    """Best ``(pe, cb, duration)`` slot for ``node``, priced by ``comm``
    (which must cover the graph's edge volumes).

    ``strategy="implied"`` minimises the implied schedule length over
    every free slot up to the horizon (found per PE by the closed-form
    search of the module docstring); ``strategy="first-fit"`` takes the
    earliest available slot at or after the anticipation bound,
    minimised across processors (the paper's procedure) — the cap still
    enforces the paper's ``PSL <= length(S)`` side condition.
    Returns ``None`` when no admissible slot fits under ``cap``.  The
    duration is the node's execution time on the chosen PE
    (heterogeneous machines scale it).
    """
    base_time = graph.time(node)
    tail = max(schedule.length, schedule.makespan)

    # constraint rows: one comm-cost fetch per constraint, not per slot
    in_zero: list[tuple[list[int | None], int]] = []  # (row, CE(u))
    in_delayed: list[tuple[list[int | None], int, int]] = []  # (row, CE, dr)
    out_zero: list[tuple[list[int | None], int]] = []  # (row, CB(x))
    out_delayed: list[tuple[list[int | None], int, int]] = []  # (row, CB, dr)
    self_loops: list[int] = []
    # stored records plus the table origin: absolute start = start + origin
    placements, origin = schedule.stored_placements()
    for e in graph._pred[node].values():
        if e.src == node:
            self_loops.append(max(1, e.delay))
            continue
        p = placements.get(e.src)
        if p is not None:
            row = comm.row_from(p.pe, e.volume)
            finish_u = p.start + origin + p.duration - 1
            if e.delay == 0:
                in_zero.append((row, finish_u))
            else:
                in_delayed.append((row, finish_u, e.delay))
    for e in graph._succ[node].values():
        if e.dst == node:
            continue
        p = placements.get(e.dst)
        if p is None:
            continue
        row = comm.row_to(p.pe, e.volume)
        cb_x = p.start + origin
        if e.delay == 0:
            out_zero.append((row, cb_x))
        else:
            out_delayed.append((row, cb_x, e.delay))

    time_scales = arch.time_scales
    first_fit = strategy == "first-fit"
    best: tuple[int, int, int, int, int] | None = None
    pes_scanned = 0
    slots_scanned = 0
    processors = arch.processors
    # zero-delay floor/ceiling rows folded over all candidate PEs at once
    floors = (
        kernels.fold_max(
            [(row, ce_u + 1) for row, ce_u in in_zero], processors, 1
        )
        if in_zero
        else None
    )
    ceilings = kernels.fold_min(out_zero, processors) if out_zero else None
    # key: (implied, ce, cb, pe) for "implied"; (cb, ce, pe) lifted into
    # the same tuple shape for "first-fit"
    for j, pe in enumerate(processors):
        pes_scanned += 1
        duration = base_time * time_scales[pe]
        occupancy = 1 if pipelined_pes else duration
        # self-loop: L >= ceil(duration / d), placement-independent
        self_loop_bound = 0
        for d in self_loops:
            bound = -(-duration // d)
            if bound > self_loop_bound:
                self_loop_bound = bound
        # earliest start admissible w.r.t. zero-delay producers; every
        # slot at or past the floor satisfies all zero-delay in-edges
        floor = floors[j] if floors is not None else 1
        # with a cap, slots beyond it are pointless; without one, search
        # far enough past the tail (and past the floor) that a free
        # slot is guaranteed on every PE
        horizon = (
            cap
            if cap is not None
            else (tail if tail > floor else floor) + duration
        )
        last = horizon - occupancy + 1
        if ceilings is not None:
            # latest start admissible w.r.t. zero-delay consumers
            ceiling = ceilings[j] - duration
            if ceiling < last:
                last = ceiling
        if best is not None:
            # every key starts with implied >= ce (or cb for first-fit),
            # both increasing in cb: later starts lose to the incumbent
            prune = best[0] if first_fit else best[0] - duration + 1
            if prune < last:
                last = prune
        if last < floor:
            continue
        # delayed bounds reduce to ceil((const ± cb) / dr) per slot
        in_del = (
            [(ce_u + row[pe] + 1, dr) for row, ce_u, dr in in_delayed]
            if in_delayed
            else ()
        )
        out_del = (
            [(duration + row[pe] - cb_x, dr) for row, cb_x, dr in out_delayed]
            if out_delayed
            else ()
        )
        if first_fit:
            # the earliest free start whose implied length fits the cap;
            # {cb : f(cb) <= cap} is the interval [t1, t2]
            lo, hi = floor, last
            if cap is not None:
                if self_loop_bound > cap:
                    continue
                if in_del:
                    t1 = _down_reaches(cap, in_del)
                    if t1 > lo:
                        lo = t1
                t2 = _up_reaches(cap, duration, out_del)
                if t2 < hi:
                    hi = t2
                if hi < lo:
                    continue
            cb = schedule.earliest_slot(pe, lo, occupancy, hi + occupancy - 1)
            if cb is None:
                continue
            slots_scanned += 1
            key = (cb, cb + duration - 1, 0, pe, duration)
        else:
            # f = max(D, U) falls then rises: the earliest free start at
            # or past the crossing c0 is the best right of it, the latest
            # free start before c0 the best left of it
            c0 = (
                _crossing(
                    floor, last, in_del, duration, self_loop_bound, out_del
                )
                if in_del
                else floor
            )
            key = None
            if c0 <= last:
                cb = schedule.earliest_slot(
                    pe, c0, occupancy, last + occupancy - 1
                )
                if cb is not None:
                    slots_scanned += 1
                    key = (
                        _up(cb, duration, self_loop_bound, out_del),
                        cb + duration - 1,
                        cb,
                        pe,
                        duration,
                    )
            if c0 > floor:
                cb = schedule.last_free_start(pe, floor, occupancy, c0 - 1)
                if cb is not None:
                    slots_scanned += 1
                    implied = _down(cb, in_del)
                    if key is None or implied <= key[0]:
                        # D has plateaus when dr >= 2: the earliest free
                        # start with the same score wins the tie
                        t = _down_reaches(implied, in_del)
                        cb = schedule.earliest_slot(
                            pe,
                            t if t > floor else floor,
                            occupancy,
                            cb + occupancy - 1,
                        )
                        key = (implied, cb + duration - 1, cb, pe, duration)
            if key is None or (cap is not None and key[0] > cap):
                continue
        if best is None or key < best:
            best = key
    metrics.inc("remap.candidate_pes", pes_scanned)
    metrics.inc("remap.candidate_slots", slots_scanned)
    if best is None:
        return None
    if first_fit:
        return best[3], best[0], best[4]
    return best[3], best[2], best[4]


def _down(cb: int, in_del: Sequence[tuple[int, int]]) -> int:
    """D(cb): the implied length the delayed in-edges force on start
    ``cb`` (non-increasing in ``cb``); ``in_del`` must be non-empty."""
    return max(-(-(need - cb) // dr) for need, dr in in_del)


def _up(
    cb: int,
    duration: int,
    self_loop_bound: int,
    out_del: Sequence[tuple[int, int]],
) -> int:
    """U(cb): the finish, the self-loop bound and the delayed out-edges'
    implied length for start ``cb`` (non-decreasing in ``cb``)."""
    implied = cb + duration - 1
    if self_loop_bound > implied:
        implied = self_loop_bound
    for base_slack, dr in out_del:
        bound = -(-(cb + base_slack) // dr)
        if bound > implied:
            implied = bound
    return implied


def _down_reaches(value: int, in_del: Sequence[tuple[int, int]]) -> int:
    """Smallest start ``cb`` with ``D(cb) <= value``.

    ``ceil((need - cb) / dr) <= value`` holds exactly when
    ``cb >= need - value * dr``."""
    return max(need - value * dr for need, dr in in_del)


def _up_reaches(
    value: int, duration: int, out_del: Sequence[tuple[int, int]]
) -> int:
    """Largest start ``cb`` with ``U(cb) <= value``, ignoring the
    start-independent self-loop bound.

    ``ceil((cb + base) / dr) <= value`` holds exactly when
    ``cb <= value * dr - base``."""
    hi = value - duration + 1
    for base_slack, dr in out_del:
        t = value * dr - base_slack
        if t < hi:
            hi = t
    return hi


def _crossing(
    lo: int,
    hi: int,
    in_del: Sequence[tuple[int, int]],
    duration: int,
    self_loop_bound: int,
    out_del: Sequence[tuple[int, int]],
) -> int:
    """Smallest start in ``lo..hi`` with ``D(cb) <= U(cb)``, or
    ``hi + 1`` when there is none.  ``D - U`` is non-increasing, so a
    binary search on plain integers finds it (occupancy plays no part).
    """
    if _down(lo, in_del) <= _up(lo, duration, self_loop_bound, out_del):
        return lo
    lo += 1
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _down(mid, in_del) <= _up(mid, duration, self_loop_bound, out_del):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _rollback(schedule: ScheduleTable, placed: list[Node]) -> None:
    for node in placed:
        schedule.remove(node)
