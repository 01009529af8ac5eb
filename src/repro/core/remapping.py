"""The remapping phase (Definition 4.2): re-place rotated nodes.

Each rotated node is re-placed by scanning every free (processor,
control-step) slot and scoring it with the **implied schedule length**
— the smallest ``L`` at which that placement satisfies every dependence
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
The slot search hoists all communication costs out of the inner loop:
for each constraint the full per-candidate-PE cost row is fetched once
(from a :class:`~repro.arch.cache.CommCostCache` when provided, else
via ``arch.comm_cost``), each candidate PE folds the rows into scalar
floor/ceiling/delayed-bound constants, and the per-slot work reduces to
a handful of integer ceil-divisions.  Zero-delay *in* constraints are
enforced entirely by the floor (every scanned slot satisfies them by
construction); zero-delay *out* constraints give a start-step ceiling
past which the PE's scan stops early — later slots can only violate
them.  The pruning changes the ``remap.candidate_slots`` metric (fewer
doomed slots are visited) but never the chosen placement.

Three scale-tier refinements keep the search cheap on thousand-node
tables:

* the per-PE floor/ceiling folds run once per node through
  :func:`repro.core.kernels.fold_max` / ``fold_min`` over all
  candidate PEs, before the per-PE scan;
* when the node has **no delayed in-edges**, every component of the
  slot key (implied length, ``ce``, ``cb``) is non-decreasing along
  the slot walk, so the first admissible start on a PE decides the
  whole PE; the scan then walks the interval index's gap skip-list
  (:meth:`~repro.schedule.table.ScheduleTable.free_gaps`) instead of
  every free cell — O(1) candidates instead of O(free cells);
* callers that already hold the zero-delay topological ranks (the
  compaction loop caches them across passes) pass them via
  ``topo_rank`` and skip the per-pass full-graph Kahn walk.

As with the earlier prunings these change only scan-size metrics,
never the chosen placement.

An optional :class:`~repro.core.psl.PSLTracker` replaces the full
``projected_schedule_length`` rescan after the placements with an
incremental update over edges incident to the remapped set.
"""

from __future__ import annotations

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

    ``comm`` supplies precomputed communication costs; ``psl`` supplies
    incremental projected-schedule-length bounds (its edge snapshot is
    restored on every rejected pass, so the tracker always reflects the
    schedule the caller sees).  ``topo_rank`` optionally supplies the
    full-graph zero-delay topological ranks (node -> position) so the
    placement order need not re-run Kahn's algorithm — it must match
    the graph's *current* delays.  ``debug_check=True`` cross-checks
    the incremental length against the full rescan and raises
    :class:`SchedulingError` on divergence.
    """
    ordered = _placement_order(graph, nodes, topo_rank)
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
    deterministic tie-break taken from the cached full-graph Kahn
    ranks.  It still decides which node claims a contested slot first,
    so the ranks must stay to keep schedules identical.

    Ranks are unique per node, so sorting by the full-graph rank and by
    the set-restricted rank produce the same list — which is what lets
    the compaction loop cache ``topo_rank`` across passes (the
    secondary time/name keys are kept for signature stability; unique
    ranks mean they never decide)."""
    if len(nodes) <= 1:
        return list(nodes)
    if topo_rank is None:
        topo_rank = {
            v: i for i, v in enumerate(topological_order_zero_delay(graph))
        }
    rank = topo_rank
    return sorted(nodes, key=lambda v: (rank[v], -graph.time(v), str(v)))


def _cost_row(
    arch: Architecture,
    comm: CommCostCache | None,
    fixed_pe: int,
    volume: int,
    *,
    outgoing: bool,
) -> list[int | None]:
    """Costs between ``fixed_pe`` and every candidate PE id.

    ``outgoing=True`` prices ``fixed_pe -> p`` (the candidate receives);
    ``outgoing=False`` prices ``p -> fixed_pe``.  Entries for PEs the
    scheduler never visits (failed ones) may be ``None``.
    """
    if comm is not None:
        row = (
            comm.row_from(fixed_pe, volume)
            if outgoing
            else comm.row_to(fixed_pe, volume)
        )
        if row is not None:
            return row
    row = [None] * arch.num_pes
    for p in arch.processors:
        row[p] = (
            arch.comm_cost(fixed_pe, p, volume)
            if outgoing
            else arch.comm_cost(p, fixed_pe, volume)
        )
    return row


def _find_spot(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    node: Node,
    *,
    cap: int | None,
    pipelined_pes: bool = False,
    strategy: str = "implied",
    comm: CommCostCache | None = None,
) -> tuple[int, int, int] | None:
    """Best ``(pe, cb, duration)`` slot for ``node``.

    ``strategy="implied"`` scans every free slot up to the horizon and
    minimises the implied schedule length; ``strategy="first-fit"``
    takes the earliest available slot at or after the anticipation
    bound, minimised across processors (the paper's procedure) — the
    cap still enforces the paper's ``PSL <= length(S)`` side condition.
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
            row = comm.row_from(p.pe, e.volume) if comm is not None else None
            if row is None:
                row = _cost_row(arch, comm, p.pe, e.volume, outgoing=True)
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
        row = comm.row_to(p.pe, e.volume) if comm is not None else None
        if row is None:
            row = _cost_row(arch, comm, p.pe, e.volume, outgoing=False)
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
        # latest start admissible w.r.t. zero-delay consumers: beyond
        # the ceiling every later slot violates some zero-delay out-edge
        ceiling = ceilings[j] - duration if ceilings is not None else None
        # with a cap, slots beyond it are pointless; without one, scan
        # far enough past the tail (and past the floor) that a free
        # slot is guaranteed on every PE
        horizon = (
            cap
            if cap is not None
            else (tail if tail > floor else floor) + duration
        )
        if floor > horizon - occupancy + 1 or (
            ceiling is not None and ceiling < floor
        ):
            # no admissible start on this PE: the slot walk would yield
            # nothing (or break at its first slot before counting it)
            continue
        if best is not None:
            # every slot's key starts with implied >= ce (or cb for
            # first-fit), both increasing in cb: when even the first
            # admissible start loses to the incumbent, the PE cannot win
            if (floor if first_fit else floor + duration - 1) > best[0]:
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
        if in_del:
            slots = schedule.free_slots(pe, floor, occupancy, horizon)
        else:
            # gap skip-list fast path: with no delayed in-edges every
            # key component (implied, ce, cb) is non-decreasing along
            # the slot walk, so the first reachable start decides the
            # whole PE — walk maximal gaps instead of free cells
            slots = (
                first
                for first, _last in schedule.free_gaps(
                    pe, floor, occupancy, horizon
                )
            )
        for cb in slots:
            if ceiling is not None and cb > ceiling:
                break
            ce = cb + duration - 1
            if best is not None and (cb if first_fit else ce) > best[0]:
                # keys are (implied, ...) with implied >= ce, or
                # (cb, ...) for first-fit; both components only grow
                # along the slot walk, so no later slot can win either
                break
            slots_scanned += 1
            implied = ce if ce > self_loop_bound else self_loop_bound
            for need, dr in in_del:
                bound = -(-(need - cb) // dr)
                if bound > implied:
                    implied = bound
            for base_slack, dr in out_del:
                bound = -(-(cb + base_slack) // dr)
                if bound > implied:
                    implied = bound
            if cap is None or implied <= cap:
                if first_fit:
                    key = (cb, ce, 0, pe, duration)
                else:
                    key = (implied, ce, cb, pe, duration)
                if best is None or key < best:
                    best = key
                if first_fit or implied == ce:
                    # first-fit keeps the earliest admissible slot
                    # per PE; implied-scoring stops once no later
                    # slot on this PE can score better
                    break
            if not in_del:
                # monotone keys again: whether this slot was admissible
                # or capped out, every later slot repeats or worsens it
                break
    metrics.inc("remap.candidate_pes", pes_scanned)
    metrics.inc("remap.candidate_slots", slots_scanned)
    if best is None:
        return None
    if first_fit:
        return best[3], best[0], best[4]
    return best[3], best[2], best[4]


def _implied_length(
    arch: Architecture,
    pe: int,
    cb: int,
    ce: int,
    in_constraints: list[tuple[int, int, int, int]],
    out_constraints: list[tuple[int, int, int, int]],
    comm: CommCostCache | None = None,
) -> int | None:
    """Smallest ``L`` making the candidate legal w.r.t. its placed
    neighbours, or ``None`` when a zero-delay dependence is violated.

    Retained as the reference form of the slot score (the fast-path
    scan in :func:`_find_spot` folds the same arithmetic into per-PE
    constants); constraints are ``(peer_pe, CE-or-CB, dr, vol)``.
    """
    cost = comm.cost if comm is not None else arch.comm_cost
    implied = 1
    for src_pe, ce_u, dr, vol in in_constraints:
        slack = ce_u + cost(src_pe, pe, vol) + 1 - cb
        if dr == 0:
            if slack > 0:
                return None
        else:
            need = -(-slack // dr)  # ceil
            if need > implied:
                implied = need
    for dst_pe, cb_x, dr, vol in out_constraints:
        slack = ce + cost(pe, dst_pe, vol) + 1 - cb_x
        if dr == 0:
            if slack > 0:
                return None
        else:
            need = -(-slack // dr)
            if need > implied:
                implied = need
    return implied


def _rollback(schedule: ScheduleTable, placed: list[Node]) -> None:
    for node in placed:
        schedule.remove(node)
