"""The pre-optimisation scheduling engine, preserved verbatim.

This module is the *denominator* of every speedup claim and the oracle
of the fast-path equivalence suite.  It keeps the original
implementations that the fast-path engine replaced:

* :class:`ReferenceScheduleTable` — the naive per-cell dict table
  (``earliest_slot`` probes cell by cell, ``shift_all`` re-places every
  task, ``busy_cells``/``row`` scan the whole cell dict);
* :func:`reference_find_spot` — the remapping slot search that calls
  ``arch.comm_cost`` for every constraint of every scanned slot;
* :func:`reference_start_up_schedule` — the per-control-step list
  scheduler: it re-sorts every ready node by its priority and re-probes
  every PE for it at every control step (with the placement-failure
  memo for nodes without zero-delay producers);
* :func:`reference_cyclo_compact` — cyclo-compaction wired to all of
  the above with ``fast_path=False`` (no communication-cost cache, full
  ``projected_schedule_length`` rescan after every pass).

The behaviour contract: for identical inputs the reference engine and
the fast path produce **identical schedules** — same lengths, same
placements, same accept/reject traces.  ``tests/unit/test_table_index.py``
pins the tables against each other operation by operation and
``tests/integration/test_fastpath_equivalence.py`` pins the end-to-end
engines on every registered workload x topology, and the start-up
schedulers on their own.  (Only observability *metrics* such as
``remap.candidate_slots`` or ``startup.deferrals`` may differ: the fast
path prunes slots and probes the reference path makes and rejects.)
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core import cyclo as _cyclo_mod
from repro.core import remapping as _remapping_mod
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.core.mobility import mobility_map
from repro.core.priority import PriorityFn, paper_priority
from repro.core.psl import projected_schedule_length
from repro.core.remapping import _implied_length
from repro.errors import PlacementConflictError, ScheduleError, SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.validation import topological_order_zero_delay
from repro.obs import metrics, span
from repro.schedule.table import Placement, ScheduleTable

__all__ = [
    "ReferenceScheduleTable",
    "reference_find_spot",
    "reference_start_up_schedule",
    "reference_cyclo_compact",
]


class ReferenceScheduleTable(ScheduleTable):
    """The original cell-dict schedule table, byte-for-byte.

    Every method the interval index replaced is overridden here with
    its pre-optimisation body (including the inherited ``makespan``,
    which the fast table caches); accessors that only read
    ``_placements``/``_length`` are inherited unchanged.  The interval
    index structures initialised by the base constructor are simply
    never consulted.
    """

    def __init__(self, num_pes: int, length: int = 0, name: str = "schedule"):
        super().__init__(num_pes, length, name)
        self._cells: dict[tuple[int, int], Node] = {}

    @property
    def makespan(self) -> int:
        if not self._placements:
            return 0
        return max(p.finish for p in self._placements.values())

    def cell(self, pe: int, cs: int) -> Node | None:
        return self._cells.get((pe, cs))

    def place(
        self,
        node: Node,
        pe: int,
        start: int,
        duration: int,
        occupancy: int | None = None,
    ) -> Placement:
        if node in self._placements:
            raise ScheduleError(f"node {node!r} is already scheduled")
        if not (0 <= pe < self.num_pes):
            raise ScheduleError(f"PE {pe} outside 0..{self.num_pes - 1}")
        placement = Placement(node, pe, start, duration, occupancy)
        for cs in range(start, placement.busy_until + 1):
            occupant = self._cells.get((pe, cs))
            if occupant is not None:
                raise PlacementConflictError(
                    f"(pe{pe + 1}, cs{cs}) already holds {occupant!r}; "
                    f"cannot place {node!r}"
                )
        for cs in range(start, placement.busy_until + 1):
            self._cells[(pe, cs)] = node
        self._placements[node] = placement
        if placement.finish > self._length:
            self._length = placement.finish
        return placement

    def remove(self, node: Node) -> Placement:
        placement = self.placement(node)
        for cs in range(placement.start, placement.busy_until + 1):
            del self._cells[(placement.pe, cs)]
        del self._placements[node]
        return placement

    def shift_all(self, delta: int) -> None:
        if not self._placements and delta:
            self._length = max(0, self._length + delta)
            return
        moved = [p.shifted(delta) for p in self._placements.values()]
        self._placements = {}
        self._cells = {}
        self._length = max(0, self._length + delta)
        for p in moved:
            self.place(p.node, p.pe, p.start, p.duration, p.occupancy)

    def is_free(self, pe: int, start: int, duration: int) -> bool:
        if start < 1:
            return False
        return all(
            (pe, cs) not in self._cells for cs in range(start, start + duration)
        )

    def earliest_slot(
        self, pe: int, not_before: int, duration: int, horizon: int | None = None
    ) -> int | None:
        cs = max(1, not_before)
        limit = horizon if horizon is not None else max(self._length, cs) + duration
        while cs + duration - 1 <= limit:
            conflict = None
            for probe in range(cs, cs + duration):
                if (pe, probe) in self._cells:
                    conflict = probe
            if conflict is None:
                return cs
            cs = conflict + 1
        return None

    def free_slots(
        self, pe: int, not_before: int, duration: int, horizon: int
    ) -> Iterator[int]:
        # expressed through the reference earliest_slot so the naive
        # semantics stay authoritative even for fast-path callers
        cb = self.earliest_slot(pe, not_before, duration, horizon=horizon)
        while cb is not None:
            yield cb
            cb = self.earliest_slot(pe, cb + 1, duration, horizon=horizon)

    def first_row(self) -> list[Node]:
        starters = [p for p in self._placements.values() if p.start == 1]
        starters.sort(key=lambda p: p.pe)
        return [p.node for p in starters]

    def row(self, cs: int) -> list[tuple[int, Node]]:
        return sorted(
            ((pe, node) for (pe, c), node in self._cells.items() if c == cs),
        )

    def pe_tasks(self, pe: int) -> list[Placement]:
        return sorted(
            (p for p in self._placements.values() if p.pe == pe),
            key=lambda p: p.start,
        )

    def busy_cells(self, pe: int) -> int:
        return sum(1 for (p, _cs) in self._cells if p == pe)

    def copy(self, name: str | None = None) -> "ReferenceScheduleTable":
        clone = ReferenceScheduleTable(
            self.num_pes, self._length, name if name is not None else self.name
        )
        clone._placements = dict(self._placements)
        clone._cells = dict(self._cells)
        return clone


def reference_find_spot(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    node: Node,
    *,
    cap: int | None,
    pipelined_pes: bool = False,
    strategy: str = "implied",
    comm=None,  # accepted for signature compatibility; never cached here
) -> tuple[int, int, int] | None:
    """The original remapping slot search: per-slot ``arch.comm_cost``
    calls, no constraint-row hoisting, no zero-delay ceiling pruning."""
    base_time = graph.time(node)
    tail = max(schedule.length, schedule.makespan)

    in_constraints: list[tuple[int, int, int, int]] = []  # (src_pe, CE, dr, vol)
    out_constraints: list[tuple[int, int, int, int]] = []  # (dst_pe, CB, dr, vol)
    self_loops: list[int] = []
    for e in graph.in_edges(node):
        if e.src == node:
            self_loops.append(max(1, e.delay))
            continue
        if e.src in schedule:
            p = schedule.placement(e.src)
            in_constraints.append((p.pe, p.finish, e.delay, e.volume))
    for e in graph.out_edges(node):
        if e.dst == node or e.dst not in schedule:
            continue
        p = schedule.placement(e.dst)
        out_constraints.append((p.pe, p.start, e.delay, e.volume))

    first_fit = strategy == "first-fit"
    best: tuple[int, int, int, int, int] | None = None
    pes_scanned = 0
    slots_scanned = 0
    for pe in arch.processors:
        pes_scanned += 1
        duration = arch.execution_time(pe, base_time)
        occupancy = 1 if pipelined_pes else duration
        self_loop_bound = max(
            (-(-duration // d) for d in self_loops), default=0
        )
        floor = 1
        for src_pe, ce_u, dr, vol in in_constraints:
            if dr == 0:
                need = ce_u + arch.comm_cost(src_pe, pe, vol) + 1
                if need > floor:
                    floor = need
        horizon = cap if cap is not None else max(tail, floor) + duration
        cb = schedule.earliest_slot(pe, floor, occupancy, horizon=horizon)
        while cb is not None:
            slots_scanned += 1
            ce = cb + duration - 1
            implied = _implied_length(
                arch, pe, cb, ce, in_constraints, out_constraints
            )
            if implied is not None:
                implied = max(implied, ce, self_loop_bound)
                if cap is None or implied <= cap:
                    if first_fit:
                        key = (cb, ce, 0, pe, duration)
                    else:
                        key = (implied, ce, cb, pe, duration)
                    if best is None or key < best:
                        best = key
                    if first_fit or implied == ce:
                        break
            cb = schedule.earliest_slot(pe, cb + 1, occupancy, horizon=horizon)
    metrics.inc("remap.candidate_pes", pes_scanned)
    metrics.inc("remap.candidate_slots", slots_scanned)
    if best is None:
        return None
    if first_fit:
        return best[3], best[0], best[4]
    return best[3], best[2], best[4]


def reference_start_up_schedule(
    graph: CSDFG,
    arch: Architecture,
    *,
    priority: PriorityFn = paper_priority,
    pad_for_delayed_edges: bool = True,
    pipelined_pes: bool = False,
    comm: CommCostCache | None = None,
) -> ScheduleTable:
    """The original start-up list scheduler on a
    :class:`ReferenceScheduleTable`.

    Walks every control step ``cs = 1, 2, ...``, re-sorts the whole
    ready list by the priority's score ``a + b * cs`` at that step and
    probes every PE for every ready node; nodes that fit nowhere are
    deferred to the next step.  Same parameters and result as
    :func:`repro.core.startup.start_up_schedule`.
    """
    if graph.num_nodes == 0:
        raise SchedulingError("cannot schedule an empty graph")
    # verifies legality (zero-delay subgraph acyclic) as a side effect
    topological_order_zero_delay(graph)

    with span(
        "startup", workload=graph.name, arch=arch.name
    ) as startup_span:
        alap = mobility_map(graph)
        schedule = ReferenceScheduleTable(
            arch.num_pes, name=f"{graph.name}@{arch.name}:startup"
        )
        finish: dict[Node, int] = {}

        pending_preds: dict[Node, int] = {
            v: sum(1 for e in graph.in_edges(v) if e.delay == 0)
            for v in graph.nodes()
        }
        # static zero-delay in-degrees (pending_preds decays to 0):
        # nodes without zero-delay producers share the placement-failure
        # memo below
        no_zero_preds = {v for v, k in pending_preds.items() if k == 0}
        ready: list[Node] = [v for v, k in pending_preds.items() if k == 0]
        remaining = graph.num_nodes

        # any legal schedule fits in total work plus total possible comm
        max_comm = arch.diameter * sum(e.volume for e in graph.edges())
        cs_limit = graph.total_work() + max_comm + 1

        pf_evaluations = 0
        placements_made = 0
        deferrals = 0

        def score(v: Node, cs: int) -> float:
            a, b = priority(graph, alap, finish, v)
            return a + b * cs

        cs = 1
        while remaining > 0:
            if cs > cs_limit:
                raise SchedulingError(
                    f"start-up scheduling did not converge by cs {cs_limit}"
                )
            pf_evaluations += len(ready)
            ready.sort(key=lambda v: (-score(v, cs), str(v)))
            deferred: list[Node] = []
            newly_ready: list[Node] = []
            # failure memo for nodes *without* zero-delay producers:
            # their _reference_best_processor outcome depends only on
            # (cs, base execution time, schedule occupancy), so one
            # failure rules out every same-duration node until the next
            # placement mutates the table.
            fail_gen: dict[int, int] = {}
            for node in ready:
                memo_key = (
                    graph.time(node) if node in no_zero_preds else None
                )
                if (
                    memo_key is not None
                    and fail_gen.get(memo_key) == placements_made
                ):
                    deferred.append(node)
                    deferrals += 1
                    continue
                choice = _reference_best_processor(
                    graph, arch, schedule, finish, node, cs, pipelined_pes,
                    comm=comm,
                )
                if choice is None:
                    if memo_key is not None:
                        fail_gen[memo_key] = placements_made
                    deferred.append(node)
                    deferrals += 1
                    continue
                pe, duration = choice
                occupancy = 1 if pipelined_pes else duration
                placement = schedule.place(node, pe, cs, duration, occupancy)
                finish[node] = placement.finish
                remaining -= 1
                placements_made += 1
                for e in graph.out_edges(node):
                    if e.delay == 0:
                        pending_preds[e.dst] -= 1
                        if pending_preds[e.dst] == 0:
                            newly_ready.append(e.dst)
            ready = deferred + newly_ready
            cs += 1

        schedule.trim()
        if pad_for_delayed_edges:
            schedule.set_length(
                projected_schedule_length(
                    graph, arch, schedule, pipelined_pes=pipelined_pes,
                    comm=comm,
                )
            )
        metrics.inc("startup.placements", placements_made)
        metrics.inc("startup.deferrals", deferrals)
        metrics.inc("startup.pf_evaluations", pf_evaluations)
        metrics.inc("startup.control_steps", cs - 1)
        startup_span.add(
            length=schedule.length,
            placements=placements_made,
            deferrals=deferrals,
            pf_evaluations=pf_evaluations,
        )
    return schedule


def _reference_best_processor(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    finish: dict[Node, int],
    node: Node,
    cs: int,
    pipelined_pes: bool,
    *,
    comm: CommCostCache | None = None,
) -> tuple[int, int] | None:
    """The ``(processor, duration)`` where ``node`` may start at ``cs``.

    Minimises the execution time on the PE (heterogeneous machines),
    then the data-arrival bound ``cm``; ``None`` when no processor
    qualifies."""
    cost = comm.cost if comm is not None else arch.comm_cost
    zero_preds: list[tuple[int, int, int]] = []  # (src_pe, finish, volume)
    for e in graph.in_edges(node):
        if e.delay == 0:
            zero_preds.append(
                (schedule.processor(e.src), finish[e.src], e.volume)
            )
    base_time = graph.time(node)
    best: tuple[int, int, int] | None = None  # (duration, cm, pe)
    for pe in arch.processors:
        cm = 0
        feasible = True
        for src_pe, finish_u, vol in zero_preds:
            arrival = finish_u + cost(src_pe, pe, vol)
            if arrival > cm:
                cm = arrival
            if arrival >= cs:  # paper: need cm < cs
                feasible = False
                break
        if not feasible:
            continue
        duration = arch.execution_time(pe, base_time)
        occupancy = 1 if pipelined_pes else duration
        if not schedule.is_free(pe, cs, occupancy):
            continue
        key = (duration, cm, pe)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[2], best[0]


def reference_cyclo_compact(
    graph: CSDFG,
    arch: Architecture,
    *,
    config: CycloConfig | None = None,
    initial: ScheduleTable | None = None,
) -> CycloResult:
    """Run cyclo-compaction on the pre-optimisation engine.

    Forces ``fast_path=False`` (no comm-cost cache, no incremental PSL)
    and temporarily swaps in the reference start-up scheduler (which
    builds a :class:`ReferenceScheduleTable`) and slot search.  The
    swap covers the two sites the optimiser uses (``start_up_schedule``
    and ``remap_nodes``); it is restored on exit, so concurrent use
    from other threads is not supported.
    """
    cfg = config if config is not None else CycloConfig()
    cfg = dataclasses.replace(cfg, fast_path=False)
    saved_startup = _cyclo_mod.start_up_schedule
    saved_find = _remapping_mod._find_spot
    _cyclo_mod.start_up_schedule = reference_start_up_schedule
    _remapping_mod._find_spot = reference_find_spot
    try:
        return cyclo_compact(graph, arch, config=cfg, initial=initial)
    finally:
        _cyclo_mod.start_up_schedule = saved_startup
        _remapping_mod._find_spot = saved_find
