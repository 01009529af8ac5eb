"""The pre-optimisation scheduling engine, preserved verbatim.

This module is the *denominator* of every speedup claim and the oracle
of the fast-path equivalence suite.  It keeps the original
implementations that the fast-path engine replaced:

* :class:`ReferenceScheduleTable` — the naive per-cell dict table
  (``earliest_slot`` and ``last_free_start`` probe cell by cell,
  ``shift_all`` re-places every task, ``busy_cells``/``row`` scan the
  whole cell dict);
* :func:`reference_find_spot` — the remapping slot search that calls
  ``arch.comm_cost`` for every constraint of every scanned slot;
* :func:`reference_start_up_schedule` — the per-control-step list
  scheduler: it re-sorts every ready node by its priority and re-probes
  every PE for it at every control step (with the placement-failure
  memo for nodes without zero-delay producers), pricing through the
  ``comm`` it is given, surcharged caches included;
* :func:`reference_cyclo_compact` — cyclo-compaction wired to all of
  the above, pricing every transfer through ``arch.comm_cost`` (no
  communication-cost cache) and recomputing the projected schedule
  length by a full ``projected_schedule_length`` rescan after every
  pass (no incremental tracker) and ordering each rotated set by a
  fresh zero-delay Kahn walk (no rank cache).

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

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core import cyclo as _cyclo_mod
from repro.core import remapping as _remapping_mod
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.core.mobility import mobility_map
from repro.core.priority import PriorityFn, paper_priority
from repro.core.psl import projected_schedule_length
from repro.core.startup import start_up_step_limit
from repro.errors import (
    InfeasibleScheduleError,
    PlacementConflictError,
    ScheduleError,
    SchedulingError,
)
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

    def last_free_start(
        self, pe: int, not_before: int, duration: int, at_most: int
    ) -> int | None:
        # cell by cell, latest start first; the base class would answer
        # from the interval index, which this table never fills
        for cs in range(at_most, max(1, not_before) - 1, -1):
            if all(
                (pe, probe) not in self._cells
                for probe in range(cs, cs + duration)
            ):
                return cs
        return None

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


def _implied_length(
    arch: Architecture,
    pe: int,
    cb: int,
    ce: int,
    in_constraints: list[tuple[int, int, int, int]],
    out_constraints: list[tuple[int, int, int, int]],
) -> int | None:
    """Smallest ``L`` making the candidate legal w.r.t. its placed
    neighbours, or ``None`` when a zero-delay dependence is violated.

    The reference form of the slot score (the engine's
    :func:`repro.core.remapping._find_spot` folds the same arithmetic
    into per-PE constants); constraints are ``(peer_pe, CE-or-CB, dr,
    vol)``.
    """
    implied = 1
    for src_pe, ce_u, dr, vol in in_constraints:
        slack = ce_u + arch.comm_cost(src_pe, pe, vol) + 1 - cb
        if dr == 0:
            if slack > 0:
                return None
        else:
            need = -(-slack // dr)  # ceil
            if need > implied:
                implied = need
    for dst_pe, cb_x, dr, vol in out_constraints:
        slack = ce + arch.comm_cost(pe, dst_pe, vol) + 1 - cb_x
        if dr == 0:
            if slack > 0:
                return None
        else:
            need = -(-slack // dr)
            if need > implied:
                implied = need
    return implied


def reference_start_up_schedule(
    graph: CSDFG,
    arch: Architecture,
    *,
    priority: PriorityFn = paper_priority,
    pad_for_delayed_edges: bool = True,
    pipelined_pes: bool = False,
    comm=None,
) -> ScheduleTable:
    """The original start-up list scheduler on a
    :class:`ReferenceScheduleTable`.

    Walks every control step ``cs = 1, 2, ...``, re-sorts the whole
    ready list by the priority's score ``a + b * cs`` at that step and
    probes every PE for every ready node; nodes that fit nowhere are
    deferred to the next step.  Same parameters and result as
    :func:`repro.core.startup.start_up_schedule`.  Every price, the step
    limit and the pad come from ``comm`` (its ``cost`` and
    ``max_cost``); when omitted, prices are ``arch.comm_cost`` and the
    step limit is a plain cache's.
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

        cs_limit = start_up_step_limit(
            graph, arch,
            comm if comm is not None else CommCostCache.for_graph(arch, graph),
        )
        cost = comm.cost if comm is not None else arch.comm_cost

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
                    cost,
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
        metrics.inc("startup.sweeps", cs - 1)  # every step is visited
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
    cost,
) -> tuple[int, int] | None:
    """The ``(processor, duration)`` where ``node`` may start at ``cs``.

    Minimises the execution time on the PE (heterogeneous machines),
    then the data-arrival bound ``cm``, pricing every transfer with
    ``cost(src, dst, volume)``; ``None`` when no processor
    qualifies."""
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


class _UncachedComm:
    """What the compaction driver reads of its comm cache once start-up,
    the slot search and the PSL tracker are swapped out: every price is
    ``arch.comm_cost`` and there are no tables, hence no tallies.  The
    start-up step limit reads ``max_cost``, which prices from the models
    alone, so an empty plain cache serves it."""

    def __init__(self, arch: Architecture):
        self.cost = arch.comm_cost
        self.max_cost = CommCostCache(arch, ()).max_cost

    def publish_stats(self) -> None:
        pass


class _RescanPSL:
    """Stand-in for :class:`~repro.core.psl.PSLTracker`: recomputes the
    projected schedule length by a full rescan after every pass, and
    for the start-up pad (:meth:`projected_length`)."""

    def __init__(
        self,
        graph: CSDFG,
        arch: Architecture,
        schedule: ScheduleTable,
        *,
        comm=None,  # accepted for signature compatibility; never cached here
        pipelined_pes: bool = False,
    ):
        self.graph = graph
        self.arch = arch
        self.schedule = schedule
        self.pipelined_pes = pipelined_pes

    def snapshot(self, nodes) -> None:
        return None  # nothing incremental to restore

    def restore(self, snapshot) -> None:
        pass

    def update_nodes(self, nodes) -> int | None:
        try:
            return self.projected_length()
        except InfeasibleScheduleError:  # pragma: no cover - defensive
            return None

    def projected_length(self) -> int:
        return projected_schedule_length(
            self.graph, self.arch, self.schedule,
            pipelined_pes=self.pipelined_pes,
        )


class _KahnRanks:
    """Stand-in for the compaction loop's zero-delay rank cache: it
    hands out no ranks, so :func:`~repro.core.remapping.remap_nodes`
    runs a fresh full-graph Kahn walk on every pass that rotates two or
    more nodes."""

    def ranks(self, graph: CSDFG, rotated: list[Node]) -> None:
        return None

    def note_rollback(self, graph: CSDFG, rotated: list[Node]) -> None:
        pass


def reference_cyclo_compact(
    graph: CSDFG,
    arch: Architecture,
    *,
    config: CycloConfig | None = None,
    initial: ScheduleTable | None = None,
) -> CycloResult:
    """Run cyclo-compaction on the pre-optimisation engine.

    Every decision and every in-run check prices through
    ``arch.comm_cost`` (:class:`_UncachedComm` stands in for the comm
    cache), and the projected schedule length is rescanned in full
    after every pass (:class:`_RescanPSL` stands in for the
    incremental tracker).  The placement order of a rotated set comes
    from a fresh Kahn walk every pass (:class:`_KahnRanks` stands in
    for the rank cache).  The reference start-up scheduler (which
    builds a :class:`ReferenceScheduleTable`) and slot search are
    swapped in with the tracker and the ranks on the module attributes
    the optimiser looks them up from; all four are restored on exit,
    so concurrent use from other threads is not supported.
    """
    swaps = [
        (_cyclo_mod, "start_up_schedule", reference_start_up_schedule),
        (_cyclo_mod, "PSLTracker", _RescanPSL),
        (_cyclo_mod, "_TopoRankCache", _KahnRanks),
        (_remapping_mod, "_find_spot", reference_find_spot),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    for owner, attr, stand_in in swaps:
        setattr(owner, attr, stand_in)
    try:
        return cyclo_compact(
            graph, arch, config=config, initial=initial,
            comm=_UncachedComm(arch),
        )
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
