"""Projected schedule length PSL (Definition 4.4 / Lemma 4.3).

For an edge ``u -> v`` with delay ``k > 0`` whose endpoints sit on
different processors, the data produced by iteration ``i`` of ``u``
must reach ``v`` by iteration ``i + k``; across a static schedule of
length ``L`` this requires::

    CB(v) + k * L  >=  CE(u) + M(PE(u), PE(v); c) + 1
    =>  L  >=  ceil((CE(u) + M + 1 - CB(v)) / k)

The paper's printed formula omits the ``+1`` its own discrete
control-step accounting implies (DESIGN.md §2); we use the rigorous
form so PSL agrees exactly with the schedule validator.  The projected
schedule length of a whole table is the max of these bounds and the
makespan — precisely the minimum length at which the current placements
are legal.

:class:`PSLTracker` maintains the per-edge bounds *incrementally*: a
remapping pass only perturbs edges incident to the rotated nodes (a
uniform :meth:`~repro.schedule.table.ScheduleTable.shift_all` leaves
every bound's numerator ``CE + M + 1 - CB`` unchanged), so the tracker
recomputes a handful of edges per pass instead of rescanning the whole
graph through :func:`minimum_feasible_length`.  A shift touches nothing
here at all: the table only moves its origin, and since every bound
depends on starts only through the difference ``CE(u) - CB(v)`` the
tracker reads the table's stored records
(:meth:`~repro.schedule.table.ScheduleTable.stored_placements`) without
converting them.

Two scale-tier refinements keep the tracker O(touched edges) even on
thousand-edge graphs:

* :meth:`refresh` gathers every edge once and evaluates all bounds in
  one :func:`repro.core.kernels.edge_bounds` call;
* :meth:`projected_length` reads the maximum bound from a lazy-deletion
  max-heap maintained alongside ``_bounds`` — updated edges are pushed
  and stale heap tops discarded on read, so the per-pass cost tracks
  the dirty set instead of rescanning every edge's bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Iterable

from repro.core import kernels

from repro.arch.topology import Architecture
from repro.errors import InfeasibleScheduleError
from repro.graph.csdfg import CSDFG, Node
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import minimum_feasible_length

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.cache import CommCostCache

__all__ = ["psl_edge_bound", "projected_schedule_length", "PSLTracker"]


def psl_edge_bound(
    finish_u: int, start_v: int, comm: int, delay: int
) -> int:
    """Lower bound on ``L`` induced by one delayed edge.

    Parameters are the producer's ``CE``, the consumer's ``CB``, the
    communication cost ``M`` and the edge delay ``k > 0``.
    """
    if delay <= 0:
        raise InfeasibleScheduleError("psl_edge_bound requires delay > 0")
    return -(-(finish_u + comm + 1 - start_v) // delay)  # ceil division


def projected_schedule_length(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: "CommCostCache | None" = None,
) -> int:
    """Minimum legal length for the schedule's current placements.

    Raises :class:`InfeasibleScheduleError` when some zero-delay
    dependence is violated outright (no length can repair an
    intra-iteration ordering error).  ``comm`` supplies precomputed
    communication costs for the fast path.
    """
    length = minimum_feasible_length(
        graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
    )
    if length is None:
        raise InfeasibleScheduleError(
            "placements violate an intra-iteration dependence; no schedule "
            "length is feasible"
        )
    return length


class PSLTracker:
    """Incremental per-edge PSL bounds for one (graph, schedule) pair.

    The tracker stores, for every edge, the length bound it induces (0
    for a satisfied zero-delay edge — those constrain nothing through
    ``L``).  After a remapping pass only edges incident to the moved
    nodes are recomputed (:meth:`update_nodes`); rejected passes call
    :meth:`restore` with the snapshot taken before the update so the
    bounds always match the schedule the caller sees.

    The graph and schedule are held *by reference*: retiming mutations
    and placements are picked up at the next update.  Rebuild the
    tracker (or call :meth:`refresh`) when the schedule is replaced
    wholesale.
    """

    __slots__ = (
        "graph",
        "arch",
        "schedule",
        "pipelined_pes",
        "_cost",
        "_bounds",
        "_heap",
    )

    def __init__(
        self,
        graph: CSDFG,
        arch: Architecture,
        schedule: ScheduleTable,
        *,
        comm: "CommCostCache | None" = None,
        pipelined_pes: bool = False,
    ):
        self.graph = graph
        self.arch = arch
        self.schedule = schedule
        self.pipelined_pes = pipelined_pes
        self._cost = comm.cost if comm is not None else arch.comm_cost
        self._bounds: dict[tuple[Node, Node], int] = {}
        # lazy-deletion max-heap of (-bound, key); entries go stale when
        # a key's bound changes — projected_length() discards tops whose
        # value no longer matches _bounds
        self._heap: list[tuple[int, tuple[Node, Node]]] = []
        self.refresh()

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute every edge bound from scratch (batched).

        Raises :class:`InfeasibleScheduleError` when the current
        placements violate a zero-delay dependence (the tracker must be
        seeded from a legal schedule).
        """
        # stored starts: every bound is a difference of starts, so the
        # table origin cancels
        placements, _origin = self.schedule.stored_placements()
        cost = self._cost
        keys: list[tuple[Node, Node]] = []
        finishes: list[int] = []
        comms: list[int] = []
        starts: list[int] = []
        delays: list[int] = []
        for e in self.graph.edges():
            pu = placements[e.src]
            pv = placements[e.dst]
            keys.append(e.key)
            finishes.append(pu.start + pu.duration - 1)
            comms.append(cost(pu.pe, pv.pe, e.volume))
            starts.append(pv.start)
            delays.append(e.delay)
        bounds, violated = kernels.edge_bounds(finishes, comms, starts, delays)
        if violated is not None:
            src, dst = keys[violated]
            raise InfeasibleScheduleError(
                f"edge ({src!r}, {dst!r}) violates an "
                "intra-iteration dependence as placed"
            )
        self._bounds = dict(zip(keys, bounds))
        self._heap = [(-b, k) for k, b in self._bounds.items()]
        heapify(self._heap)

    def _incident_edges(self, nodes: Iterable[Node]):
        seen: set[tuple[Node, Node]] = set()
        graph = self.graph
        for n in nodes:
            for e in graph.in_edges(n):
                if e.key not in seen:
                    seen.add(e.key)
                    yield e
            for e in graph.out_edges(n):
                if e.key not in seen:
                    seen.add(e.key)
                    yield e

    # ------------------------------------------------------------------
    def snapshot(self, nodes: Iterable[Node]) -> dict[tuple[Node, Node], int]:
        """Bounds of every edge incident to ``nodes`` (for
        :meth:`restore` after a rejected pass)."""
        bounds = self._bounds
        return {
            e.key: bounds[e.key]
            for e in self._incident_edges(nodes)
            if e.key in bounds
        }

    def update_nodes(self, nodes: Iterable[Node]) -> int | None:
        """Recompute bounds of edges incident to ``nodes`` and return
        the projected schedule length, or ``None`` (without committing
        anything) when some touched zero-delay edge is violated."""
        # fused _incident_edges + _edge_bound with direct placement
        # lookups: this runs once per remapping pass on the hot path
        placements, _origin = self.schedule.stored_placements()
        cost = self._cost
        graph = self.graph
        seen: set[tuple[Node, Node]] = set()
        fresh: dict[tuple[Node, Node], int] = {}
        for n in nodes:
            for e in graph._pred[n].values():
                key = e.key
                if key in seen:
                    continue
                seen.add(key)
                pu = placements[e.src]
                pv = placements[e.dst]
                slack = (
                    pu.start + pu.duration + cost(pu.pe, pv.pe, e.volume)
                    - pv.start
                )
                delay = e.delay
                if delay == 0:
                    if slack > 0:
                        return None
                    fresh[key] = 0
                else:
                    fresh[key] = -(-slack // delay)
            for e in graph._succ[n].values():
                key = e.key
                if key in seen:
                    continue
                seen.add(key)
                pu = placements[e.src]
                pv = placements[e.dst]
                slack = (
                    pu.start + pu.duration + cost(pu.pe, pv.pe, e.volume)
                    - pv.start
                )
                delay = e.delay
                if delay == 0:
                    if slack > 0:
                        return None
                    fresh[key] = 0
                else:
                    fresh[key] = -(-slack // delay)
        bounds = self._bounds
        heap = self._heap
        for key, bound in fresh.items():
            if bounds.get(key) != bound:
                bounds[key] = bound
                heappush(heap, (-bound, key))
        return self.projected_length()

    def restore(self, snapshot: dict[tuple[Node, Node], int]) -> None:
        """Re-install bounds saved by :meth:`snapshot`."""
        bounds = self._bounds
        heap = self._heap
        for key, bound in snapshot.items():
            if bounds.get(key) != bound:
                bounds[key] = bound
                heappush(heap, (-bound, key))

    def projected_length(self) -> int:
        """``max(makespan, all edge bounds, 1)`` — identical to
        :func:`projected_schedule_length` for a complete, conflict-free
        placement set.

        The maximum bound comes from the lazy-deletion heap: tops whose
        recorded value no longer matches ``_bounds`` are popped (their
        key was updated since the entry was pushed — the fresh entry
        sits further down), so the read is O(stale entries) instead of
        O(edges)."""
        heap = self._heap
        bounds = self._bounds
        bound = 0
        while heap:
            neg, key = heap[0]
            if bounds.get(key) == -neg:
                bound = -neg
                break
            heappop(heap)
        makespan = self.schedule.makespan
        if makespan > bound:
            bound = makespan
        return bound if bound > 1 else 1
