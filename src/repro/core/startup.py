"""Start-up scheduling (paper §3): communication-aware list scheduling.

The algorithm walks control steps ``cs = 1, 2, ...`` keeping a ready
list of nodes whose zero-delay predecessors are all scheduled, ordered
by the priority function PF.  A ready node is placed at ``cs`` on the
processor minimising ``cm = max_i (CE(pred_i) + M(PE(pred_i), p; c))``
— the latest data-arrival over its predecessors — provided ``cm < cs``
(the data is there) and the processor is free for the node's full
duration.  Nodes that fit nowhere are deferred to the next control
step.

The walk is event-driven; it places exactly what the step-by-step walk
(:func:`repro.perf.reference.reference_start_up_schedule`) places:

* **Static keys.**  A priority is computed once, when the node becomes
  ready, as a key ``(a, b)`` scoring ``a + b * cs``
  (:mod:`repro.core.priority`).  The ready list is one heap per
  distinct ``b``, merged at their heads by ``(-score, str(v))``.
* **Free-PE threshold.**  Placements happen at non-decreasing ``cs``,
  so a PE is free at ``cs`` exactly when its last task ends before
  ``cs``, whatever the new task's occupancy.  The sweep at ``cs`` stops
  as soon as no PE is free: every later probe would fail.
* **Release heap.**  The last busy step of every busy PE sits in one
  heap; a step pops the PEs that ended before it into the free count,
  and a placement pushes its PE back.  The heap's head is the next
  release ``cs`` can jump to when no PE is free.
* **Wake-ups.**  A node's per-PE arrival bounds ``cm_p`` are fixed once
  it is ready, and PE release times only grow, so it cannot be placed
  before ``min_p max(cm_p, busy_p) + 1``.  It sleeps until then after a
  failed probe (until ``min_p cm_p + 1`` on becoming ready), and ``cs``
  jumps straight to the next step where some node is awake and some PE
  is free.
* **Candidate orders.**  A probe tries the PEs by ``(duration, cm_p,
  PE id)`` and takes the first that has the data and is free.  A
  duration is the node's base time times the PE's time scale, so every
  base time orders the PEs like their scales.  A node with one
  zero-delay producer ``u`` has ``cm_p = CE(u) + M(PE(u), p; c)``,
  and ``CE(u)`` shifts every entry alike, so its order depends only on
  ``u``'s PE and the volume: it is sorted once per such pair and
  shared, with the cost row, by every node that repeats it.  Root
  nodes share one order; only nodes with several producers sort their
  own.

* **Index data only.**  One walk over the graph
  (:func:`repro.graph.validation.zero_delay_index`, shared with
  ASAP/ALAP) yields the zero-delay successor rows, the producer lists
  with their volumes, the same LIFO Kahn order as
  :func:`repro.graph.validation.topological_order_zero_delay` and the
  edge counts per volume that size :func:`start_up_step_limit`.  ALAP
  runs on the rows, and a node's priority inputs are its producers'
  finish steps and volumes, read off the producer list.  PE state is
  indexed by position in ``arch.processors`` (degraded machines have
  non-contiguous ids); each placed node's PE id, start, duration and
  occupancy go into per-node lists.
* **Bulk-loaded table.**  The loop never reads the table it produces:
  it tracks PE occupancy in ``busy``.  The lists are loaded into the
  :class:`~repro.schedule.table.ScheduleTable` in placement order at the
  end (:meth:`~repro.schedule.table.ScheduleTable.from_placements`);
  placements come at non-decreasing control steps, so each PE's spans
  arrive sorted and append.

Delayed (loop-carried) edges are invisible to the placement loop (the
paper feeds the algorithm the graph "with no feedback edges") but still
constrain the initiation interval: the final schedule length is the
projected schedule length of the resulting placements, which may pad
empty control steps at the end of the table.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count, repeat
from operator import add
from typing import Mapping, Sequence

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core.priority import PriorityFn, paper_priority
from repro.core.psl import projected_schedule_length
from repro.errors import SchedulingError
from repro.graph.csdfg import CSDFG
from repro.graph.properties import alap_indexed
from repro.graph.validation import zero_delay_index
from repro.obs import metrics, span
from repro.schedule.table import ScheduleTable

__all__ = ["start_up_schedule", "start_up_step_limit"]


def start_up_step_limit(
    arch: Architecture,
    comm: CommCostCache,
    work: int,
    volumes: Mapping[int, int],
) -> int:
    """A control step by which start-up has placed every node.

    Any list schedule fits in the total work ``work`` (the sum of the
    graph's node times) run on the slowest PE plus the dearest price
    ``comm`` can charge for every edge's transfer, plus one.
    ``volumes`` counts the graph's edges, delayed ones included, by data
    volume.
    """
    slowest = max(arch.time_scales[pe] for pe in arch.processors)
    max_comm = sum(comm.max_cost(volume) * k for volume, k in volumes.items())
    return work * slowest + max_comm + 1


def start_up_schedule(
    graph: CSDFG,
    arch: Architecture,
    *,
    priority: PriorityFn = paper_priority,
    pad_for_delayed_edges: bool = True,
    pipelined_pes: bool = False,
    comm: CommCostCache | None = None,
) -> ScheduleTable:
    """Compute the paper's initial schedule for ``graph`` on ``arch``.

    Parameters
    ----------
    priority:
        Start-up priority function; defaults to the paper's PF.  The
        ablation suite passes the alternatives from
        :mod:`repro.core.priority`.
    pad_for_delayed_edges:
        Grow the schedule length to the projected schedule length so
        loop-carried cross-processor dependences are met (on by
        default; disable only to inspect the raw makespan).
    pipelined_pes:
        Treat every PE as pipelined (§2): a task blocks its processor
        for one control step only, while its results still take
        ``t(v)`` control steps to appear.
    comm:
        The :class:`repro.arch.cache.CommCostCache` pricing every
        placement; a plain cache for ``graph`` is built when omitted.

    Returns
    -------
    A legal :class:`~repro.schedule.table.ScheduleTable`.
    """
    if graph.num_nodes == 0:
        raise SchedulingError("cannot schedule an empty graph")
    # verifies legality (zero-delay subgraph acyclic) as a side effect
    nodes, rows, producers, volumes, order = zero_delay_index(graph)
    times = list(graph._time.values())

    with span(
        "startup", workload=graph.name, arch=arch.name
    ) as startup_span:
        alap = alap_indexed(times, rows, order)
        if comm is None:
            comm = CommCostCache.for_graph(arch, graph)
        cost = comm.cost
        processors = list(arch.processors)
        positions = range(len(processors))
        zeros = [0] * len(processors)
        # execution_time(pe, t) is t * time_scales[pe] with t >= 1, so
        # every base time orders the PEs by duration like their scales
        scales = [arch.time_scales[pe] for pe in processors]
        by_id = sorted(positions, key=processors.__getitem__)

        def ranked(cms: list[int]) -> list[int]:
            """Positions in probe order: by (duration, cm_p, PE id), as
            stable sorts of the positions in PE-id order."""
            return sorted(
                sorted(by_id, key=cms.__getitem__), key=scales.__getitem__
            )

        # every cm_p of a node without zero-delay producers is 0
        root_ranking = ranked(zeros)
        # last control step each PE is busy, by position
        busy = list(zeros)
        # base execution time -> duration on each PE
        by_time: dict[int, list[int]] = {}
        # (source PE, volume) -> (comm cost to each PE, probe order of a
        # node whose one zero-delay producer sits there, min cost)
        transfers: dict[tuple[int, int], tuple[list[int], list[int], int]] = {}
        # each placed node's PE id, start, duration and finish step
        where = [0] * len(nodes)
        begins = [0] * len(nodes)
        took = [0] * len(nodes)
        ends = [0] * len(nodes)
        placed: list[int] = []  # node indices in placement order
        names = [str(v) for v in nodes]
        pending = [len(p) for p in producers]
        # a ready node's PF key; dropped with its probe once it is placed
        keys: list[tuple[float, int] | None] = [(0.0, 0)] * len(nodes)
        # ready node -> (cm offset, cm_p - offset by position, probe
        # order, duration by position)
        probes: list = [None] * len(nodes)
        # b -> [(-a, str(v), seq, i)]; seq keeps ties off the indices
        heaps: dict[int, list] = {}
        wake: list[tuple[int, int, int]] = []  # (wake-up step, seq, i)
        released: list[int] = []  # last busy step of every busy PE
        seqs = count()
        remaining = len(nodes)

        cs_limit = start_up_step_limit(arch, comm, sum(times), volumes)

        deferrals = 0
        sweeps = 0

        def transfer(
            src_pe: int, volume: int
        ) -> tuple[list[int], list[int], int]:
            cached = transfers.get((src_pe, volume))
            if cached is None:
                row = [cost(src_pe, pe, volume) for pe in processors]
                cached = transfers[src_pe, volume] = (
                    row, ranked(row), min(row)
                )
            return cached

        def make_ready(i: int) -> None:
            durations = by_time.get(times[i])
            if durations is None:
                durations = by_time[times[i]] = [
                    arch.execution_time(pe, times[i]) for pe in processors
                ]
            sources = producers[i]
            # per-PE data arrival bound cm_p, fixed from here on
            if not sources:
                inputs: Sequence[tuple[int, int]] = ()
                offset, cms, ranking, low = 0, zeros, root_ranking, 0
            elif len(sources) == 1:
                u, volume = sources[0]
                offset = ends[u]
                inputs = ((offset, volume),)
                cms, ranking, low = transfer(where[u], volume)
            else:
                inputs = [(ends[u], volume) for u, volume in sources]
                offset = 0
                cms = list(map(max, *[
                    map(add, transfer(where[u], volume)[0], repeat(ends[u]))
                    for u, volume in sources
                ]))
                ranking, low = ranked(cms), min(cms)
            keys[i] = priority(nodes[i], alap[i], inputs)
            probes[i] = (offset, cms, ranking, durations)
            # no PE has the data before min_p cm_p + 1
            heappush(wake, (offset + low + 1, next(seqs), i))

        for i in order:
            if pending[i] == 0:
                make_ready(i)

        free = len(processors)
        cs = 1
        last_placement = 0
        while remaining > 0:
            if cs > cs_limit:
                raise SchedulingError(
                    f"start-up scheduling did not converge by cs {cs_limit}"
                )
            sweeps += 1
            while released and released[0] < cs:
                heappop(released)
                free += 1
            while wake and wake[0][0] <= cs:
                _, ready_seq, i = heappop(wake)
                a, b = keys[i]
                heappush(
                    heaps.setdefault(b, []), (-a, names[i], ready_seq, i)
                )
            while free:
                # merge the heap heads by (-score, str(v))
                best_key = best_heap = None
                for b, heap in heaps.items():
                    if heap:
                        neg_a, name = heap[0][0], heap[0][1]
                        key = (neg_a - b * cs, name)
                        if best_heap is None or key < best_key:
                            best_key, best_heap = key, heap
                if best_heap is None:
                    break
                i = heappop(best_heap)[3]
                offset, cms, ranking, durations = probes[i]
                limit = cs - offset
                for pos in ranking:
                    if cms[pos] < limit and busy[pos] < cs:
                        break
                else:
                    # no PE both has the data and is free before then
                    deferrals += 1
                    if offset:
                        cms = map(add, cms, repeat(offset))
                    blocked = min(map(max, cms, busy))
                    heappush(wake, (blocked + 1, next(seqs), i))
                    continue
                duration = took[i] = durations[pos]
                until = busy[pos] = cs if pipelined_pes else cs + duration - 1
                heappush(released, until)
                free -= 1
                where[i] = processors[pos]
                begins[i] = cs
                ends[i] = cs + duration - 1
                placed.append(i)
                probes[i] = keys[i] = None
                remaining -= 1
                last_placement = cs
                for w in rows[i]:
                    pending[w] -= 1
                    if pending[w] == 0:
                        make_ready(w)
            # jump to the next step where some node is awake and some PE
            # is free: no probe can succeed in between.  Awake nodes
            # left over mean the sweep ran out of free PEs.
            if any(heaps.values()):
                next_cs = released[0] + 1
            elif wake:
                next_cs = (
                    wake[0][0] if free else max(wake[0][0], released[0] + 1)
                )
            else:
                next_cs = cs_limit + 1
            if next_cs <= cs:
                # every wake-up and release lies past the sweep's step,
                # so this is a bookkeeping fault: fail, do not spin
                raise SchedulingError(
                    f"start-up scheduling made no progress at cs {cs}: "
                    f"next step {next_cs}"
                )
            cs = next_cs

        # its length is its makespan, the last busy control step
        schedule = ScheduleTable.from_placements(
            arch.num_pes, nodes, where, begins, took,
            [1] * len(nodes) if pipelined_pes else took,
            order=placed, name=f"{graph.name}@{arch.name}:startup",
        )
        if pad_for_delayed_edges:
            schedule.set_length(
                projected_schedule_length(
                    graph, arch, schedule, pipelined_pes=pipelined_pes,
                    comm=comm,
                )
            )
        # every node is placed once and keyed once, when it became ready
        placements_made = pf_evaluations = graph.num_nodes
        metrics.inc("startup.placements", placements_made)
        metrics.inc("startup.deferrals", deferrals)
        metrics.inc("startup.pf_evaluations", pf_evaluations)
        metrics.inc("startup.control_steps", last_placement)
        metrics.inc("startup.sweeps", sweeps)
        startup_span.add(
            length=schedule.length,
            placements=placements_made,
            deferrals=deferrals,
            pf_evaluations=pf_evaluations,
        )
    return schedule
