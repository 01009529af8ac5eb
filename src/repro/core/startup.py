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
* **Wake-ups.**  A node's per-PE arrival bounds ``cm_p`` are fixed once
  it is ready, and PE release times only grow, so it cannot be placed
  before ``min_p max(cm_p, busy_p) + 1``.  It sleeps until then after a
  failed probe (until ``min_p cm_p + 1`` on becoming ready), and ``cs``
  jumps straight to the next step where some node is awake and some PE
  is free.

Delayed (loop-carried) edges are invisible to the placement loop (the
paper feeds the algorithm the graph "with no feedback edges") but still
constrain the initiation interval: the final schedule length is the
projected schedule length of the resulting placements, which may pad
empty control steps at the end of the table.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

from repro.arch.cache import CommCostCache
from repro.arch.topology import Architecture
from repro.core.priority import PriorityFn, paper_priority
from repro.core.psl import projected_schedule_length
from repro.errors import SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.properties import alap_times
from repro.graph.validation import topological_order_zero_delay
from repro.obs import metrics, span
from repro.schedule.table import ScheduleTable

__all__ = ["start_up_schedule"]


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
        Optional precomputed communication-cost cache (see
        :class:`repro.arch.cache.CommCostCache`); placement decisions
        are identical with or without it.

    Returns
    -------
    A legal :class:`~repro.schedule.table.ScheduleTable`.
    """
    if graph.num_nodes == 0:
        raise SchedulingError("cannot schedule an empty graph")
    # verifies legality (zero-delay subgraph acyclic) as a side effect
    order = topological_order_zero_delay(graph)

    with span(
        "startup", workload=graph.name, arch=arch.name
    ) as startup_span:
        alap = alap_times(graph, order=order)  # mobility_map(graph)
        schedule = ScheduleTable(
            arch.num_pes, name=f"{graph.name}@{arch.name}:startup"
        )
        cost = comm.cost if comm is not None else arch.comm_cost
        processors = list(arch.processors)
        # last control step each PE is busy, keyed by PE id (degraded
        # machines have non-contiguous ids)
        busy = dict.fromkeys(processors, 0)
        # base execution time -> (duration on each processor, candidates
        # of a node without zero-delay producers: every cm_p is 0)
        by_time: dict[int, tuple[list[int], list[tuple[int, int, int]]]] = {}
        # (source PE, volume) -> comm cost to each processor
        rows: dict[tuple[int, int], list[int]] = {}
        finish: dict[Node, int] = {}

        pending_preds: dict[Node, int] = {
            v: sum(1 for e in graph.in_edges(v) if e.delay == 0)
            for v in order
        }
        # ready node -> (a, b, candidates sorted by (duration, cm, pe));
        # dropped on placement
        state: dict[Node, tuple[float, int, list[tuple[int, int, int]]]] = {}
        # b -> [(-a, str(v), seq, v)]; seq keeps ties off the nodes
        heaps: dict[int, list] = {}
        wake: list[tuple[int, int, Node]] = []  # (wake-up step, seq, v)
        seqs = count()
        remaining = graph.num_nodes

        # any legal schedule fits in total work plus total possible comm
        max_comm = arch.diameter * sum(e.volume for e in graph.edges())
        cs_limit = graph.total_work() + max_comm + 1

        deferrals = 0

        def sleep(node: Node, last_blocked: int) -> None:
            heappush(wake, (last_blocked + 1, next(seqs), node))

        def make_ready(node: Node) -> None:
            a, b = priority(graph, alap, finish, node)
            base_time = graph.time(node)
            if base_time not in by_time:
                per_pe = [
                    arch.execution_time(pe, base_time) for pe in processors
                ]
                by_time[base_time] = (
                    per_pe, sorted(zip(per_pe, [0] * len(per_pe), processors))
                )
            per_pe, candidates = by_time[base_time]
            # per-PE data arrival bound cm_p, fixed from here on
            cms = None
            for e in graph.in_edges(node):
                if e.delay != 0:
                    continue
                src_pe = schedule.processor(e.src)
                row = rows.get((src_pe, e.volume))
                if row is None:
                    row = rows[src_pe, e.volume] = [
                        cost(src_pe, pe, e.volume) for pe in processors
                    ]
                finish_u = finish[e.src]
                arrivals = [finish_u + c for c in row]
                if cms is not None:
                    arrivals = list(map(max, cms, arrivals))
                cms = arrivals
            if cms is not None:
                candidates = sorted(zip(per_pe, cms, processors))
            state[node] = (a, b, candidates)
            # no PE has the data before min_p cm_p + 1
            sleep(node, min(cms) if cms is not None else 0)

        for v, k in pending_preds.items():
            if k == 0:
                make_ready(v)

        cs = 1
        last_placement = 0
        while remaining > 0:
            if cs > cs_limit:
                raise SchedulingError(
                    f"start-up scheduling did not converge by cs {cs_limit}"
                )
            while wake and wake[0][0] <= cs:
                _, ready_seq, node = heappop(wake)
                a, b, _ = state[node]
                heappush(
                    heaps.setdefault(b, []), (-a, str(node), ready_seq, node)
                )
            free = sum(1 for last in busy.values() if last < cs)
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
                node = heappop(best_heap)[3]
                candidates = state[node][2]
                for duration, cm, pe in candidates:
                    if cm < cs and busy[pe] < cs:
                        break
                else:
                    # no PE both has the data and is free before then
                    deferrals += 1
                    sleep(node, min(
                        cm if cm > busy[pe] else busy[pe]
                        for _, cm, pe in candidates
                    ))
                    continue
                occupancy = 1 if pipelined_pes else duration
                placement = schedule.place(node, pe, cs, duration, occupancy)
                busy[pe] = placement.busy_until
                free -= 1
                finish[node] = placement.finish
                del state[node]
                remaining -= 1
                last_placement = cs
                for e in graph.out_edges(node):
                    if e.delay == 0:
                        pending_preds[e.dst] -= 1
                        if pending_preds[e.dst] == 0:
                            make_ready(e.dst)
            # jump to the next step where some node is awake and some PE
            # is free: no probe can succeed in between.  Awake nodes
            # left over mean the sweep ran out of free PEs.
            release = min(busy.values()) + 1
            if any(heaps.values()):
                cs = release
            elif wake:
                cs = max(wake[0][0], release)
            else:
                cs = cs_limit + 1

        schedule.trim()
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
        startup_span.add(
            length=schedule.length,
            placements=placements_made,
            deferrals=deferrals,
            pf_evaluations=pf_evaluations,
        )
    return schedule
