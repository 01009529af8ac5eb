"""Exact (branch-and-bound) scheduling for tiny instances.

Exhaustively searches placements (processor and start step per task)
for the smallest schedule length at which the given graph — with its
*current* delay assignment, i.e. no retiming — admits a legal schedule.
Exponential by nature: intended as an optimality oracle for the tests
and the optimality-gap bench on instances of a handful of nodes.

Two uses:

* certify the placement quality of the heuristics for a *fixed* graph
  (start-up, ETF, or the remapping of the final retimed graph),
* measure the optimality gap of cyclo-compaction's placement phase.

The search runs nodes in zero-delay topological order, prunes on
processor occupancy and on the earliest feasible start implied by
already-placed producers, and checks delayed-edge constraints as soon
as both endpoints are placed.
"""

from __future__ import annotations

from repro.arch.topology import Architecture
from repro.core.bounds import length_lower_bound
from repro.errors import SchedulingError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.validation import topological_order_zero_delay
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import collect_violations

__all__ = ["exact_minimum_length", "find_schedule_of_length"]

_MAX_NODES = 12


def find_schedule_of_length(
    graph: CSDFG,
    arch: Architecture,
    length: int,
    *,
    node_budget: int = 2_000_000,
) -> ScheduleTable | None:
    """A legal schedule of exactly ``length`` control steps, or None.

    Raises :class:`SchedulingError` when the graph is too large for
    exhaustive search or the search budget is exhausted (so a budget
    blow-up is never silently reported as "infeasible").
    """
    if graph.num_nodes > _MAX_NODES:
        raise SchedulingError(
            f"exact search supports <= {_MAX_NODES} nodes, got {graph.num_nodes}"
        )
    order = topological_order_zero_delay(graph)
    schedule = ScheduleTable(arch.num_pes, name=f"{graph.name}:exact")
    schedule.set_length(0)
    budget = [node_budget]

    if _place(graph, arch, schedule, order, 0, length, budget):
        schedule.set_length(length)
        assert collect_violations(graph, arch, schedule) == []
        return schedule
    return None


def _place(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    order: list[Node],
    idx: int,
    length: int,
    budget: list[int],
) -> bool:
    if idx == len(order):
        return True
    budget[0] -= 1
    if budget[0] < 0:
        raise SchedulingError("exact search budget exhausted")
    node = order[idx]
    base_time = graph.time(node)

    for pe in arch.processors:
        duration = arch.execution_time(pe, base_time)
        if duration > length:
            continue
        floor = 1
        feasible_pe = True
        for e in graph.in_edges(node):
            if e.src == node or e.src not in schedule:
                continue
            p = schedule.placement(e.src)
            comm = arch.comm_cost(p.pe, pe, e.volume)
            need = p.finish + comm + 1 - e.delay * length
            if need > floor:
                floor = need
        if floor + duration - 1 > length:
            continue
        for cb in range(floor, length - duration + 2):
            if not schedule.is_free(pe, cb, duration):
                continue
            ce = cb + duration - 1
            # delayed/zero-delay edges toward already-placed consumers
            if not _consumers_ok(graph, arch, schedule, node, pe, cb, ce, length):
                continue
            if not _self_loops_ok(graph, node, duration, length):
                continue
            schedule.place(node, pe, cb, duration)
            if _place(graph, arch, schedule, order, idx + 1, length, budget):
                return True
            schedule.remove(node)
        _ = feasible_pe
    return False


def _consumers_ok(graph, arch, schedule, node, pe, cb, ce, length) -> bool:
    for e in graph.out_edges(node):
        if e.dst == node or e.dst not in schedule:
            continue
        p = schedule.placement(e.dst)
        comm = arch.comm_cost(pe, p.pe, e.volume)
        if p.start + e.delay * length < ce + comm + 1:
            return False
    return True


def _self_loops_ok(graph, node, duration, length) -> bool:
    for e in graph.in_edges(node):
        if e.src == node and duration > e.delay * length:
            return False
    return True


def exact_minimum_length(
    graph: CSDFG,
    arch: Architecture,
    *,
    max_length: int | None = None,
    node_budget: int = 2_000_000,
) -> tuple[int, ScheduleTable]:
    """The smallest legal schedule length for ``graph`` on ``arch``
    (no retiming), with a witness schedule.

    Starts at the floor ``B``
    (:func:`~repro.core.bounds.length_lower_bound`) and increases until
    a schedule exists; ``max_length`` defaults to the sequential length
    on the first live PE.
    """
    pe = arch.processors[0]
    upper = max_length if max_length is not None else max(
        1, sum(arch.execution_time(pe, graph.time(v)) for v in graph.nodes())
    )
    lower = length_lower_bound(graph, arch)
    for length in range(lower, upper + 1):
        schedule = find_schedule_of_length(
            graph, arch, length, node_budget=node_budget
        )
        if schedule is not None:
            return length, schedule
    raise SchedulingError(
        f"no schedule of length <= {upper} exists (graph {graph.name!r})"
    )
