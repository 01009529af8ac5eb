"""The static cyclic schedule validator — the library's ground truth.

Every scheduler output is checked against a single legality criterion
derived from the paper's execution model (§2, §3):

* **Completeness** — every graph node is placed exactly once with the
  right duration.
* **Resource exclusivity** — a processor executes at most one task per
  control step (recomputed from placements, independent of the table's
  own cell index).
* **Precedence + communication** — for every edge ``u -> v`` with delay
  ``d`` in a schedule of length ``L``::

      CB(v) + d * L  >=  CE(u) + M(PE(u), PE(v); c(e)) + 1

  (node ``v`` of iteration ``j`` starts only after node ``u`` of
  iteration ``j - d`` has finished and its data has crossed the
  interconnect; ``M = 0`` on the same processor).

The same inequality, solved for ``L``, yields the **projected schedule
length** of the paper's Lemma 4.3 (see :mod:`repro.core.psl`), so the
optimiser and the validator can never disagree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arch.topology import Architecture
from repro.errors import ScheduleValidationError
from repro.graph.csdfg import CSDFG
from repro.obs import metrics, span
from repro.schedule.table import ScheduleTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.cache import CommCostCache

__all__ = [
    "collect_violations",
    "validate_schedule",
    "is_valid_schedule",
    "minimum_feasible_length",
]


def collect_violations(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: "CommCostCache | None" = None,
) -> list[str]:
    """All legality violations of ``schedule`` (empty list == legal).

    With ``pipelined_pes=True`` a processor only needs to be free at a
    task's *issue* control step (the paper's §2 pipelined PEs); the
    precedence/communication rules are unchanged (latency is still
    ``t(v)``).  ``comm`` supplies precomputed communication costs: a
    plain cache defers any miss back to ``arch.comm_cost``, so verdicts
    are identical with or without it, while a *contended* cache (one
    built with a contention model and occupancy snapshot) certifies the
    schedule against the surcharged prices instead.
    """
    with span("validate", nodes=graph.num_nodes) as validate_span:
        violations = _collect_violations(
            graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
        )
        metrics.inc("validate.calls")
        metrics.inc("validate.violations", len(violations))
        validate_span.add(violations=len(violations))
    return violations


def _collect_violations(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: "CommCostCache | None" = None,
) -> list[str]:
    cost = comm.cost if comm is not None else arch.comm_cost
    violations: list[str] = []

    # completeness ------------------------------------------------------
    scheduled = set(schedule.nodes())
    expected = set(graph.nodes())
    for missing in sorted(map(str, expected - scheduled)):
        violations.append(f"node {missing} is not scheduled")
    for extra in sorted(map(str, scheduled - expected)):
        violations.append(f"scheduled node {extra} is not in the graph")

    placed = expected & scheduled
    routable = set()  # placed on an in-range, alive PE: safe to price
    for node in placed:
        p = schedule.placement(node)
        if p.pe >= arch.num_pes:
            violations.append(
                f"node {node!r}: PE {p.pe} outside architecture "
                f"{arch.name!r} ({arch.num_pes} PEs)"
            )
            continue
        if not arch.is_alive(p.pe):
            violations.append(
                f"node {node!r}: placed on failed pe{p.pe + 1} of "
                f"{arch.name!r}"
            )
            continue
        routable.add(node)
        expected_duration = arch.execution_time(p.pe, graph.time(node))
        if p.duration != expected_duration:
            violations.append(
                f"node {node!r}: duration {p.duration} != "
                f"{expected_duration} (t = {graph.time(node)} on pe{p.pe + 1} "
                f"of {arch.name!r})"
            )
        if p.finish > schedule.length:
            violations.append(
                f"node {node!r}: finishes at cs {p.finish} on pe{p.pe + 1} "
                f"beyond length {schedule.length}"
            )

    # resource exclusivity (recomputed, not trusting the cell index) ----
    occupancy: dict[tuple[int, int], object] = {}
    for node in sorted(placed, key=str):
        p = schedule.placement(node)
        span_end = p.start if pipelined_pes else p.finish
        for cs in range(p.start, span_end + 1):
            other = occupancy.get((p.pe, cs))
            if other is not None:
                violations.append(
                    f"resource conflict on pe{p.pe + 1} cs{cs}: "
                    f"{other!r} vs {node!r}"
                )
            else:
                occupancy[(p.pe, cs)] = node

    # precedence + communication ----------------------------------------
    # edges touching a node on an out-of-range or failed PE are skipped:
    # that placement is already reported above and cannot be priced
    L = schedule.length
    for edge in graph.edges():
        if edge.src not in routable or edge.dst not in routable:
            continue
        pu = schedule.placement(edge.src)
        pv = schedule.placement(edge.dst)
        m = cost(pu.pe, pv.pe, edge.volume)
        lhs = pv.start + edge.delay * L
        rhs = pu.finish + m + 1
        if lhs < rhs:
            violations.append(
                f"dependence edge ({edge.src!r}, {edge.dst!r}) "
                f"(d={edge.delay}, c={edge.volume}) "
                f"pe{pu.pe + 1}->pe{pv.pe + 1}: "
                f"CB({edge.dst!r})={pv.start} + "
                f"{edge.delay}*{L} = {lhs} < CE({edge.src!r})={pu.finish} + "
                f"M={m} + 1 = {rhs}"
            )
    return violations


def validate_schedule(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: "CommCostCache | None" = None,
) -> None:
    """Raise :class:`ScheduleValidationError` when ``schedule`` is
    illegal for ``graph`` on ``arch``.

    ``comm`` prices the precedence rule; pass a contended cache to
    certify legality under contention-aware prices."""
    violations = collect_violations(
        graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
    )
    if violations:
        raise ScheduleValidationError(violations)


def is_valid_schedule(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: "CommCostCache | None" = None,
) -> bool:
    """Boolean form of :func:`validate_schedule`."""
    return not collect_violations(
        graph, arch, schedule, pipelined_pes=pipelined_pes, comm=comm
    )


def minimum_feasible_length(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    comm: "CommCostCache | None" = None,
) -> int | None:
    """Smallest length making these *placements* legal, or ``None``.

    Keeps every ``(CB, PE)`` fixed and returns the smallest
    ``L >= max(makespan, 1)`` at which :func:`collect_violations` finds
    nothing, or ``None`` when no length works.  The length-independent
    rules are checked once: completeness, PE in range and alive,
    duration, and resource exclusivity (recomputed from each PE's
    spans, not from the table's cell index), and every zero-delay edge
    must hold as placed.  Each delayed edge then demands
    ``L >= ceil((CE(u) + M + 1 - CB(v)) / d)``; at the maximum of those
    bounds and the makespan every precedence inequality holds, so one
    pass over the placements and one over the edges decide the answer.
    """
    cost = comm.cost if comm is not None else arch.comm_cost
    # stored records: every rule below compares two starts of one table
    # (CE(u) - CB(v), overlaps on one PE), so the origin cancels
    placements = schedule.stored_placements()[0]
    times = graph.times()
    if len(placements) != len(times):
        return None
    num_pes = arch.num_pes
    # (PE, t) -> the duration a task of time t takes there; None on an
    # out-of-range or failed PE, where no placement can be legal
    durations: dict[tuple[int, int], int | None] = {}
    spans: dict[int, list[tuple[int, int]]] = {}
    for node, p in placements.items():
        base_time = times.get(node)
        if base_time is None:
            return None  # scheduled node not in the graph
        pe = p.pe
        key = (pe, base_time)
        if key in durations:
            duration = durations[key]
        else:
            duration = durations[key] = (
                arch.execution_time(pe, base_time)
                if pe < num_pes and arch.is_alive(pe)
                else None
            )
        if p.duration != duration:
            return None
        start = p.start
        end = start if pipelined_pes else start + p.duration - 1
        spans.setdefault(pe, []).append((start, end))
    for pe_spans in spans.values():
        pe_spans.sort()
        busy_until = pe_spans[0][0] - 1
        for start, end in pe_spans:
            if start <= busy_until:
                return None
            if end > busy_until:
                busy_until = end

    required = max(schedule.makespan, 1)
    for edge in graph.edges():
        pu = placements[edge.src]
        pv = placements[edge.dst]
        slack_needed = (
            pu.start + pu.duration + cost(pu.pe, pv.pe, edge.volume) - pv.start
        )
        if edge.delay == 0:
            if slack_needed > 0:
                return None
        else:
            need = -(-slack_needed // edge.delay)  # ceil division
            if need > required:
                required = need
    return required
