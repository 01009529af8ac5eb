"""The static cyclic schedule validator — the library's ground truth.

Every scheduler output is checked against a single legality criterion
derived from the paper's execution model (§2, §3):

* **Completeness** — every graph node is placed exactly once with the
  right duration.
* **Resource exclusivity** — a processor executes at most one task per
  control step (recomputed from placements by sorting each processor's
  spans, independent of the table's own cell index).
* **Precedence + communication** — for every edge ``u -> v`` with delay
  ``d`` in a schedule of length ``L``::

      CB(v) + d * L  >=  CE(u) + M(PE(u), PE(v); c(e)) + 1

  (node ``v`` of iteration ``j`` starts only after node ``u`` of
  iteration ``j - d`` has finished and its data has crossed the
  interconnect; ``M = 0`` on the same processor).

One walk decides both legality and the minimum length: a pass over the
placements and a pass over the edges yield the violations at the
recorded length *and*, from the same inequality solved for ``L``, the
smallest length at which the placements are legal — the **projected
schedule length** of the paper's Lemma 4.3 (see :mod:`repro.core.psl`),
so the optimiser and the validator can never disagree.
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


def _walk(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    pipelined_pes: bool,
    comm: "CommCostCache | None",
) -> tuple[list[str], list[tuple], list[tuple], int | None]:
    """One pass over the placements and one over the edges.

    Returns ``(faults, overruns, broken, required)``: the messages of
    the rules no length can repair; the raw facts of the rules broken
    at the recorded length — ``(node, pe, finish)`` for a task running
    past it, ``(edge, pe_u, pe_v, M, CB(v), CE(u))`` for a violated
    precedence inequality — left for :func:`collect_violations` to
    word, so the length search formats nothing; and the smallest
    length legal for these placements (``None`` when no length is).

    Works on the stored records: every rule compares two starts of one
    table (``CE(u) - CB(v)``, overlaps on one PE), so the origin cancels
    and is added back only to the steps a fact names.
    """
    cost = comm.cost if comm is not None else arch.comm_cost
    placements, origin = schedule.stored_placements()
    times = graph.times()
    num_pes = arch.num_pes
    L = schedule.length
    faults = [
        f"node {v} is not scheduled"
        for v in sorted(str(v) for v in times if v not in placements)
    ]
    faults += [
        f"scheduled node {v} is not in the graph"
        for v in sorted(str(v) for v in placements if v not in times)
    ]
    overruns: list[tuple] = []
    unroutable = set()  # off the machine or on a failed PE
    # (PE, t) -> the duration a task of time t takes there; None on an
    # out-of-range or failed PE, where no placement can be legal
    durations: dict[tuple[int, int], int | None] = {}
    spans: dict[int, list[tuple[int, int, int, object]]] = {}
    for i, (node, p) in enumerate(placements.items()):
        base_time = times.get(node)
        if base_time is None:
            continue  # reported above
        pe, start = p.pe, p.start
        key = (pe, base_time)
        if key in durations:
            duration = durations[key]
        else:
            duration = durations[key] = (
                arch.execution_time(pe, base_time)
                if pe < num_pes and arch.is_alive(pe)
                else None
            )
        if duration is None:
            unroutable.add(node)
            faults.append(
                f"node {node!r}: PE {pe} outside architecture "
                f"{arch.name!r} ({num_pes} PEs)"
                if pe >= num_pes
                else f"node {node!r}: placed on failed pe{pe + 1} of "
                f"{arch.name!r}"
            )
            continue
        if p.duration != duration:
            faults.append(
                f"node {node!r}: duration {p.duration} != {duration} "
                f"(t = {base_time} on pe{pe + 1} of {arch.name!r})"
            )
        finish = start + p.duration - 1
        if finish + origin > L:
            overruns.append((node, pe, finish + origin))
        # i breaks ties, so the sort never compares two nodes
        spans.setdefault(pe, []).append(
            (start, start if pipelined_pes else finish, i, node)
        )

    # resource exclusivity: each span against the furthest-reaching
    # earlier span on its PE
    for pe, pe_spans in spans.items():
        pe_spans.sort()
        busy_until, holder = pe_spans[0][0] - 1, None
        for start, end, _i, node in pe_spans:
            if start <= busy_until:
                faults.append(
                    f"resource conflict on pe{pe + 1} cs{start + origin}: "
                    f"{holder!r} vs {node!r}"
                )
            if end > busy_until:
                busy_until, holder = end, node

    # precedence + communication; edges touching a node on an
    # out-of-range or failed PE are skipped: that placement is already
    # reported above and cannot be priced
    routable = (
        {v: p for v, p in placements.items() if v not in unroutable}
        if unroutable
        else placements
    )
    illegal = bool(faults)
    broken: list[tuple] = []
    required = max(schedule.makespan, 1)
    for edge in graph.edges():
        try:
            pu, pv = routable[edge.src], routable[edge.dst]
        except KeyError:
            continue  # an endpoint is unscheduled or unroutable
        m = cost(pu.pe, pv.pe, edge.volume)
        # CE(u) + M + 1 - CB(v): what d·L must cover
        slack_needed = pu.start + pu.duration + m - pv.start
        delay = edge.delay
        if slack_needed > delay * L:
            broken.append((
                edge, pu.pe, pv.pe, m,
                pv.start + origin, pu.start + pu.duration - 1 + origin,
            ))
        if delay == 0:
            if slack_needed > 0:
                illegal = True
        else:
            need = -(-slack_needed // delay)  # ceil division
            if need > required:
                required = need
    return faults, overruns, broken, None if illegal else required


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
        L = schedule.length
        faults, overruns, broken, _ = _walk(
            graph, arch, schedule, pipelined_pes, comm
        )
        violations = faults + [
            f"node {node!r}: finishes at cs {finish} on pe{pe + 1} "
            f"beyond length {L}"
            for node, pe, finish in overruns
        ] + [
            f"dependence edge ({e.src!r}, {e.dst!r}) "
            f"(d={e.delay}, c={e.volume}) pe{pe_u + 1}->pe{pe_v + 1}: "
            f"CB({e.dst!r})={cb_v} + {e.delay}*{L} = {cb_v + e.delay * L} "
            f"< CE({e.src!r})={ce_u} + M={m} + 1 = {ce_u + m + 1}"
            for e, pe_u, pe_v, m, cb_v, ce_u in broken
        ]
        metrics.inc("validate.calls")
        metrics.inc("validate.violations", len(violations))
        validate_span.add(violations=len(violations))
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
    rules (completeness, PE in range and alive, duration, resource
    exclusivity, every zero-delay edge as placed) must hold; each
    delayed edge then demands ``L >= ceil((CE(u) + M + 1 - CB(v)) / d)``,
    and at the maximum of those bounds and the makespan every
    precedence inequality holds.
    """
    return _walk(graph, arch, schedule, pipelined_pes, comm)[3]
