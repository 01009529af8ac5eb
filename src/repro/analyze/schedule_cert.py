"""RA4xx — schedule certificate checking.

Certifies a serialized static cyclic schedule against DESIGN §1's
two-clause criterion *without constructing a scheduler and without
calling the runtime validator*: clause 1 (exclusive processor
occupancy) is recomputed from the placements, clause 2 (precedence +
communication) is re-derived edge by edge from ``arch.hops`` and the
communication cost model —

    CB(v) + d(e) * L  >=  CE(u) + M(PE(u), PE(v); c(e)) + 1

with ``CE(u) = CB(u) + duration(u) - 1`` and, by default,
``M = comm_model.cost(arch.hops(PE(u), PE(v)), c(e))``.  This is the
one oracle of the criterion: the production walk in
:mod:`repro.schedule.validate` decides legality and the minimum length
for the engine, and every independent check (the fuzz properties, the
benchmark's certification) goes through here instead, so a schedule
that certifies is legal by an implementation that shares no code with
the pipeline that produced it.  Models beyond the paper's pricing
(contention surcharges) plug in through ``price``.
"""

from __future__ import annotations

from typing import Callable

from repro.analyze.diagnostics import Diagnostic
from repro.analyze.rules import make
from repro.arch.topology import Architecture
from repro.graph.csdfg import CSDFG
from repro.schedule.table import ScheduleTable

__all__ = ["certify_schedule"]


def certify_schedule(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    *,
    pipelined_pes: bool = False,
    price: Callable[[int, int, int], int] | None = None,
) -> list[Diagnostic]:
    """All RA4xx findings of ``schedule`` for ``graph`` on ``arch``.

    An empty error set is the certificate: the schedule satisfies both
    clauses of the DESIGN §1 criterion at its recorded length.  A
    single RA405 *info* finding may accompany a clean certificate when
    the same placements stay legal at a smaller length.

    ``price(pe_u, pe_v, volume)`` is the ``M`` of clause 2; it defaults
    to ``arch.comm_model.cost(arch.hops(pe_u, pe_v), volume)``.
    """
    if price is None:
        def price(pe_u: int, pe_v: int, volume: int) -> int:
            return arch.comm_model.cost(arch.hops(pe_u, pe_v), volume)  # repro-lint: disable=RL103 (independent re-derivation)
    prices: dict[tuple[int, int, int], int] = {}

    out: list[Diagnostic] = []

    # completeness ------------------------------------------------------
    scheduled = {str(v) for v in schedule.nodes()}
    expected = {str(v) for v in graph.nodes()}
    for missing in sorted(expected - scheduled):
        out.append(make(
            "RA401", f"graph node {missing!r} is not scheduled",
            node=missing,
        ))
    for extra in sorted(scheduled - expected):
        out.append(make(
            "RA401", f"scheduled node {extra!r} is not in the graph",
            node=extra,
        ))

    # placement well-formedness (clause-1 preconditions) ----------------
    # the live records, read without a copy each: a record's absolute
    # start is ``p.start + origin``
    stored, origin = schedule.stored_placements()
    placements = {str(v): p for v, p in stored.items()}
    # name -> graph node: the name itself when it is a node, else the
    # first node (in graph order) printing as it
    by_name: dict[str, object] = {}
    for node in graph.nodes():
        by_name.setdefault(str(node), node)
    routable: set[str] = set()
    for name in sorted(expected & scheduled):
        p = placements[name]
        if not (0 <= p.pe < arch.num_pes):
            out.append(make(
                "RA404",
                f"node {name!r}: PE {p.pe} outside {arch.name!r} "
                f"({arch.num_pes} PEs)",
                node=name,
            ))
            continue
        if not arch.is_alive(p.pe):
            out.append(make(
                "RA404",
                f"node {name!r}: placed on failed pe{p.pe + 1} of "
                f"{arch.name!r}",
                node=name, pe=p.pe,
            ))
            continue
        routable.add(name)
        key = name if name in graph else by_name[name]
        want = arch.execution_time(p.pe, graph.time(key))
        if p.duration != want:
            out.append(make(
                "RA404",
                f"node {name!r}: duration {p.duration} != {want} on "
                f"pe{p.pe + 1}",
                node=name, pe=p.pe,
            ))
        if p.finish + origin > schedule.length:
            out.append(make(
                "RA404",
                f"node {name!r}: finishes at cs {p.finish + origin}, "
                f"beyond the schedule length {schedule.length}",
                node=name, pe=p.pe,
            ))

    # clause 1: exclusive occupancy -------------------------------------
    # one owner map per PE, keyed by control step: no (PE, step) tuple
    # per cell, and memory follows the occupied cells, so a start far
    # past L (RA404 above) allocates nothing for the steps before it
    owners: list[dict[int, str]] = [{} for _ in range(arch.num_pes)]
    for name in sorted(routable):
        p = placements[name]
        row = owners[p.pe]
        start = p.start + origin
        last = start if pipelined_pes else p.finish + origin
        for cs in range(start, last + 1):
            other = row.get(cs)
            if other is not None:
                out.append(make(
                    "RA402",
                    f"pe{p.pe + 1} cs{cs}: {other!r} and {name!r} "
                    f"overlap",
                    node=name, pe=p.pe,
                ))
            else:
                row[cs] = name

    # clause 2: precedence + communication, M from ``price`` -----------
    L = schedule.length
    min_required = 1
    for edge in graph.edges():
        src, dst = str(edge.src), str(edge.dst)
        if src not in routable or dst not in routable:
            continue
        pu, pv = placements[src], placements[dst]
        ce_u = pu.start + origin + pu.duration - 1
        cb_v = pv.start + origin
        link = (pu.pe, pv.pe, edge.volume)
        m = prices.get(link)
        if m is None:
            m = prices[link] = price(*link)
        if cb_v + edge.delay * L < ce_u + m + 1:
            out.append(make(
                "RA403",
                f"edge {src!r}->{dst!r} (d={edge.delay}, "
                f"c={edge.volume}) pe{pu.pe + 1}->pe{pv.pe + 1}: "
                f"CB={cb_v} + {edge.delay}*{L} < CE={ce_u} + "
                f"M={m} + 1",
                edge=(src, dst),
            ))
        if edge.delay > 0:
            # the smallest L keeping this edge legal at these placements
            slack = ce_u + m + 1 - cb_v
            need = -(-slack // edge.delay)  # ceil division
            if need > min_required:
                min_required = need

    # slack report: only meaningful on an otherwise clean certificate ---
    if not out and routable:
        makespan = max(placements[name].finish for name in routable) + origin
        feasible = max(min_required, makespan, 1)
        if feasible < L:
            out.append(make(
                "RA405",
                f"placements stay legal down to length {feasible} "
                f"(< recorded length {L})",
            ))
    return out

