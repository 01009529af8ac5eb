"""Contention-aware network replay (extension).

The paper assumes "the communication channels are multiple so that
there is no congestion" (§3): every message experiences exactly
``M = hops * volume`` control steps of transit.  This module replays a
schedule's message traffic over a **single-channel** interconnect —
each link carries one message at a time, store-and-forward, FIFO by
injection time — and measures how late messages actually arrive
relative to the no-congestion model:

* a message departs when its producer finishes,
* each hop occupies the traversed link for ``volume`` control steps
  and must wait for the link to free up,
* the consumer needs the data one control step before its issue.

The report quantifies the optimism of the multiple-channel assumption:
``max_lateness == 0`` means the schedule is valid even on a
single-channel machine; otherwise the schedule would need
``extra_length_needed`` more control steps per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.routing import route
from repro.arch.topology import Architecture
from repro.graph.csdfg import CSDFG
from repro.schedule.table import ScheduleTable
from repro.sim.engine import SimulationError, simulate

__all__ = ["ContendedMessage", "ContentionReport", "simulate_contended"]


@dataclass(frozen=True)
class ContendedMessage:
    """One message's realized journey under link contention.

    ``model_arrival`` is the no-congestion arrival (depart + M - 1);
    ``actual_arrival`` includes link queueing; ``needed_by`` is the
    last control step the data may arrive (consumer CB - 1).
    ``lateness = max(0, actual_arrival - needed_by)``.
    """

    src: object
    dst: object
    src_iteration: int
    depart: int
    model_arrival: int
    actual_arrival: int
    needed_by: int

    @property
    def queueing(self) -> int:
        """Extra control steps spent waiting for busy links."""
        return self.actual_arrival - self.model_arrival

    @property
    def lateness(self) -> int:
        return max(0, self.actual_arrival - self.needed_by)


@dataclass
class ContentionReport:
    """Aggregate outcome of a contended replay.

    Attributes
    ----------
    messages:
        All replayed messages with realized timings.
    max_lateness:
        Worst data-miss in control steps (0 == schedule still valid).
    late_messages:
        How many messages missed their consumer's issue step.
    total_queueing:
        Sum of link-waiting control steps across all messages.
    extra_length_needed:
        Conservative per-iteration padding that would absorb the worst
        lateness (``ceil(max_lateness / 1)`` — one empty control step
        per lateness step, pessimistic but safe).
    """

    messages: list[ContendedMessage] = field(default_factory=list)
    max_lateness: int = 0
    late_messages: int = 0
    total_queueing: int = 0
    #: Control steps each directed link spent carrying data.
    link_busy: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Waiting control steps attributable to each directed link (a
    #: message blocked at a busy link charges the wait to that link).
    link_queueing: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def extra_length_needed(self) -> int:
        return self.max_lateness

    @property
    def congestion_free(self) -> bool:
        """True when the multiple-channel assumption was harmless."""
        return self.max_lateness == 0

    def hotspots(self, top: int = 3) -> list[tuple[tuple[int, int], int]]:
        """Directed links that caused the most queueing, descending;
        ties fall back to busy time then link id.  The empirical
        counterpart of the static per-link loads of
        :func:`repro.arch.contention.contended_cost`."""
        return sorted(
            self.link_queueing.items(),
            key=lambda kv: (-kv[1], -self.link_busy.get(kv[0], 0), kv[0]),
        )[:top]


def simulate_contended(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    iterations: int = 6,
) -> ContentionReport:
    """Replay message traffic over single-channel links.

    Messages are injected in (depart time, source PE, edge) order and
    traverse their deterministic routes
    (:func:`repro.arch.routing.route`); each directed link serves one
    message at a time, FIFO.
    """
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    base = simulate(graph, arch, schedule, iterations, check=False)

    # (depart, src_pe, stable-tiebreak) injection order
    pending = sorted(
        base.messages,
        key=lambda m: (m.depart, m.src_pe, str(m.src), str(m.dst)),
    )
    link_free: dict[tuple[int, int], int] = {}
    report = ContentionReport()

    for msg in pending:
        path = route(arch, msg.src_pe, msg.dst_pe)
        now = msg.depart  # first control step the head may use a link
        for a, b in zip(path, path[1:]):
            link = (a, b)
            start = max(now, link_free.get(link, 1))
            if start > now:
                report.link_queueing[link] = (
                    report.link_queueing.get(link, 0) + start - now
                )
            finish = start + msg.volume - 1
            report.link_busy[link] = (
                report.link_busy.get(link, 0) + msg.volume
            )
            link_free[link] = finish + 1
            now = finish + 1
        actual_arrival = now - 1
        consumer = base.execution_of(msg.dst, msg.dst_iteration)
        needed_by = consumer.start - 1
        model_arrival = msg.arrive
        record = ContendedMessage(
            src=msg.src,
            dst=msg.dst,
            src_iteration=msg.src_iteration,
            depart=msg.depart,
            model_arrival=model_arrival,
            actual_arrival=actual_arrival,
            needed_by=needed_by,
        )
        report.messages.append(record)
        report.total_queueing += record.queueing
        if record.lateness > 0:
            report.late_messages += 1
            if record.lateness > report.max_lateness:
                report.max_lateness = record.lateness
    return report
