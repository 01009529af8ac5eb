"""Static schedule tables (control step x processor grids).

A :class:`ScheduleTable` is the paper's "schedule table": rows are
control steps ``1..length`` and columns are processors.  A task ``v``
occupies processor ``PE(v)`` for the ``t(v)`` consecutive control steps
``CB(v) .. CE(v)`` (Definitions 3.1-3.3).  The table is executed
cyclically with initiation interval ``length``.

The table stores explicit :class:`Placement` records plus a **per-PE
occupancy interval index**: for every processor a list of
``(start, busy_until, node)`` spans kept sorted by start.  Because
spans on one processor never overlap, every occupancy question becomes
a binary search — :meth:`cell` and :meth:`is_free` are ``O(log k)``,
:meth:`earliest_slot` and :meth:`last_free_start` are gap walks from
the query point (forward and backward) instead of cell-by-cell probes,
and :meth:`busy_cells` is a counter read.  The interval index
replaces the earlier per-cell dict; the randomized equivalence suite
in ``tests/unit/test_table_index.py`` pins this implementation
cell-for-cell against the naive reference table
(:class:`repro.perf.reference.ReferenceScheduleTable`).

The table stores every step relative to an internal **origin**: the
absolute control step is the stored step plus the origin.  A rotation
renumbers the whole table one step earlier, and because the table
repeats with period ``length`` that renumbering only moves the origin —
:meth:`shift_all` is O(PEs) (it checks each PE's first span, which is
that PE's minimum start) instead of rebuilding every placement and
span.  Every public method converts at the boundary: queries take and
results report absolute steps, and :class:`Placement` records handed
out carry absolute starts (fresh objects while the origin is non-zero).
Hot readers that must not allocate per lookup use
:meth:`ScheduleTable.stored_placements`, which returns the stored
records together with the origin.

``length`` may exceed the last busy control step (the paper pads with
empty control steps when the projected schedule length demands it).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.errors import PlacementConflictError, ScheduleError
from repro.graph.csdfg import Node

__all__ = ["Placement", "ScheduleTable"]


@dataclass(frozen=True, slots=True)
class Placement:
    """One task's slot: processor, start, latency and resource span.

    ``duration`` is the task's execution latency ``t(v)`` (the paper's
    ``CE - CB + 1``).  ``occupancy`` is how many control steps the task
    *blocks its processor* for: equal to ``duration`` on ordinary PEs,
    1 on pipelined PEs (the paper's §2 "pipeline design" processors,
    which may issue a new task before the previous one completes).
    """

    node: Node
    pe: int
    start: int
    duration: int
    occupancy: int | None = None

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ScheduleError(
                f"{self.node!r}: control steps start at 1, got {self.start}"
            )
        if self.duration < 1:
            raise ScheduleError(
                f"{self.node!r}: duration must be >= 1, got {self.duration}"
            )
        if self.pe < 0:
            raise ScheduleError(f"{self.node!r}: negative PE {self.pe}")
        if self.occupancy is None:
            object.__setattr__(self, "occupancy", self.duration)
        elif not (1 <= self.occupancy <= self.duration):
            raise ScheduleError(
                f"{self.node!r}: occupancy must be in 1..duration, got "
                f"{self.occupancy}"
            )

    @property
    def finish(self) -> int:
        """Last execution control step (the paper's ``CE``)."""
        return self.start + self.duration - 1

    @property
    def busy_until(self) -> int:
        """Last control step the processor is blocked."""
        return self.start + self.occupancy - 1

    def shifted(self, delta: int) -> "Placement":
        """Copy with the start moved by ``delta`` control steps."""
        start = self.start + delta
        if start < 1:
            raise ScheduleError(
                f"{self.node!r}: control steps start at 1, got {start}"
            )
        # hot path (the table hands out absolute copies of its stored
        # records through here): clone without re-running the dataclass
        # field validation — only the start changed and its sole
        # constraint is checked above
        clone = object.__new__(Placement)
        set_field = object.__setattr__
        set_field(clone, "node", self.node)
        set_field(clone, "pe", self.pe)
        set_field(clone, "start", start)
        set_field(clone, "duration", self.duration)
        set_field(clone, "occupancy", self.occupancy)
        return clone


class ScheduleTable:
    """A static cyclic schedule over ``num_pes`` processors.

    Parameters
    ----------
    num_pes:
        Number of processor columns.
    length:
        Initial schedule length (grows automatically as tasks are
        placed beyond it; may be padded explicitly via
        :meth:`set_length`).
    """

    def __init__(self, num_pes: int, length: int = 0, name: str = "schedule"):
        if num_pes < 1:
            raise ScheduleError(f"need at least one PE, got {num_pes}")
        if length < 0:
            raise ScheduleError(f"length must be >= 0, got {length}")
        self.num_pes = num_pes
        self.name = name
        self._length = length
        self._placements: dict[Node, Placement] = {}
        # per-PE occupancy index: sorted (start, busy_until, node) spans
        # plus a parallel start list for bisect and a busy-cell counter
        self._intervals: list[list[tuple[int, int, Node]]] = [
            [] for _ in range(num_pes)
        ]
        self._starts: list[list[int]] = [[] for _ in range(num_pes)]
        self._busy: list[int] = [0] * num_pes
        # absolute step = stored step + origin; length and makespan are
        # kept absolute
        self._origin = 0
        self._makespan: int | None = 0  # lazy cache; None = recompute
        # plain-int instrumentation tallies: one increment per interval-
        # index probe / whole-table shift, published to the metrics
        # registry once per run by the engine (see :meth:`publish_stats`)
        self.probes = 0
        self.shifts = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Schedule length ``L`` (the initiation interval)."""
        return self._length

    @property
    def makespan(self) -> int:
        """Last busy control step (0 when empty); ``<= length``."""
        if self._makespan is None:
            self._makespan = (
                max(p.finish for p in self._placements.values()) + self._origin
                if self._placements
                else 0
            )
        return self._makespan

    @property
    def num_tasks(self) -> int:
        return len(self._placements)

    def __contains__(self, node: Node) -> bool:
        return node in self._placements

    def nodes(self) -> Iterator[Node]:
        return iter(self._placements)

    def placements(self) -> Iterator[Placement]:
        """Every placement, in insertion order, with absolute starts."""
        origin = self._origin
        if not origin:
            return iter(self._placements.values())
        return (p.shifted(origin) for p in self._placements.values())

    def placement(self, node: Node) -> Placement:
        """``node``'s placement with its absolute start."""
        try:
            p = self._placements[node]
        except KeyError:
            raise ScheduleError(f"node {node!r} is not scheduled") from None
        return p.shifted(self._origin) if self._origin else p

    def stored_placements(self) -> tuple[dict[Node, Placement], int]:
        """The live placement records and the origin they are stored
        against: a record's absolute start is ``p.start + origin``
        (``pe``, ``duration`` and ``occupancy`` need no conversion).

        For hot readers that must not build a fresh :class:`Placement`
        per lookup; the dict must not be mutated, and it and the origin
        are only valid until the table next changes.
        """
        return self._placements, self._origin

    def start(self, node: Node) -> int:
        """The paper's ``CB(node)``."""
        return self.placement(node).start

    def finish(self, node: Node) -> int:
        """The paper's ``CE(node)``."""
        return self.placement(node).finish

    def processor(self, node: Node) -> int:
        """The paper's ``PE(node)``."""
        return self.placement(node).pe

    def processor_map(self) -> dict[Node, int]:
        """Mapping node -> PE id for all scheduled tasks."""
        return {n: p.pe for n, p in self._placements.items()}

    def cell(self, pe: int, cs: int) -> Node | None:
        """The task occupying ``(pe, cs)``, or ``None``."""
        if not (0 <= pe < self.num_pes):
            return None
        self.probes += 1
        cs -= self._origin
        idx = bisect_right(self._starts[pe], cs) - 1
        if idx >= 0:
            _s, busy_until, node = self._intervals[pe][idx]
            if busy_until >= cs:
                return node
        return None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_length(self, length: int) -> None:
        """Set the schedule length; must cover the last busy step."""
        if length < self.makespan:
            raise ScheduleError(
                f"length {length} would cut busy control steps (makespan "
                f"{self.makespan})"
            )
        self._length = length

    def place(
        self,
        node: Node,
        pe: int,
        start: int,
        duration: int,
        occupancy: int | None = None,
    ) -> Placement:
        """Assign ``node`` to ``pe`` starting at ``start``.

        The task executes for ``duration`` control steps and blocks the
        processor for ``occupancy`` of them (defaults to ``duration``;
        pass 1 for pipelined PEs).  Raises
        :class:`PlacementConflictError` on cell overlap and
        :class:`ScheduleError` when the node is already placed.  The
        schedule length grows to cover the placement if needed.
        """
        if node in self._placements:
            raise ScheduleError(f"node {node!r} is already scheduled")
        if not (0 <= pe < self.num_pes):
            raise ScheduleError(f"PE {pe} outside 0..{self.num_pes - 1}")
        # inline Placement construction (hot path: every remapping trial
        # placement lands here) with the dataclass' checks, in order
        if start < 1:
            raise ScheduleError(
                f"{node!r}: control steps start at 1, got {start}"
            )
        if duration < 1:
            raise ScheduleError(
                f"{node!r}: duration must be >= 1, got {duration}"
            )
        if occupancy is None:
            occupancy = duration
        elif not (1 <= occupancy <= duration):
            raise ScheduleError(
                f"{node!r}: occupancy must be in 1..duration, got "
                f"{occupancy}"
            )
        origin = self._origin
        stored = start - origin
        placement = Placement.__new__(Placement)
        set_field = object.__setattr__
        set_field(placement, "node", node)
        set_field(placement, "pe", pe)
        set_field(placement, "start", stored)
        set_field(placement, "duration", duration)
        set_field(placement, "occupancy", occupancy)
        busy_until = stored + occupancy - 1
        starts = self._starts[pe]
        intervals = self._intervals[pe]
        pos = bisect_left(starts, stored)
        # spans never overlap, so only the neighbours can conflict; the
        # reported cell is the first occupied one in the requested span
        if pos > 0:
            _s, prev_until, occupant = intervals[pos - 1]
            if prev_until >= stored:
                raise PlacementConflictError(
                    f"(pe{pe + 1}, cs{start}) already holds {occupant!r}; "
                    f"cannot place {node!r}"
                )
        if pos < len(intervals):
            next_start, _e, occupant = intervals[pos]
            if next_start <= busy_until:
                raise PlacementConflictError(
                    f"(pe{pe + 1}, cs{next_start + origin}) already holds "
                    f"{occupant!r}; cannot place {node!r}"
                )
        starts.insert(pos, stored)
        intervals.insert(pos, (stored, busy_until, node))
        self._placements[node] = placement
        self._busy[pe] += occupancy
        finish = start + duration - 1
        if finish > self._length:
            self._length = finish
        if self._makespan is not None and finish > self._makespan:
            self._makespan = finish
        return placement.shifted(origin) if origin else placement

    def remove(self, node: Node) -> Placement:
        """Unschedule ``node`` and return its former placement.

        The schedule length is left unchanged (callers renumber/trim
        explicitly).
        """
        try:
            placement = self._placements.pop(node)
        except KeyError:
            raise ScheduleError(f"node {node!r} is not scheduled") from None
        pe = placement.pe
        pos = bisect_left(self._starts[pe], placement.start)
        del self._starts[pe][pos]
        del self._intervals[pe][pos]
        self._busy[pe] -= placement.occupancy
        origin = self._origin
        if (
            self._makespan is not None
            and placement.finish + origin >= self._makespan
        ):
            self._makespan = None
        return placement.shifted(origin) if origin else placement

    def shift_all(self, delta: int) -> None:
        """Renumber every placement by ``delta`` control steps.

        Used by the rotation phase (the former row 2 becomes row 1).
        The length is adjusted by the same delta (floored at the new
        makespan).  Only the origin moves: legality needs each PE's
        first span, which holds that PE's minimum start, so the cost is
        O(PEs).  An illegal shift (some start would drop below control
        step 1) raises for the first such placement in insertion order,
        before any mutation, leaving the table intact.
        """
        if not self._placements:
            if delta:
                self._length = max(0, self._length + delta)
            return
        if not delta:
            return
        self.shifts += 1
        origin = self._origin + delta
        if min(s[0] for s in self._starts if s) + origin < 1:
            for p in self._placements.values():
                if p.start + origin < 1:
                    raise ScheduleError(
                        f"{p.node!r}: control steps start at 1, got "
                        f"{p.start + origin}"
                    )
        self._origin = origin
        if self._makespan is not None:
            self._makespan += delta
        self._length = max(0, self._length + delta)
        if self._length < self.makespan:
            self._length = self.makespan

    def trim(self) -> None:
        """Shrink the length to the last busy control step."""
        self._length = self.makespan

    # ------------------------------------------------------------------
    # queries used by the schedulers
    # ------------------------------------------------------------------
    def is_free(self, pe: int, start: int, duration: int) -> bool:
        """True when ``(pe, start..start+duration-1)`` has no occupant.

        Control steps beyond the current length count as free (placing
        there extends the table).
        """
        if start < 1:
            return False
        if not (0 <= pe < self.num_pes):
            return True
        self.probes += 1
        start -= self._origin
        idx = bisect_right(self._starts[pe], start + duration - 1) - 1
        return idx < 0 or self._intervals[pe][idx][1] < start

    def earliest_slot(
        self, pe: int, not_before: int, duration: int, horizon: int | None = None
    ) -> int | None:
        """First control step ``>= not_before`` where ``duration``
        consecutive cells on ``pe`` are free and the task would end by
        ``horizon`` (inclusive).  ``None`` when no such slot exists.

        ``horizon=None`` means unbounded: a slot always exists at the
        first gap past the last occupied step.
        """
        cs = not_before if not_before > 1 else 1
        if horizon is not None:
            limit = horizon
        else:
            limit = (self._length if self._length > cs else cs) + duration
        if not (0 <= pe < self.num_pes):
            return cs if cs + duration - 1 <= limit else None
        self.probes += 1
        # walk in stored steps; the result converts back
        origin = self._origin
        cs -= origin
        limit -= origin
        starts = self._starts[pe]
        intervals = self._intervals[pe]
        idx = bisect_right(starts, cs) - 1
        if idx >= 0 and intervals[idx][1] >= cs:
            cs = intervals[idx][1] + 1
        idx += 1
        count = len(intervals)
        while True:
            if cs + duration - 1 > limit:
                return None
            if idx >= count:
                return cs + origin
            next_start, next_until, _node = intervals[idx]
            if cs + duration - 1 < next_start:
                return cs + origin
            cs = next_until + 1
            idx += 1

    def last_free_start(
        self, pe: int, not_before: int, duration: int, at_most: int
    ) -> int | None:
        """Last control step in ``not_before..at_most`` where ``duration``
        consecutive cells on ``pe`` are free.  ``None`` when there is none.

        The backward mirror of :meth:`earliest_slot`: bisect to the span
        covering the window's last cell, then step back over spans.
        """
        first = not_before if not_before > 1 else 1
        if at_most < first:
            return None
        if not (0 <= pe < self.num_pes):
            return at_most
        self.probes += 1
        # walk in stored steps; the result converts back
        origin = self._origin
        cs = at_most - origin
        first -= origin
        intervals = self._intervals[pe]
        idx = bisect_right(self._starts[pe], cs + duration - 1) - 1
        # spans never overlap, so only span ``idx`` can block the window
        # ``cs..cs+duration-1``; moving the window to end just before it
        # leaves span ``idx - 1`` as the next possible blocker
        while idx >= 0 and intervals[idx][1] >= cs:
            cs = intervals[idx][0] - duration
            if cs < first:
                return None
            idx -= 1
        return cs + origin

    def first_row(self) -> list[Node]:
        """Tasks starting at control step 1, by PE order (the set the
        rotation phase deallocates)."""
        out: list[Node] = []
        first = 1 - self._origin
        for pe in range(self.num_pes):
            intervals = self._intervals[pe]
            if intervals and intervals[0][0] == first:
                out.append(intervals[0][2])
        return out

    def row(self, cs: int) -> list[tuple[int, Node]]:
        """Occupied cells of control step ``cs`` as ``(pe, node)``."""
        out: list[tuple[int, Node]] = []
        for pe in range(self.num_pes):
            node = self.cell(pe, cs)
            if node is not None:
                out.append((pe, node))
        return out

    def pe_tasks(self, pe: int) -> list[Placement]:
        """All placements on ``pe`` in start order."""
        if not (0 <= pe < self.num_pes):
            return []
        placements = self._placements
        origin = self._origin
        if not origin:
            return [placements[node] for _s, _e, node in self._intervals[pe]]
        return [
            placements[node].shifted(origin)
            for _s, _e, node in self._intervals[pe]
        ]

    def busy_cells(self, pe: int) -> int:
        """Number of occupied control steps on ``pe``."""
        if not (0 <= pe < self.num_pes):
            return 0
        return self._busy[pe]

    def stats(self) -> dict:
        """Plain-data view of the instrumentation tallies."""
        return {"probes": self.probes, "shifts": self.shifts}

    def publish_stats(self) -> None:
        """Push the tallies into the metrics registry (no-op while
        observability is off).  Publish exactly once per run — counter
        deltas across repeated publishes double-count."""
        from repro.obs import metrics

        metrics.inc("schedule.table.probes", self.probes)
        metrics.inc("schedule.table.shifts", self.shifts)

    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "ScheduleTable":
        clone = ScheduleTable(
            self.num_pes, self._length, name if name is not None else self.name
        )
        clone._placements = dict(self._placements)
        clone._intervals = [list(spans) for spans in self._intervals]
        clone._starts = [list(starts) for starts in self._starts]
        clone._busy = list(self._busy)
        clone._origin = self._origin
        clone._makespan = self._makespan
        return clone

    def same_placements(self, other: "ScheduleTable") -> bool:
        """True when both tables place every task identically."""
        if self.num_pes != other.num_pes or self._length != other._length:
            return False
        if self._origin == other._origin:
            return self._placements == other._placements
        return {p.node: p for p in self.placements()} == {
            p.node: p for p in other.placements()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduleTable(name={self.name!r}, num_pes={self.num_pes}, "
            f"length={self._length}, tasks={len(self._placements)})"
        )
