"""The closed loop: one caller, one scheduling call at a time.

Each call is timed alone; everything else — the independent output
checks, the replay, the reference task, garbage collection between
rounds — runs outside the timed window.  A call fails when it raises,
when its schedule does not certify, when it is longer than the start-up
schedule it began from, when a contended bill recomputed here differs
from the one the pipeline reports, or when it differs from an earlier
output for the same input (the engine is deterministic).

The gated speed of a cell is relative: the median over its calls of
the call time divided by the time of the reference task
(``bench/reference.py``) run right after the call.  Wall-clock figures
are kept for the report.

Peak memory is the highest resident set during any call.  Linux's
peak counter (``VmHWM``) is lowered to the current resident set just
before each call and read right after it, so neither set-up nor the
reference task, which allocates more than a small call does, counts.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import repro.core.cyclo as cyclo_mod
import repro.core.pipeline as pipeline_mod
from repro.analyze.schedule_cert import certify_schedule
from repro.arch.contention import contended_cost
from repro.sim.contention import simulate_contended

from inputs import Cell
from layers import Tracer
from reference import reference_seconds

__all__ = ["CellStats", "Runner", "geomean"]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class CellStats:
    """What the loop learned about one cell."""

    cell: Cell
    #: durations of the untraced and of the traced calls
    seconds: list[float] = field(default_factory=list)
    traced_seconds: list[float] = field(default_factory=list)
    #: untraced call durations over the reference task's duration
    relative: list[float] = field(default_factory=list)
    calls: int = 0
    failures: list[str] = field(default_factory=list)
    #: output of the first successful call (every later one must match)
    digest: str | None = None
    initial_length: int = 0
    final_length: int = 0
    bill: int | None = None
    certify_seconds: list[float] = field(default_factory=list)
    sim: dict | None = None


def _reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def schedule(cell: Cell):
    """The timed call.  Looked up on the engine modules at call time so
    a traced run goes through the installed wrappers."""
    if cell.contended:
        return pipeline_mod.contention_aware_schedule(
            cell.graph, cell.arch, config=cell.config
        )
    return cyclo_mod.cyclo_compact(cell.graph, cell.arch, config=cell.config)


def _digest(result) -> str:
    sched = result.schedule
    rows = sorted(
        (str(v), p.pe, p.start, p.duration)
        for v in sched.nodes()
        for p in (sched.placement(v),)
    )
    return hashlib.sha256(repr((sched.length, rows)).encode()).hexdigest()


class Runner:
    """Rounds of calls over ``cells`` in seed-shuffled order."""

    def __init__(self, cells: list[Cell], seed: int, *,
                 reference: bool = False, simulate: bool = False):
        self.stats = [CellStats(cell) for cell in cells]
        self.rng = random.Random(f"order:{seed}")
        #: time the reference task after every untraced call
        self.reference = reference
        self.simulate = simulate
        #: highest resident set during any call, in KiB
        self.peak_rss_kib = 0

    @property
    def attempted(self) -> int:
        return sum(s.calls for s in self.stats)

    @property
    def failed(self) -> int:
        return sum(len(s.failures) for s in self.stats)

    def round_order(self) -> list[int]:
        """Cell indices in the order of the next round, drawn from the seed."""
        order = list(range(len(self.stats)))
        self.rng.shuffle(order)
        return order

    def run_round(self, call=None) -> None:
        """Schedule every cell once, each through ``call(stats)`` (by
        default an untraced :meth:`call`)."""
        gc.collect()
        for i in self.round_order():
            (call or self.call)(self.stats[i])

    def run_for(self, seconds: float, call=None) -> int:
        """Whole rounds of :meth:`run_round` until ``seconds`` of wall
        time have passed, at least one; returns the number of rounds."""
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            self.run_round(call)
            rounds += 1
        return rounds

    def call(self, stats: CellStats, *, tracer: Tracer | None = None) -> None:
        cell = stats.cell
        stats.calls += 1
        scope = tracer.request(cell.label) if tracer is not None else nullcontext()
        _reset_peak_rss()
        try:
            with scope:
                started = time.perf_counter()
                result = schedule(cell)
                elapsed = time.perf_counter() - started
        except Exception as exc:  # a failed call is counted; the loop goes on
            stats.failures.append(f"{type(exc).__name__}: {exc}")
            return
        self.peak_rss_kib = max(self.peak_rss_kib, _peak_rss_kib())
        # right after the call, before the checks, to see the same host
        reference = reference_seconds() if self.reference else None
        problem = self.check(stats, result)
        if problem is not None:
            stats.failures.append(problem)
        elif tracer is not None:
            stats.traced_seconds.append(elapsed)
        else:
            stats.seconds.append(elapsed)
            if reference is not None:
                stats.relative.append(elapsed / reference)

    def check(self, stats: CellStats, result) -> str | None:
        """Independent checks of one output; a message when it fails."""
        cell = stats.cell
        started = time.perf_counter()
        # a contention surcharge is never negative, so a winner legal
        # under surcharged prices must also certify under plain ones
        errors = [
            d for d in certify_schedule(result.graph, cell.arch, result.schedule)
            if d.severity == "error"
        ]
        stats.certify_seconds.append(time.perf_counter() - started)
        if errors:
            return f"certificate: {errors[0].code} {errors[0].message}"
        source = (result.aware or result.blind) if cell.contended else result
        if result.final_length > source.initial_length:
            return (f"length {result.final_length} exceeds start-up "
                    f"length {source.initial_length}")
        bill = None
        if cell.contended:
            bill = contended_cost(
                result.graph, cell.arch, result.schedule.processor_map(),
                result.model,
            ).contended_cost
            if bill != result.final_cost:
                return f"contended bill {bill} != reported {result.final_cost}"
        digest = _digest(result)
        if stats.digest is None:
            stats.digest = digest
            stats.initial_length = source.initial_length
            stats.final_length = result.final_length
            stats.bill = bill
            if self.simulate:
                replay = simulate_contended(result.graph, cell.arch, result.schedule)
                stats.sim = {
                    "max_lateness": replay.max_lateness,
                    "late_messages": replay.late_messages,
                    "total_queueing": replay.total_queueing,
                }
        elif digest != stats.digest:
            return "output differs from an earlier call on the same input"
        return None
