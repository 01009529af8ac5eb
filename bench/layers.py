"""Per-layer tracing from outside the engine.

The traced run times each layer by wrapping the public functions the
engine calls, on the module attributes the engine actually looks them
up from (``repro.core.cyclo.remap_nodes``, not the defining module's
name).  Wrappers exist only inside :meth:`Tracer.installed`; every
original is restored on exit, so untraced timing runs the unmodified
engine.

A span records its layer, start, duration and self time (duration
minus the time of the spans it directly encloses).  Spans nest on one
stack, so the self times of one request sum to the request's duration.
Spans are recorded only inside a request (:meth:`Tracer.request`): the
benchmark's output checks call some of the same functions and must not
be attributed to the engine.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import repro.core.cyclo as cyclo_mod
import repro.core.kernels as kernels_mod
import repro.core.pipeline as pipeline_mod
from repro.arch.cache import CommCostCache
from repro.arch.contention import LinkOccupancy
from repro.core.psl import PSLTracker

__all__ = ["KERNELS", "PER_LAYER", "Tracer", "entry_points", "patch_points"]

#: the array kernels the workloads reach; none of them ever calls
#: ``fold_min``, so it has no metrics
KERNELS = ("fold_max", "edge_bounds", "comm_cost_row")

#: Elements one kernel call processes, from its arguments.
_KERNEL_ELEMS: dict[str, Callable[..., int]] = {
    "fold_max": lambda rows_consts, pes, base: len(rows_consts) * len(pes),
    "edge_bounds": lambda finishes, comms, starts, delays: len(delays),
    "comm_cost_row": lambda hops_row, alive, cost_of, n: len(alive),
}


def patch_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    points: list[tuple[object, str, str]] = [
        (cyclo_mod, "cyclo_compact", "cyclo"),
        (pipeline_mod, "cyclo_compact", "cyclo"),
        (pipeline_mod, "contention_aware_schedule", "pipeline"),
        (pipeline_mod, "contended_cost", "pipeline.reprice"),
        (LinkOccupancy, "from_assignment", "pipeline.reprice"),
        (cyclo_mod, "start_up_schedule", "startup"),
        (cyclo_mod, "rotate_schedule", "rotate"),
        (cyclo_mod, "undo_rotation", "rotate"),
        (cyclo_mod, "remap_nodes", "remap"),
        (cyclo_mod, "PSLTracker", "psl.init"),
        (PSLTracker, "update_nodes", "psl.update"),
        (CommCostCache, "for_graph", "cache.build"),
    ]
    points.extend((kernels_mod, name, f"kernel.{name}") for name in KERNELS)
    return points


def entry_points() -> list[object]:
    """What every patch point holds right now (originals when no
    :class:`Tracer` is installed)."""
    return [vars(owner)[attr] for owner, attr, _layer in patch_points()]


#: Per-layer metrics of a traced run: name -> (unit, better).  Times
#: and counts are per scheduling call; bench/README.md defines each.
#: Layers some workload never reaches (the kernels on ``paper19``, the
#: pipeline off ``contended``) report a share of the traced time, as a
#: time there would always read 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "startup.s": ("s", "lower"),
    "startup.share": ("ratio", "lower"),
    "startup.pf_evaluations": ("1/call", "lower"),
    "startup.deferrals": ("1/call", "lower"),
    "startup.control_steps": ("1/call", "lower"),
    "startup.pf_per_placement": ("ratio", "lower"),
    "startup.initial_length": ("steps", "lower"),
    "rotate.s": ("s", "lower"),
    "rotate.calls": ("1/call", "lower"),
    "rotation.nodes_rotated": ("1/call", "lower"),
    "schedule.table.shifts": ("1/call", "lower"),
    "remap.s": ("s", "lower"),
    "remap.calls": ("1/call", "lower"),
    "remap.nodes": ("1/call", "lower"),
    "remap.candidate_pes": ("1/call", "lower"),
    "remap.candidate_slots": ("1/call", "lower"),
    "remap.slots_per_node": ("ratio", "lower"),
    "remap.toporank_rebuilds": ("1/call", "lower"),
    "schedule.table.probes": ("1/call", "lower"),
    "cyclo.rejected": ("1/call", "lower"),
    "psl.init_s": ("s", "lower"),
    "psl.update_s": ("s", "lower"),
    "psl.update_calls": ("1/call", "lower"),
    **{
        f"kernel.{name}.{suffix}": (unit, better)
        for name in KERNELS
        for suffix, unit, better in (
            ("share", "ratio", "lower"),
            ("calls", "1/call", "lower"),
            ("elems_per_call", "count", "higher"),
        )
    },
    "cache.build_s": ("s", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cyclo.other_s": ("s", "lower"),
    "cyclo.passes": ("1/call", "lower"),
    "cyclo.improved": ("1/call", "higher"),
    "pipeline.self_share": ("ratio", "lower"),
    "pipeline.reprice_share": ("ratio", "lower"),
    "certify.s": ("s", "lower"),
    "sim.late_messages": ("count", "lower"),
    "sim.total_queueing": ("steps", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """Span recorder for the wrapped layer entry points."""

    def __init__(self, export_calls: int = 64) -> None:
        #: (request id, layer, start ns, duration ns, self ns) of the
        #: first ``export_calls`` requests; later requests feed only the
        #: totals, which keeps the exported trace small
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.export_calls = export_calls
        #: (cell label, layer) -> [self ns, calls, elements]; the
        #: ``request`` layer holds the time of the calls themselves
        #: outside every wrapped layer
        self.totals: dict[tuple[str, str], list[int]] = {}
        #: (request id, cell label, start ns, duration ns)
        self.requests: list[tuple[int, str, int, int]] = []
        self._request: int | None = None
        self._label = ""
        # open frames: [start ns, enclosed child ns]
        self._stack: list[list[int]] = []

    def _close(self, layer: str, end: int) -> int:
        """Pop the innermost frame and book its self time; returns its
        duration."""
        start, enclosed = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self_ns = duration - enclosed
        if self._request < self.export_calls:
            self.spans.append((self._request, layer, start, duration, self_ns))
        total = self.totals.setdefault((self._label, layer), [0, 0, 0])
        total[0] += self_ns
        total[1] += 1
        return duration

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        elems = _KERNEL_ELEMS.get(layer.removeprefix("kernel."))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            self._stack.append([clock(), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, clock())
                if elems is not None:
                    self.totals[(self._label, layer)][2] += elems(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every patch point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, layer in patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def request(self, label: str) -> Iterator[None]:
        """One scheduling call: the root span of everything it causes."""
        self._request = len(self.requests)
        self._label = label
        start = time.perf_counter_ns()
        self._stack.append([start, 0])
        try:
            yield
        finally:
            duration = self._close("request", time.perf_counter_ns())
            self.requests.append((self._request, label, start, duration))
            self._request = None

    def layer_totals(self, label: str | None = None) -> dict[str, list[int]]:
        """``layer -> [self ns, calls, elements]`` over every call, or
        over the calls of one cell."""
        out: dict[str, list[int]] = {}
        for (cell, layer), (self_ns, calls, elems) in self.totals.items():
            if label is None or cell == label:
                acc = out.setdefault(layer, [0, 0, 0])
                acc[0] += self_ns
                acc[1] += calls
                acc[2] += elems
        return out

    def traced_ns(self, label: str | None = None) -> int:
        """Summed duration of every call, or of one cell's calls."""
        return sum(
            dur for _rid, cell, _start, dur in self.requests
            if label is None or cell == label
        )

    def write_chrome_trace(self, path: Path) -> None:
        """The exported spans as Chrome-trace JSON, one ``request`` id
        per scheduling call."""
        labels = {rid: label for rid, label, _start, _dur in self.requests}
        events = [
            {
                "name": f"call {labels[rid]}" if layer == "request" else layer,
                "cat": layer.split(".")[0], "ph": "X",
                "ts": start / 1e3, "dur": dur / 1e3, "pid": 1, "tid": 1,
                "args": {"request": rid, "self_us": self_ns / 1e3},
            }
            for rid, layer, start, dur, self_ns in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            separators=(",", ":"),
        ))
