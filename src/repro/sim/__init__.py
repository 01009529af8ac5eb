"""Execution simulator substrate: dynamic replay of static cyclic
schedules, event timelines, buffer sizing and link-contention replay."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "buffers": ("BufferReport", "buffer_requirements"),
    "contention": (
        "ContendedMessage", "ContentionReport", "simulate_contended",
    ),
    "engine": (
        "LinkTraffic", "SimulationError", "SimulationResult", "simulate",
    ),
    "events": ("MessageTransfer", "TaskExecution"),
})
