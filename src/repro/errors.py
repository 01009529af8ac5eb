"""Exception hierarchy shared across the :mod:`repro` packages.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: graph construction/validation, architecture modelling, schedule
manipulation, and scheduling-algorithm failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphValidationError",
    "RetimingError",
    "IllegalRetimingError",
    "ArchitectureError",
    "UnknownProcessorError",
    "DeadProcessorError",
    "DisconnectedTopologyError",
    "ScheduleError",
    "PlacementConflictError",
    "ScheduleValidationError",
    "SchedulingError",
    "InfeasibleScheduleError",
    "StallDetectedError",
    "WorkloadError",
    "QAError",
    "AnalysisError",
    "WorkerCrashedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class GraphError(ReproError):
    """Malformed CSDFG construction (duplicate edges, unknown nodes, ...)."""


class GraphValidationError(GraphError):
    """A CSDFG violates a structural invariant (e.g. a zero-delay cycle).

    Attributes
    ----------
    issues:
        Human-readable description of each violated invariant.
    """

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class RetimingError(ReproError):
    """Problems applying or solving for a retiming function."""


class IllegalRetimingError(RetimingError):
    """A retiming would drive some edge delay negative."""


class ArchitectureError(ReproError):
    """Malformed architecture description (disconnected topology, ...)."""


class UnknownProcessorError(ArchitectureError):
    """A processor id outside the architecture's processor set."""


class DeadProcessorError(ArchitectureError):
    """A failed processor (or a link endpoint) was addressed on a
    degraded topology."""


class DisconnectedTopologyError(ArchitectureError):
    """Removing failed PEs/links split the surviving network: no
    schedule spanning the remaining processors can route all traffic.

    Attributes
    ----------
    components:
        The surviving PE ids grouped by connected component.
    """

    def __init__(self, message: str, components: list[list[int]] | None = None):
        self.components = [list(c) for c in components] if components else []
        super().__init__(message)


class ScheduleError(ReproError):
    """Malformed schedule-table manipulation."""


class PlacementConflictError(ScheduleError):
    """Two tasks would occupy the same (processor, control step) cell."""


class ScheduleValidationError(ScheduleError):
    """A schedule violates precedence, communication or resource rules.

    Attributes
    ----------
    violations:
        One entry per violated constraint.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SchedulingError(ReproError):
    """A scheduling algorithm could not produce a schedule."""


class InfeasibleScheduleError(SchedulingError):
    """No legal placement exists under the requested constraints."""


class StallDetectedError(SchedulingError):
    """The fault-injecting simulator's progress watchdog fired: no
    forward progress within the configured window."""


class WorkloadError(ReproError):
    """A benchmark workload was requested with invalid parameters."""


class QAError(ReproError):
    """A fuzzing/shrinking driver was misused (unknown property name,
    malformed reproducer case, invalid sampling profile)."""


class WorkerCrashedError(ReproError):
    """A :func:`repro.perf.run_parallel` worker process died abruptly
    (killed, OOMed, or crashed the interpreter) instead of raising a
    python exception.

    Attributes
    ----------
    completed:
        The in-item-order prefix of results that finished before the
        crash — everything the run produced that is still trustworthy.
    """

    def __init__(self, message: str, completed: list | None = None):
        self.completed = list(completed) if completed is not None else []
        super().__init__(message)


class AnalysisError(ReproError):
    """A static-analysis driver was misused (unknown rule code, an
    unreadable input file, an unsupported output format).  Findings
    about the *analyzed inputs* are never raised — they are returned as
    :class:`repro.analyze.Diagnostic` values."""
