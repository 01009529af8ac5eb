"""The input-analyzer driver (``repro analyze``).

:func:`analyze_inputs` runs every applicable rule family over a
(graph, architecture[, config][, schedule]) tuple and returns one
:class:`~repro.analyze.diagnostics.AnalysisReport`.  The loaders turn
files and CLI-style specs into analyzer inputs *without raising* on
user mistakes: a malformed graph JSON, an impossible architecture or a
rejected config all come back as coded diagnostics, which is the whole
point of a static front door — CI and users get `RAxxx` findings, not
tracebacks.

The analyzer is cheap by design (graph walks, the hop matrix, one
iteration-bound computation when a target is being proved infeasible),
so it also serves as the fuzz shrinker's viability pre-gate: a shrink
candidate that fails analysis is rejected before any scheduler time is
spent on it (see :mod:`repro.qa.shrink`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analyze.arch_rules import check_arch
from repro.analyze.config_rules import check_config, check_target_length
from repro.analyze.diagnostics import AnalysisReport, Diagnostic
from repro.analyze.graph_rules import check_graph, check_graph_payload
from repro.analyze.rules import make
from repro.analyze.schedule_cert import certify_schedule
from repro.arch.degraded import DegradedTopology
from repro.arch.registry import ARCHITECTURE_KINDS, make_architecture
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.errors import DisconnectedTopologyError, ReproError
from repro.graph import io as graph_io
from repro.graph.csdfg import CSDFG
from repro.schedule.io import schedule_from_json
from repro.schedule.table import ScheduleTable

__all__ = [
    "analyze_inputs",
    "load_graph_input",
    "build_architecture",
    "load_config_input",
    "load_schedule_input",
]


def analyze_inputs(
    graph: CSDFG,
    arch: Architecture | None,
    *,
    config: CycloConfig | None = None,
    schedule: ScheduleTable | None = None,
    target_length: int | None = None,
    subject: str | None = None,
) -> AnalysisReport:
    """Run every applicable static rule over the given inputs.

    ``arch`` may be ``None`` when architecture construction already
    failed (its diagnostics then arrive via the loader); the
    graph-level rules still run.  ``schedule`` adds the RA4xx
    certificate check; ``target_length`` adds the RA301 infeasibility
    proof (RA305 reports the bound whenever an architecture is
    present and the graph has no zero-delay cycle).
    """
    if subject is None:
        subject = graph.name + (f" on {arch.name}" if arch is not None else "")
    report = AnalysisReport(subject=subject)
    graph_findings = check_graph(graph)
    report.extend(graph_findings)
    if config is not None:
        report.extend(check_config(config))
    if arch is not None:
        report.extend(check_arch(arch, graph))
        # a zero-delay cycle (RA101) has no finite iteration bound, so
        # there is no length floor to prove a target against
        if not any(d.code == "RA101" for d in graph_findings):
            report.extend(
                check_target_length(graph, arch, config, target_length)
            )
        if schedule is not None:
            report.extend(certify_schedule(
                graph,
                arch,
                schedule,
                pipelined_pes=bool(config is not None and config.pipelined_pes),
            ))
    return report


# ----------------------------------------------------------------------
# loaders: files / CLI specs -> analyzer inputs, mistakes -> diagnostics
# ----------------------------------------------------------------------
def load_graph_input(
    spec: str,
) -> tuple[CSDFG | None, list[Diagnostic]]:
    """Resolve a graph argument: a CSDFG JSON path or a workload name.

    Returns ``(graph, diagnostics)``; ``graph`` is ``None`` exactly
    when an error-severity diagnostic was produced.
    """
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            return None, [make("RA108", f"cannot read {spec}: {exc}")]
        except json.JSONDecodeError as exc:
            return None, [make("RA108", f"{spec} is not valid JSON: {exc}")]
        if (
            isinstance(payload, dict)
            and payload.get("format") == "repro-qa-case"
        ):
            # reproducer cases embed their graph; analyze that
            payload = payload.get("graph")
        problems = check_graph_payload(payload)
        if any(d.severity == "error" for d in problems):
            return None, problems
        return graph_io.from_json(payload), problems

    from repro.workloads import make_workload, workload_names

    if spec in workload_names():
        return make_workload(spec), []
    return None, [make(
        "RA108",
        f"{spec!r} is neither a readable CSDFG JSON file nor a "
        f"registered workload; known workloads: "
        f"{', '.join(workload_names())}",
    )]


def build_architecture(
    kind: str,
    num_pes: int,
    *,
    failed_pes: tuple[int, ...] = (),
    failed_links: tuple[tuple[int, int], ...] = (),
) -> tuple[Architecture | None, list[Diagnostic]]:
    """Build a (possibly degraded) architecture, mistakes as RA2xx.

    ``kind`` accepts the CLI shorthand ``"mesh:8"`` (overrides
    ``num_pes``).
    """
    if ":" in kind:
        kind, _, raw = kind.partition(":")
        try:
            num_pes = int(raw)
        except ValueError:
            return None, [make(
                "RA202",
                f"architecture spec {kind}:{raw} has a non-integer PE count",
            )]
    if kind not in ARCHITECTURE_KINDS:
        return None, [make(
            "RA202",
            f"unknown architecture kind {kind!r}; known: "
            f"{', '.join(sorted(ARCHITECTURE_KINDS))}",
        )]
    try:
        arch = make_architecture(kind, num_pes)
    except ReproError as exc:
        return None, [make("RA202", f"{kind} x{num_pes}: {exc}")]
    if not failed_pes and not failed_links:
        return arch, []
    try:
        return DegradedTopology(
            arch, failed_pes=failed_pes, failed_links=failed_links
        ), []
    except DisconnectedTopologyError as exc:
        return None, [make(
            "RA201",
            f"{kind} x{num_pes} minus PEs {sorted(failed_pes)} / links "
            f"{sorted(failed_links)}: {exc}",
        )]
    except ReproError as exc:
        return None, [make("RA202", f"degrading {kind} x{num_pes}: {exc}")]


def load_config_input(
    path: str,
) -> tuple[CycloConfig | None, int | None, list[Diagnostic]]:
    """Load an optimiser config JSON.

    Returns ``(config, target_length, diagnostics)``.  The payload may
    carry an extra ``"target_length"`` key — it is not a
    :class:`CycloConfig` field, it parameterises the RA301 feasibility
    proof — which is stripped before the config is constructed.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        return None, None, [make("RA304", f"cannot read {path}: {exc}")]
    except json.JSONDecodeError as exc:
        return None, None, [make(
            "RA304", f"{path} is not valid JSON: {exc}"
        )]
    if not isinstance(payload, dict):
        return None, None, [make(
            "RA304", f"{path}: config payload must be a JSON object"
        )]
    target = payload.pop("target_length", None)
    if target is not None and (not isinstance(target, int) or target < 1):
        return None, None, [make(
            "RA304",
            f"{path}: target_length must be an integer >= 1, got {target!r}",
        )]
    try:
        return CycloConfig.from_dict(payload), target, []
    except (ReproError, TypeError, ValueError) as exc:
        return None, None, [make("RA304", f"{path}: {exc}")]


def load_schedule_input(
    path: str,
) -> tuple[ScheduleTable | None, list[Diagnostic]]:
    """Load a serialized schedule for certification (mistakes as RA4xx)."""
    try:
        payload = json.loads(Path(path).read_text())
        return schedule_from_json(payload), []
    except OSError as exc:
        return None, [make("RA401", f"cannot read {path}: {exc}")]
    except json.JSONDecodeError as exc:
        return None, [make("RA401", f"{path} is not valid JSON: {exc}")]
    except ReproError as exc:
        return None, [make("RA401", f"{path}: {exc}")]
