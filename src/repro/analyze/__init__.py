"""repro.analyze — the static-analysis subsystem.

**Head 1, the input analyzer** (:func:`analyze_inputs`), statically
checks the things users hand the scheduler — CSDFG graphs,
architectures (healthy or degraded), optimiser configs, serialized
schedules — and proves what can be proven without running a scheduler:
liveness (RA101), feasibility of a target length against the static
lower bound (RA301/RA305), and the full DESIGN §1 two-clause legality
certificate of a schedule re-derived from ``arch.hops`` and the
communication cost model (RA4xx).

**Head 2, the source analyzer** (:func:`lint_paths`, ``repro lint``),
enforces the repository's own invariants over the source tree with
:mod:`ast`, parsing each file once.  Per-statement rules (RL1xx) keep
randomness seeded, communication priced by one authority and
exceptions typed.  On the same parsed modules, the interprocedural
:class:`FlowProgram` builds a module-level call graph with
per-function summaries and proves what no single statement shows
(RD1xx/RC2xx): set order crossing worker-merge boundaries, clock/env
reads flowing into schedules, and the freeze-then-certify contention
pricing protocol.  Its runtime backstop is the **dynamic determinism
sanitizer** (:func:`sanitize_command`, ``repro sanitize``), which runs
a target command twice under perturbed ``PYTHONHASHSEED``/``--jobs``
and diffs the canonicalized outputs.

Both heads produce the same currency — :class:`Diagnostic` values with
stable codes, aggregated into an :class:`AnalysisReport` and emitted as
text, JSON or SARIF 2.1.0 (:func:`render_report`).  The rule catalogue
lives in :data:`RULES` and is documented in ``docs/analysis.md``.
"""

from repro.analyze.arch_rules import check_arch
from repro.analyze.config_rules import check_config, check_target_length
from repro.analyze.diagnostics import (
    SEVERITIES,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analyze.emit import FORMATS, render_report, to_json, to_sarif
from repro.analyze.flow import FlowProgram, FunctionSummary
from repro.analyze.sanitize import (
    RunOutcome,
    SanitizeReport,
    canonicalize_output,
    sanitize_command,
    schedule_fingerprint,
)
from repro.analyze.suppress import (
    Suppressions,
    apply_suppressions,
    parse_suppressions,
)
from repro.analyze.engine import (
    analyze_inputs,
    build_architecture,
    load_config_input,
    load_graph_input,
    load_schedule_input,
)
from repro.analyze.graph_rules import check_graph, check_graph_payload
from repro.analyze.lint import infer_module, lint_paths, lint_source
from repro.analyze.rules import RULES, Rule, make, rule
from repro.analyze.schedule_cert import certify_schedule

__all__ = [
    "SEVERITIES",
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "Rule",
    "RULES",
    "rule",
    "make",
    "check_graph",
    "check_graph_payload",
    "check_arch",
    "check_config",
    "check_target_length",
    "certify_schedule",
    "analyze_inputs",
    "load_graph_input",
    "build_architecture",
    "load_config_input",
    "load_schedule_input",
    "lint_source",
    "lint_paths",
    "infer_module",
    "FlowProgram",
    "FunctionSummary",
    "sanitize_command",
    "canonicalize_output",
    "schedule_fingerprint",
    "SanitizeReport",
    "RunOutcome",
    "Suppressions",
    "parse_suppressions",
    "apply_suppressions",
    "FORMATS",
    "render_report",
    "to_json",
    "to_sarif",
]
