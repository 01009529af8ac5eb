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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arch_rules": ("check_arch",),
    "config_rules": ("check_config", "check_target_length"),
    "diagnostics": ("SEVERITIES", "AnalysisReport", "Diagnostic", "Severity"),
    "emit": ("FORMATS", "render_report", "to_json", "to_sarif"),
    "flow": ("FlowProgram", "FunctionSummary"),
    "sanitize": (
        "RunOutcome", "SanitizeReport", "canonicalize_output",
        "sanitize_command", "schedule_fingerprint",
    ),
    "suppress": ("Suppressions", "apply_suppressions", "parse_suppressions"),
    "engine": (
        "analyze_inputs", "build_architecture", "load_config_input",
        "load_graph_input", "load_schedule_input",
    ),
    "graph_rules": ("check_graph", "check_graph_payload"),
    "lint": ("infer_module", "lint_paths", "lint_source"),
    "rules": ("RULES", "Rule", "make", "rule"),
    "schedule_cert": ("certify_schedule",),
})
