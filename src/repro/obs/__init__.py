"""``repro.obs`` — structured tracing, metrics, and profiling.

A zero-dependency (stdlib-only) instrumentation layer threaded through
the scheduling pipeline:

* **spans** (:func:`span`) — hierarchical wall-time timers around the
  optimiser phases (startup, rotate, remap, validate, per pass);
* **metrics** (:mod:`repro.obs.metrics`) — process-wide counters,
  gauges and histograms (remap decisions, violation counts, per-PE
  simulator load);
* **sinks** (:class:`InMemorySink`, :class:`NDJSONSink`) — pluggable
  event receivers; with none installed every instrumentation point is
  a single flag check, so default-path timings match the seed;
* **exporters** (:func:`write_chrome_trace`, :func:`metrics_report`) —
  Chrome trace-event JSON (``chrome://tracing`` / Perfetto) and
  markdown metrics reports;
* **profiling** (:func:`phase_breakdown`) — per-phase time/percentage
  aggregation behind ``repro profile`` and ``--profile``;
* **run history** (:mod:`repro.obs.history`) — the append-only NDJSON
  store of provenance-stamped run records that ``repro obs
  report|top|diff`` aggregate over;
* **analysis** (:mod:`repro.obs.aggregate`,
  :mod:`repro.obs.collapse`) — hotspot/self-time tables, phase diffs
  and flamegraph-compatible collapsed stacks.

See ``docs/observability.md`` for a guided tour.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregate": ("diff_tables", "hotspot_table", "trace_stats"),
    "collapse": ("collapsed_stacks", "self_times"),
    "history": (
        "DEFAULT_HISTORY_DIR", "HistoryStore", "RunRecord", "config_hash",
    ),
    "export": ("chrome_trace_events", "metrics_report", "write_chrome_trace"),
    "profile": ("PhaseRow", "format_breakdown", "phase_breakdown"),
    "runtime": (
        "emit", "enabled", "install_sink", "installed_sinks",
        "remove_all_sinks", "remove_sink", "sink_installed",
    ),
    "sinks": ("EventSink", "InMemorySink", "NDJSONSink"),
    "spans": ("NO_OP_SPAN", "Span", "span"),
})
__all__ += ["metrics"]  # the submodule itself, imported on first access
