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
  report|diff|regressions`` aggregate over;
* **analysis** (:mod:`repro.obs.aggregate`,
  :mod:`repro.obs.collapse`) — hotspot/self-time tables, phase diffs,
  baseline fitting + regression detection, and flamegraph-compatible
  collapsed stacks.

See ``docs/observability.md`` for a guided tour.
"""

from repro.obs import metrics
from repro.obs.aggregate import (
    detect_regressions,
    diff_tables,
    hotspot_table,
    trace_stats,
)
from repro.obs.collapse import collapsed_stacks, self_times
from repro.obs.history import (
    DEFAULT_HISTORY_DIR,
    HistoryStore,
    RunRecord,
    config_hash,
)
from repro.obs.export import (
    chrome_trace_events,
    metrics_report,
    write_chrome_trace,
)
from repro.obs.profile import PhaseRow, format_breakdown, phase_breakdown
from repro.obs.runtime import (
    emit,
    enabled,
    install_sink,
    installed_sinks,
    remove_all_sinks,
    remove_sink,
    sink_installed,
)
from repro.obs.sinks import EventSink, InMemorySink, NDJSONSink
from repro.obs.spans import NO_OP_SPAN, Span, span

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "EventSink",
    "HistoryStore",
    "RunRecord",
    "collapsed_stacks",
    "config_hash",
    "detect_regressions",
    "diff_tables",
    "hotspot_table",
    "self_times",
    "trace_stats",
    "InMemorySink",
    "NDJSONSink",
    "NO_OP_SPAN",
    "PhaseRow",
    "Span",
    "chrome_trace_events",
    "emit",
    "enabled",
    "format_breakdown",
    "install_sink",
    "installed_sinks",
    "metrics",
    "metrics_report",
    "phase_breakdown",
    "remove_all_sinks",
    "remove_sink",
    "sink_installed",
    "span",
    "write_chrome_trace",
]
