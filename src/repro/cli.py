"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Registered workloads and architecture kinds.
``info``
    Structural statistics and bounds of one workload.
``schedule``
    Run start-up scheduling + cyclo-compaction on a (workload,
    architecture) pair and render the schedules.
``simulate``
    Execute a compacted schedule for N loop iterations and report the
    dynamic statistics.
``codegen``
    Emit the per-PE steady-state programs of a compacted schedule.
``report``
    Write the full markdown reproduction report (all paper
    experiments, paper-vs-measured).
``experiment``
    Regenerate one of the paper's experiments (``figure1``,
    ``tables19``, ``table11``) on stdout.
``sweep``
    Sweep one parameter (PE count, data-volume scale, or slowdown
    factor) over a workload; ``--jobs N`` fans the points out over a
    process pool with identical results.
``profile``
    Run the optimiser N times on a (workload, architecture) pair and
    print the per-phase time/percentage breakdown.
``fuzz``
    Property-based fuzzing of the scheduling pipeline
    (``docs/testing.md``): seeded random (graph, architecture, config)
    triples, the full property/metamorphic suite per trial, failing
    trials delta-debugged into small JSON reproducers.  ``--replay``
    re-runs checked-in reproducers (``tests/corpus/``) instead of
    fuzzing.
``faults inject|repair|campaign``
    Resilience drivers (``docs/resilience.md``): execute a schedule
    under a seeded fault campaign, repair a schedule after explicit
    PE/link failures, or run the randomized chaos harness.
``analyze``
    Static analysis of scheduler inputs (``docs/analysis.md``): graph
    liveness/annotations, topology diagnostics, target-length
    feasibility proofs, schedule certificates — text/JSON/SARIF,
    non-zero exit on errors.  ``--paper-suite`` analyzes every
    registered workload on every paper topology; ``--list-rules``
    prints the catalogue.
``lint``
    Static analysis of this repository's own source tree, each file
    parsed once: seeded randomness, one communication pricing
    authority, typed exceptions, obs-routed output (rules RL1xx), and
    the interprocedural determinism and engine-contract rules (RD1xx,
    RC2xx) — no clock or environment read reaches scheduling code
    (``docs/analysis.md``).
``sanitize``
    Dynamic determinism sanitizer (``docs/analysis.md``): run one
    repro subcommand twice under perturbed ``PYTHONHASHSEED`` and
    ``--jobs``, canonicalize both outputs (scrubbing durations, rates
    and paths) and diff them — any surviving byte difference is a
    determinism bug; non-zero exit on a diff.
``obs report|top|diff|regressions``
    The observatory (``docs/observability.md``): aggregate traces and
    run history into hotspot tables and latency percentiles, rank
    spans by self time (with flamegraph-collapsed stacks), compare two
    runs or history windows phase-by-phase, and detect runs slower
    than a baseline fitted from history (non-zero exit).

Unknown workload or architecture names exit with a one-line error
listing the registered names (they are resolved by the registries, not
by argparse choices).

Observability
-------------
``schedule``, ``simulate`` and ``report`` accept ``--trace FILE``
(write a Chrome trace-event JSON viewable in ``chrome://tracing`` /
https://ui.perfetto.dev) and ``--profile`` (print the per-phase time
breakdown and collected metrics after the run).  ``schedule``,
``sweep``, ``fuzz`` and ``faults campaign`` additionally accept
``--history-dir DIR`` to append a provenance-stamped run record to the
run-history store that ``repro obs`` aggregates; see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Sequence

from repro.analysis import format_cells, format_table11, run_cell, run_grid
from repro.arch import (
    ARCHITECTURE_KINDS,
    CONTENTION_MODELS,
    make_architecture,
    paper_architectures,
)
from repro.baselines import schedule_bounds
from repro.codegen import generate_program
from repro.core import CycloConfig, cyclo_compact, optimize
from repro.errors import ReproError
from repro.graph import critical_path_length, iteration_bound, slowdown
from repro.obs import (
    InMemorySink,
    format_breakdown,
    install_sink,
    metrics,
    metrics_report,
    phase_breakdown,
    remove_sink,
    write_chrome_trace,
)
from repro.schedule import compute_metrics, render_gantt, render_table
from repro.sim import buffer_requirements, simulate
from repro.workloads import make_workload, workload_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cyclo-compaction scheduling (ICPP'95 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and architecture kinds")

    p_info = sub.add_parser("info", help="describe one workload")
    p_info.add_argument("workload", help="workload name (see `repro list`)")

    p_sched = sub.add_parser("schedule", help="schedule a workload")
    _add_pair_args(p_sched)
    _add_obs_args(p_sched)
    p_sched.add_argument(
        "--no-relax",
        action="store_true",
        help="remapping without relaxation (Theorem 4.4 monotone mode)",
    )
    p_sched.add_argument(
        "--pipelined",
        action="store_true",
        help="pipelined processing elements (paper §2)",
    )
    p_sched.add_argument(
        "--iterations", type=int, default=None, help="compaction passes (z)"
    )
    p_sched.add_argument(
        "--render",
        choices=["table", "gantt", "none"],
        default="table",
        help="schedule rendering style",
    )
    p_sched.add_argument(
        "--refine",
        action="store_true",
        help="alternate compaction with local-search refinement",
    )
    p_sched.add_argument(
        "--restarts", type=int, default=1, metavar="N",
        help="best-of-N jittered restarts (deterministic per seed; "
             "N=1 is a plain single run)",
    )
    p_sched.add_argument(
        "--jobs", type=int, default=1, metavar="M",
        help="worker processes for sharded restarts (wall-clock only; "
             "never changes the winner)",
    )
    p_sched.add_argument(
        "--restart-seed", type=int, default=0, metavar="SEED",
        help="seed for the per-restart priority jitter",
    )
    p_sched.add_argument(
        "--contention",
        choices=sorted(CONTENTION_MODELS),
        default=None,
        help="contention model for the two-phase contention-aware "
             "pipeline (default: contention-free pricing, the paper's "
             "multiple-channel assumption)",
    )
    p_sched.add_argument(
        "--contention-weight", type=int, default=1, metavar="W",
        help="per-unit-load surcharge weight of the contention model",
    )
    p_sched.add_argument(
        "--contention-rounds", type=int, default=2, metavar="R",
        help="reprice-and-reschedule rounds of the contention pipeline",
    )

    p_code = sub.add_parser(
        "codegen", help="emit per-PE programs for a compacted schedule"
    )
    _add_pair_args(p_code)

    p_sim = sub.add_parser("simulate", help="simulate a compacted schedule")
    _add_pair_args(p_sim)
    _add_obs_args(p_sim)
    p_sim.add_argument(
        "--loops", type=int, default=6, help="loop iterations to execute"
    )

    p_rep = sub.add_parser(
        "report", help="write the full markdown reproduction report"
    )
    p_rep.add_argument(
        "--out", default=None, help="output file (default: stdout)"
    )
    p_rep.add_argument(
        "--iterations", type=int, default=80, help="compaction passes per cell"
    )
    p_rep.add_argument(
        "--skip-table11", action="store_true", help="omit the filter study"
    )
    _add_obs_args(p_rep)

    p_prof = sub.add_parser(
        "profile",
        help="profile the optimiser per phase on a (workload, arch) pair",
    )
    _add_pair_args(p_prof)
    p_prof.add_argument(
        "--runs", type=int, default=3, help="optimiser runs to aggregate"
    )
    p_prof.add_argument(
        "--iterations", type=int, default=None, help="compaction passes (z)"
    )
    p_prof.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write a Chrome trace-event JSON of the profiled runs",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    p_exp.add_argument("name", choices=["figure1", "tables19", "table11"])
    p_exp.add_argument(
        "--iterations", type=int, default=80, help="compaction passes per cell"
    )

    p_sweep = sub.add_parser(
        "sweep", help="sweep one parameter (PE count, volume, slowdown)"
    )
    p_sweep.add_argument("workload", help="workload name (see `repro list`)")
    p_sweep.add_argument(
        "--arch",
        default="mesh",
        help="architecture kind (see `repro list`)",
    )
    p_sweep.add_argument(
        "--param",
        choices=["pes", "volume", "slowdown"],
        default="pes",
        help="parameter to sweep",
    )
    p_sweep.add_argument(
        "--values",
        default=None,
        metavar="CSV",
        help="comma-separated sweep values (e.g. 2,4,8,16)",
    )
    p_sweep.add_argument(
        "--pes", type=int, default=8,
        help="processor count (volume/slowdown sweeps)",
    )
    p_sweep.add_argument(
        "--iterations", type=int, default=40,
        help="compaction passes per point",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    _add_history_arg(p_sweep)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="property-based fuzzing of the scheduling pipeline",
    )
    p_fuzz.add_argument(
        "--trials", type=int, default=100, help="seeded trials to run"
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed"
    )
    p_fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop launching trials after this long (CI smoke mode)",
    )
    p_fuzz.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial; trial outcomes are identical)",
    )
    p_fuzz.add_argument(
        "--max-nodes", type=int, default=10,
        help="largest sampled graph size",
    )
    p_fuzz.add_argument(
        "--max-pes", type=int, default=8,
        help="largest sampled machine (kinds with a higher floor use it)",
    )
    p_fuzz.add_argument(
        "--properties", default=None, metavar="CSV",
        help="comma-separated property names (default: all; see "
             "docs/testing.md)",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging of failing trials",
    )
    p_fuzz.add_argument(
        "--out", default=None, metavar="DIR",
        help="write raw + shrunk reproducer JSON files here on failure",
    )
    p_fuzz.add_argument(
        "--replay", action="append", default=[], metavar="PATH",
        help="replay a reproducer case file or a corpus directory "
             "instead of fuzzing (repeatable)",
    )
    _add_history_arg(p_fuzz)

    p_faults = sub.add_parser(
        "faults", help="fault injection, schedule repair, chaos harness"
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)

    p_inject = faults_sub.add_parser(
        "inject", help="execute a compacted schedule under a fault campaign"
    )
    _add_pair_args(p_inject)
    p_inject.add_argument(
        "--loops", type=int, default=6, help="loop iterations to execute"
    )
    p_inject.add_argument(
        "--seed", type=int, default=0, help="random campaign seed"
    )
    p_inject.add_argument(
        "--faults", type=int, default=1, dest="num_faults",
        help="faults in the random campaign",
    )
    p_inject.add_argument(
        "--transient", type=float, default=0.0, metavar="FRACTION",
        help="fraction of faults that heal (0..1)",
    )
    p_inject.add_argument(
        "--campaign", default=None, metavar="FILE",
        help="JSON campaign file (overrides the random campaign flags)",
    )

    p_repair = faults_sub.add_parser(
        "repair", help="repair a compacted schedule after explicit failures"
    )
    _add_pair_args(p_repair)
    p_repair.add_argument(
        "--kill-pe", type=int, action="append", default=[], metavar="N",
        help="fail processor N (1-based, as rendered; repeatable)",
    )
    p_repair.add_argument(
        "--cut-link", action="append", default=[], metavar="A-B",
        help="fail the link between PEs A and B (1-based; repeatable)",
    )
    p_repair.add_argument(
        "--max-regression", type=float, default=1.5,
        help="local-repair length budget before full re-optimisation",
    )
    p_repair.add_argument(
        "--render",
        choices=["table", "none"],
        default="table",
        help="render the repaired schedule",
    )

    p_chaos = faults_sub.add_parser(
        "campaign", help="run the randomized chaos harness"
    )
    p_chaos.add_argument(
        "--trials", type=int, default=50, help="seeded trials to run"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="campaign seed"
    )
    p_chaos.add_argument("--pes", type=int, default=8, help="processor count")
    p_chaos.add_argument(
        "--max-faults", type=int, default=3, help="faults per trial (upper)"
    )
    p_chaos.add_argument(
        "--transient", type=float, default=0.25, metavar="FRACTION",
        help="fraction of faults that heal (0..1)",
    )
    p_chaos.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop launching trials after this long (CI smoke mode)",
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial; trial outcomes are identical)",
    )
    _add_history_arg(p_chaos)

    p_an = sub.add_parser(
        "analyze", help="static analysis of scheduler inputs"
    )
    p_an.add_argument(
        "graph", nargs="?", default=None,
        help="CSDFG JSON file or workload name (see `repro list`)",
    )
    p_an.add_argument(
        "arch", nargs="?", default="mesh",
        help="architecture kind, optionally kind:PES (default: mesh)",
    )
    p_an.add_argument("--pes", type=int, default=8, help="processor count")
    p_an.add_argument(
        "--slowdown", type=int, default=1, help="delay slow-down factor"
    )
    p_an.add_argument(
        "--config", default=None, metavar="FILE",
        help="optimiser config JSON (may carry a target_length key)",
    )
    p_an.add_argument(
        "--schedule", default=None, metavar="FILE",
        help="serialized schedule to certify against the inputs",
    )
    p_an.add_argument(
        "--target-length", type=int, default=None, metavar="L",
        help="prove this target schedule length feasible/infeasible",
    )
    p_an.add_argument(
        "--fail-pe", type=int, action="append", default=[], metavar="N",
        help="analyze with processor N failed (1-based; repeatable)",
    )
    p_an.add_argument(
        "--cut-link", action="append", default=[], metavar="A-B",
        help="analyze with the link between PEs A and B cut (1-based; "
             "repeatable)",
    )
    p_an.add_argument(
        "--paper-suite", action="store_true",
        help="analyze every registered workload on every paper topology",
    )
    p_an.add_argument(
        "--list-rules", action="store_true",
        help="print the full rule catalogue (codes, severities, titles) "
             "and exit",
    )
    _add_emit_args(p_an)

    p_lint = sub.add_parser(
        "lint", help="lint this repository's own source tree"
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the installed repro "
             "package)",
    )
    _add_emit_args(p_lint)

    p_san = sub.add_parser(
        "sanitize",
        help="dynamic determinism sanitizer: run a repro command twice "
             "under perturbed PYTHONHASHSEED/--jobs and diff the "
             "canonicalized outputs",
    )
    p_san.add_argument(
        "--jobs-a", type=int, default=1, metavar="N",
        help="--jobs value substituted into run A (default: 1)",
    )
    p_san.add_argument(
        "--jobs-b", type=int, default=2, metavar="N",
        help="--jobs value substituted into run B (default: 2)",
    )
    p_san.add_argument(
        "--hashseed-a", type=int, default=101, metavar="SEED",
        help="PYTHONHASHSEED for run A (default: 101)",
    )
    p_san.add_argument(
        "--hashseed-b", type=int, default=202, metavar="SEED",
        help="PYTHONHASHSEED for run B (default: 202)",
    )
    p_san.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-run timeout (default: 120)",
    )
    p_san.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON verdict (runs, diff) here as well",
    )
    p_san.add_argument(
        "target", nargs=argparse.REMAINDER, metavar="-- CMD ...",
        help="the repro subcommand to double-run, after a `--` "
             "separator, e.g. `repro sanitize -- schedule figure1 "
             "--arch mesh --pes 4`",
    )

    p_obs = sub.add_parser(
        "obs", help="aggregate traces and run history (the observatory)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_orep = obs_sub.add_parser(
        "report",
        help="hotspot tables and latency percentiles from traces/history",
    )
    p_orep.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="Chrome trace JSON file(s), history NDJSON file(s), and/or "
             "history directories",
    )
    p_orep.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="only the top N hotspot rows (0 = all)",
    )

    p_otop = obs_sub.add_parser(
        "top", help="rank spans by self time; emit collapsed stacks"
    )
    p_otop.add_argument(
        "paths", nargs="+", metavar="TRACE",
        help="Chrome trace JSON file(s) to aggregate",
    )
    p_otop.add_argument(
        "--limit", type=int, default=15, metavar="N",
        help="rows to print (0 = all)",
    )
    p_otop.add_argument(
        "--collapsed", default=None, metavar="FILE",
        help="write flamegraph-collapsed stacks here "
             "(flamegraph.pl / speedscope input)",
    )

    p_odiff = obs_sub.add_parser(
        "diff", help="compare two runs or history windows phase-by-phase"
    )
    p_odiff.add_argument(
        "a", help="baseline: trace JSON, history NDJSON, or history dir"
    )
    p_odiff.add_argument(
        "b", help="candidate: trace JSON, history NDJSON, or history dir"
    )
    p_odiff.add_argument(
        "--kind", default=None, metavar="KIND",
        help="restrict history inputs to one record kind",
    )

    p_oreg = obs_sub.add_parser(
        "regressions",
        help="detect runs exceeding a baseline fitted from history "
             "(non-zero exit on regression)",
    )
    p_oreg.add_argument(
        "--history-dir", default="benchmarks/out/history", metavar="DIR",
        help="history store to fit the baseline from",
    )
    p_oreg.add_argument(
        "--kind", default=None, metavar="KIND",
        help="restrict to one record kind (default: all)",
    )
    p_oreg.add_argument(
        "--threshold", type=float, default=1.3, metavar="RATIO",
        help="flag latest runs slower than RATIO x the baseline median",
    )
    p_oreg.add_argument(
        "--min-seconds", type=float, default=0.0, metavar="S",
        help="ignore groups whose latest run is faster than this "
             "(noise floor)",
    )
    return parser


def _add_pair_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "workload_pos",
        nargs="?",
        default=None,
        metavar="workload",
        help="workload name (alternative to --workload)",
    )
    parser.add_argument(
        "--workload", help="workload name (see `repro list`)"
    )
    parser.add_argument(
        "--arch",
        default="mesh",
        help="architecture kind (see `repro list`)",
    )
    parser.add_argument("--pes", type=int, default=8, help="processor count")
    parser.add_argument(
        "--slowdown", type=int, default=1, help="delay slow-down factor"
    )


def _add_emit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="fmt",
        help="report format (sarif for CI code-scanning upload)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not only errors",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase time breakdown and metrics after the run",
    )
    _add_history_arg(parser)


def _add_history_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history-dir",
        default=None,
        metavar="DIR",
        help="append a provenance-stamped run record to this history "
             "store (NDJSON; aggregated by `repro obs`)",
    )


class _ObsSession:
    """Scope of one instrumented CLI command.

    Installs an in-memory sink (turning the library's instrumentation
    on); on :meth:`finish` writes the Chrome trace and/or prints the
    profile report as requested by the flags, and
    :meth:`record_history` appends one provenance-stamped run record
    to the history store when ``--history-dir`` was given.
    """

    def __init__(
        self,
        trace_path: str | None,
        profile: bool,
        history_dir: str | None = None,
    ) -> None:
        self.trace_path = trace_path
        self.profile = profile
        self.history_dir = history_dir
        self.sink = InMemorySink()
        self.started = time.perf_counter()
        metrics.reset()
        install_sink(self.sink)

    def finish(self, *, sim=None) -> None:
        remove_sink(self.sink)
        if self.trace_path:
            path = write_chrome_trace(
                self.trace_path, self.sink.events, sim=sim
            )
            print(f"trace written to {path}")
        if self.profile:
            print()
            print(format_breakdown(phase_breakdown(self.sink.events)))
            print()
            print(metrics_report(metrics.snapshot()))

    def record_history(
        self,
        kind: str,
        *,
        workload: str,
        arch: str,
        config: dict | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Append one run record (no-op without ``--history-dir``).
        Call after :meth:`finish` so the span stream is complete."""
        if self.history_dir is None:
            return
        from repro.obs.aggregate import phase_totals
        from repro.obs.history import HistoryStore

        store = HistoryStore(self.history_dir)
        store.record(
            kind,
            workload=workload,
            arch=arch,
            config=config,
            duration_seconds=time.perf_counter() - self.started,
            phases=phase_totals(self.sink.events),
            counters=metrics.snapshot()["counters"],
            attrs=attrs or {},
        )
        print(f"history record ({kind}) appended under {store.root}")


def _obs_session(args: argparse.Namespace) -> _ObsSession | None:
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    history_dir = getattr(args, "history_dir", None)
    if trace_path is None and not profile and history_dir is None:
        return None
    return _ObsSession(trace_path, profile, history_dir)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `python -m repro ... | head`
        return 0  # must precede OSError: BrokenPipeError is a subclass
    except OSError as exc:  # unwritable --trace / --out paths etc.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "codegen":
        return _cmd_codegen(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_list() -> int:
    print("workloads:")
    for name in workload_names():
        graph = make_workload(name)
        print(f"  {name:12s} {graph.num_nodes:3d} nodes, "
              f"{graph.num_edges:3d} edges, work {graph.total_work()}")
    print("architecture kinds:")
    print("  " + ", ".join(sorted(ARCHITECTURE_KINDS)))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = make_workload(args.workload)
    print(f"workload {graph.name}")
    print(f"  nodes:           {graph.num_nodes}")
    print(f"  edges:           {graph.num_edges}")
    print(f"  total work:      {graph.total_work()}")
    print(f"  delayed edges:   {sum(1 for e in graph.edges() if e.delay)}")
    print(f"  critical path:   {critical_path_length(graph)}")
    print(f"  iteration bound: {iteration_bound(graph)}")
    return 0


def _make_pair(args: argparse.Namespace):
    name = args.workload or args.workload_pos
    if name is None:
        raise ReproError(
            "no workload given (positional or --workload); "
            f"known: {', '.join(workload_names())}"
        )
    if name not in workload_names():
        raise ReproError(
            f"unknown workload {name!r}; known: {', '.join(workload_names())}"
        )
    graph = make_workload(name)
    if args.slowdown > 1:
        graph = slowdown(graph, args.slowdown)
    arch = make_architecture(args.arch, args.pes)
    return graph, arch


@dataclasses.dataclass(frozen=True)
class _RestartResultView:
    """Adapts a RestartReport to the CycloResult fields the schedule
    command renders, so both paths share one output pipeline."""

    graph: object
    schedule: object
    initial_length: int
    final_length: int
    stop_reason: str


def _cmd_schedule(args: argparse.Namespace) -> int:
    graph, arch = _make_pair(args)
    contention = args.contention if args.contention != "none" else None
    cfg = CycloConfig(
        relaxation=not args.no_relax,
        max_iterations=args.iterations,
        pipelined_pes=args.pipelined,
        contention_model=contention,
        contention_weight=args.contention_weight,
        contention_rounds=args.contention_rounds,
    )
    if args.restarts > 1 and args.refine:
        raise ReproError("--refine cannot be combined with --restarts")
    if contention is not None and (args.restarts > 1 or args.refine):
        raise ReproError(
            "--contention cannot be combined with --restarts or --refine"
        )
    report = None
    contended = None
    session = _obs_session(args)
    try:
        if contention is not None:
            from repro.core import contention_aware_schedule

            contended = contention_aware_schedule(graph, arch, config=cfg)
            winner = (
                contended.blind if contended.comm is None else contended.aware
            )
            result = _RestartResultView(
                graph=contended.graph,
                schedule=contended.schedule,
                initial_length=contended.initial_length,
                final_length=contended.final_length,
                stop_reason=winner.stop_reason,
            )
        elif args.restarts > 1:
            from repro.perf import best_of_restarts

            report = best_of_restarts(
                graph,
                arch,
                cfg,
                restarts=args.restarts,
                jobs=args.jobs,
                seed=args.restart_seed,
            )
            result = _RestartResultView(
                graph=report.graph,
                schedule=report.schedule,
                initial_length=report.winner.initial_length,
                final_length=report.final_length,
                stop_reason=report.winner.stop_reason,
            )
        elif args.refine:
            result = optimize(graph, arch, config=cfg)
        else:
            result = cyclo_compact(graph, arch, config=cfg)
    finally:
        if session is not None:
            session.finish()
    if session is not None:
        session.record_history(
            "schedule",
            workload=graph.name,
            arch=arch.name,
            config=cfg.to_dict(),
            attrs={
                "initial_length": result.initial_length,
                "final_length": result.final_length,
                "stop_reason": result.stop_reason,
            },
        )
    bounds = schedule_bounds(graph, arch)
    print(f"{graph.name} on {arch.name}: "
          f"{result.initial_length} -> {result.final_length} control steps "
          f"(lower bound {bounds.lower}, sequential {bounds.sequential})")
    if contended is not None:
        rounds = len(contended.round_costs) - 1
        winner_name = (
            "blind baseline" if contended.comm is None
            else "contention-aware"
        )
        print(f"contention ({contended.model.name}, weight "
              f"{args.contention_weight}, {rounds} round(s)): "
              f"blind bill {contended.blind_cost} -> winner bill "
              f"{contended.final_cost} ({winner_name})")
    if report is not None:
        print(f"best of {report.restarts} restarts "
              f"(seed {report.seed}, {report.stages} stages): "
              f"winner restart {report.winner.index}")
        for o in report.outcomes:
            marker = "*" if o.index == report.winner.index else " "
            print(f"  {marker} restart {o.index}: length {o.length} "
                  f"after {o.passes} passes ({o.stop_reason})")
    metrics = compute_metrics(result.graph, arch, result.schedule)
    print(f"utilization {metrics.utilization:.2f}, speedup "
          f"{metrics.speedup:.2f}, comm cost {metrics.comm_cost}")
    if args.render == "table":
        print(render_table(result.schedule, title="compacted schedule:"))
    elif args.render == "gantt":
        print(render_gantt(result.schedule, title="compacted schedule:"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph, arch = _make_pair(args)
    cfg = CycloConfig(max_iterations=40)
    session = _obs_session(args)
    try:
        result = cyclo_compact(graph, arch, config=cfg)
        sim = simulate(result.graph, arch, result.schedule, args.loops)
        buffers = buffer_requirements(
            result.graph, arch, result.schedule, result=sim
        )
    finally:
        if session is not None:
            session.finish(sim=sim if "sim" in locals() else None)
    print(f"simulated {sim.iterations} iterations of {graph.name} "
          f"on {arch.name} (L = {sim.schedule_length})")
    print(f"  makespan:        {sim.makespan} control steps")
    print(f"  throughput:      {sim.throughput():.4f} iterations/cs")
    print(f"  messages:        {len(sim.messages)} "
          f"({sim.total_comm_steps} transit control steps)")
    print(f"  buffer tokens:   {buffers.total_tokens} "
          f"({buffers.total_words} words)")
    _print_load_summary(sim)
    return 0


def _print_load_summary(sim) -> None:
    """Per-PE utilisation and per-link traffic (load-imbalance view)."""
    busy = sim.pe_busy_steps()
    utilisation = sim.pe_utilisation()
    makespan = sim.makespan
    print("per-PE utilisation:")
    for pe in sorted(busy):
        bar = "#" * round(utilisation[pe] * 20)
        print(f"  pe{pe + 1}:  {busy[pe]:4d}/{makespan} cs busy  "
              f"({utilisation[pe] * 100:5.1f}%)  |{bar:<20}|")
    traffic = sim.link_traffic()
    if traffic:
        print("per-link traffic:")
        for (src, dst), t in traffic.items():
            print(f"  pe{src + 1}->pe{dst + 1}:  {t.messages:3d} messages, "
                  f"{t.volume:3d} words, {t.transit_steps:3d} transit cs")
    else:
        print("per-link traffic: none (all dependences local)")


def _cmd_codegen(args: argparse.Namespace) -> int:
    graph, arch = _make_pair(args)
    cfg = CycloConfig(max_iterations=40)
    result = cyclo_compact(graph, arch, config=cfg)
    program = generate_program(result.graph, arch, result.schedule)
    print(program.render())
    print(f"\n{program.total_computes} computes, "
          f"{program.total_sends} messages per iteration")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import generate_full_report

    session = _obs_session(args)
    try:
        text = generate_full_report(
            compaction_passes=args.iterations,
            include_table11=not args.skip_table11,
        )
    finally:
        if session is not None:
            session.finish()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = CycloConfig(max_iterations=args.iterations)
    if args.name == "figure1":
        from repro.workloads import figure1_csdfg, figure1_mesh

        cell, result = run_cell(figure1_csdfg(), figure1_mesh(), config=cfg)
        print(render_table(result.initial_schedule, title="start-up (paper: 7 cs):"))
        print()
        print(render_table(
            result.schedule,
            title=f"compacted (paper: 5 cs, measured: {cell.after} cs):",
        ))
        return 0
    if args.name == "tables19":
        from repro.workloads import figure7_csdfg

        cells = run_grid(figure7_csdfg(), paper_architectures(8), config=cfg)
        print(format_cells(cells))
        return 0
    # table11
    from repro.workloads import elliptic_wave_filter, lattice_filter

    rows = []
    for name, graph in (
        ("Elliptic Filter", slowdown(elliptic_wave_filter(), 3)),
        ("Lattice Filter", slowdown(lattice_filter(8), 3)),
    ):
        for relaxation, label in ((False, "w/o"), (True, "with")):
            run_cfg = CycloConfig(
                relaxation=relaxation,
                max_iterations=args.iterations,
            )
            cells = run_grid(
                graph,
                paper_architectures(8),
                relaxation=relaxation,
                config=run_cfg,
            )
            rows.append((name, label, cells))
    print(format_table11(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import (
        pe_count_sweep,
        slowdown_sweep,
        volume_sweep,
    )

    if args.workload not in workload_names():
        raise ReproError(
            f"unknown workload {args.workload!r}; "
            f"known: {', '.join(workload_names())}"
        )
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    defaults = {
        "pes": "2,4,8,16",
        "volume": "1,2,4,8",
        "slowdown": "1,2,3,4",
    }
    raw = args.values if args.values is not None else defaults[args.param]
    try:
        values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ReproError(
            f"--values expects comma-separated integers, got {raw!r}"
        ) from None
    if not values:
        raise ReproError("--values is empty")

    graph = make_workload(args.workload)
    cfg = CycloConfig(max_iterations=args.iterations)
    session = _obs_session(args)
    try:
        if args.param == "pes":
            points = pe_count_sweep(
                graph, args.arch, values, config=cfg, jobs=args.jobs
            )
            label = "PEs"
        elif args.param == "volume":
            points = volume_sweep(
                graph, args.arch, args.pes, values, config=cfg, jobs=args.jobs
            )
            label = "volume x"
        else:
            points = slowdown_sweep(
                graph, args.arch, args.pes, values, config=cfg, jobs=args.jobs
            )
            label = "slowdown"
    finally:
        if session is not None:
            session.finish()
    if session is not None:
        session.record_history(
            "sweep",
            workload=graph.name,
            arch=args.arch,
            config={
                "param": args.param,
                "values": values,
                "iterations": args.iterations,
                "jobs": args.jobs,
                "cyclo": cfg.to_dict(),
            },
            attrs={"points": len(points)},
        )
    print(f"{args.param} sweep: {graph.name} on {args.arch} "
          f"({len(points)} point(s), jobs={args.jobs})")
    print(f"  {label:>10s}  {'init':>5s}  {'after':>5s}  {'bound':>7s}")
    for p in points:
        print(f"  {p.x:>10d}  {p.init:>5d}  {p.after:>5d}  "
              f"{str(p.bound):>7s}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph, arch = _make_pair(args)
    if args.runs < 1:
        raise ReproError(f"--runs must be >= 1, got {args.runs}")
    cfg = CycloConfig(
        max_iterations=args.iterations, validate_each_step=True
    )
    sink = InMemorySink()
    metrics.reset()
    install_sink(sink)
    try:
        lengths = []
        for _ in range(args.runs):
            result = cyclo_compact(graph, arch, config=cfg)
            lengths.append((result.initial_length, result.final_length))
    finally:
        remove_sink(sink)
    print(f"profiled {args.runs} run(s) of cyclo_compact: "
          f"{graph.name} on {arch.name} "
          f"({lengths[0][0]} -> {lengths[0][1]} control steps)")
    print()
    print(format_breakdown(phase_breakdown(sink.events)))
    print()
    print(metrics_report(metrics.snapshot()))
    if args.trace:
        path = write_chrome_trace(args.trace, sink.events)
        print(f"\ntrace written to {path}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import PROPERTIES, GraphProfile, run_fuzz

    if args.replay:
        return _cmd_fuzz_replay(args.replay)
    if args.trials < 1:
        raise ReproError(f"--trials must be >= 1, got {args.trials}")
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    properties = None
    if args.properties is not None:
        properties = tuple(
            name.strip() for name in args.properties.split(",") if name.strip()
        )
        unknown = [name for name in properties if name not in PROPERTIES]
        if unknown or not properties:
            raise ReproError(
                f"unknown properties {unknown}; "
                f"known: {', '.join(PROPERTIES)}"
            )
    profile = GraphProfile(max_nodes=args.max_nodes)
    session = _obs_session(args)
    try:
        report = run_fuzz(
            trials=args.trials,
            seed=args.seed,
            properties=properties,
            profile=profile,
            max_pes=args.max_pes,
            shrink=not args.no_shrink,
            time_budget_seconds=args.time_budget,
            jobs=args.jobs,
        )
    finally:
        if session is not None:
            session.finish()
    if session is not None:
        session.record_history(
            "fuzz",
            workload="pipeline-fuzz",
            arch=f"maxpes{args.max_pes}",
            config={
                "trials": args.trials,
                "seed": args.seed,
                "max_nodes": args.max_nodes,
                "max_pes": args.max_pes,
                "properties": sorted(properties) if properties else "all",
                "shrink": not args.no_shrink,
                "jobs": args.jobs,
            },
            attrs={
                "trials_run": len(report.trials),
                "failures": len(report.failures),
            },
        )
    print(report.describe())
    if args.out and report.failures:
        _write_reproducers(args.out, report)
    return 0 if report.ok else 1


def _write_reproducers(out_dir: str, report) -> None:
    from pathlib import Path

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for trial in report.failures:
        stem = f"seed{report.seed}-trial{trial.index}"
        if trial.case_json is not None:
            path = directory / f"{stem}.json"
            path.write_text(trial.case_json + "\n")
            written.append(path)
        if trial.shrunk_json is not None:
            path = directory / f"{stem}-shrunk.json"
            path.write_text(trial.shrunk_json + "\n")
            written.append(path)
    print(f"wrote {len(written)} reproducer file(s) to {directory}")


def _cmd_fuzz_replay(paths: list[str]) -> int:
    from pathlib import Path

    from repro.errors import QAError
    from repro.qa import ReproCase, load_cases, replay_case

    cases: list[tuple[Path, "ReproCase"]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            cases.extend(load_cases(path))
        elif path.is_file():
            try:
                cases.append((path, ReproCase.from_json(path.read_text())))
            except QAError as exc:
                raise ReproError(f"{path}: {exc}") from exc
        else:
            raise ReproError(f"--replay path {raw!r} does not exist")
    if not cases:
        raise ReproError("--replay found no reproducer cases")
    failures = 0
    for path, case in cases:
        violations = replay_case(case)
        if violations:
            failures += 1
            print(f"FAIL {path}: {case.describe()}")
            for v in violations[:4]:
                print(f"  {v}")
            if len(violations) > 4:
                print(f"  ... {len(violations) - 4} more")
        else:
            print(f"ok   {path}: {case.describe()}")
    verdict = (
        "all reproducers pass"
        if failures == 0
        else f"{failures} reproducer(s) FAIL"
    )
    print(f"replayed {len(cases)} case(s): {verdict}")
    return 0 if failures == 0 else 1


def _emit_report(report, args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analyze import render_report

    text = render_report(report, args.fmt)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"{args.fmt} report written to {args.out} "
              f"({report.summary()})")
    else:
        print(text)
    return report.exit_code(strict=args.strict)


def _parse_link_spec(spec: str) -> tuple[int, int]:
    """``A-B`` (1-based, as rendered) -> 0-based PE pair."""
    parts = spec.replace(",", "-").split("-")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise ReproError(
            f"--cut-link expects A-B (two 1-based PE ids), got {spec!r}"
        ) from None
    if a < 1 or b < 1:
        raise ReproError(f"--cut-link is 1-based, got {spec!r}")
    return a - 1, b - 1


def _cmd_list_rules() -> int:
    from repro.analyze import RULES

    band = None
    for code in sorted(RULES):
        entry = RULES[code]
        if code[:2] != band:
            band = code[:2]
            print({
                "RA": "input analyzer (repro analyze)",
                "RL": "codebase lint (repro lint)",
                "RD": "determinism flow (repro lint)",
                "RC": "engine contracts (repro lint)",
            }.get(band, band) + ":")
        print(f"  {entry.code}  {entry.severity:7s}  {entry.title}")
    print(f"{len(RULES)} rule(s); details in docs/analysis.md")
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analyze import sanitize_command

    target = list(args.target)
    if target and target[0] == "--":
        target = target[1:]
    report = sanitize_command(
        target,
        jobs_a=args.jobs_a, jobs_b=args.jobs_b,
        hashseed_a=args.hashseed_a, hashseed_b=args.hashseed_b,
        timeout=args.timeout,
    )
    print(report.describe())
    for line in report.diff:
        print(f"  {line}")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"sanitize verdict written to {args.out}")
    return report.exit_code()


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analyze import (
        AnalysisReport,
        analyze_inputs,
        build_architecture,
        load_config_input,
        load_graph_input,
        load_schedule_input,
    )

    if args.list_rules:
        return _cmd_list_rules()
    if args.paper_suite:
        return _cmd_analyze_suite(args)
    if args.graph is None:
        raise ReproError(
            "no graph given: pass a CSDFG JSON file or a workload name "
            "(or --paper-suite)"
        )

    report = AnalysisReport(subject=f"{args.graph} on {args.arch}")
    graph, diags = load_graph_input(args.graph)
    report.extend(diags)

    failed_pes = []
    for pe in args.fail_pe:
        if pe < 1:
            raise ReproError(f"--fail-pe is 1-based, got {pe}")
        failed_pes.append(pe - 1)
    failed_links = [_parse_link_spec(s) for s in args.cut_link]
    arch, diags = build_architecture(
        args.arch, args.pes,
        failed_pes=tuple(failed_pes),
        failed_links=tuple(failed_links),
    )
    report.extend(diags)

    config = None
    target = args.target_length
    if args.config:
        config, cfg_target, diags = load_config_input(args.config)
        report.extend(diags)
        if target is None:
            target = cfg_target
    schedule = None
    if args.schedule:
        schedule, diags = load_schedule_input(args.schedule)
        report.extend(diags)

    if graph is not None:
        if args.slowdown > 1:
            graph = slowdown(graph, args.slowdown)
        report.merge(analyze_inputs(
            graph, arch,
            config=config,
            schedule=schedule,
            target_length=target,
            subject=report.subject,
        ))
    return _emit_report(report, args)


def _cmd_analyze_suite(args: argparse.Namespace) -> int:
    """``analyze --paper-suite``: every workload x every paper topology."""
    from repro.analyze import AnalysisReport, analyze_inputs

    combined = AnalysisReport(
        subject=f"paper suite ({args.pes}-PE paper topologies)"
    )
    pairs = 0
    for name in workload_names():
        graph = make_workload(name)
        if args.slowdown > 1:
            graph = slowdown(graph, args.slowdown)
        for arch in paper_architectures(args.pes).values():
            pairs += 1
            report = analyze_inputs(graph, arch, target_length=None)
            if args.fmt == "text" and not report.ok:
                print(report.describe())
            combined.merge(report)
    if args.fmt == "text":
        print(f"analyzed {pairs} (workload, architecture) pair(s): "
              f"{combined.summary()}")
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(combined.describe() + "\n")
        return combined.exit_code(strict=args.strict)
    return _emit_report(combined, args)


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analyze import lint_paths

    paths = args.paths or [Path(repro.__file__).parent]
    return _emit_report(lint_paths(paths), args)


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.faults_command == "inject":
        return _cmd_faults_inject(args)
    if args.faults_command == "repair":
        return _cmd_faults_repair(args)
    return _cmd_faults_campaign(args)


def _compacted(args: argparse.Namespace):
    graph, arch = _make_pair(args)
    cfg = CycloConfig(max_iterations=40)
    return arch, cyclo_compact(graph, arch, config=cfg)


def _cmd_faults_inject(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.resilience import (
        FaultCampaign,
        random_campaign,
        simulate_with_faults,
    )

    arch, result = _compacted(args)
    if args.campaign:
        campaign = FaultCampaign.from_json(Path(args.campaign).read_text())
    else:
        campaign = random_campaign(
            arch,
            seed=args.seed,
            num_faults=args.num_faults,
            horizon=max(1, result.schedule.length * max(1, args.loops - 1)),
            transient_fraction=args.transient,
        )
    print(campaign.describe())
    sim = simulate_with_faults(
        result.graph, arch, result.schedule, args.loops, campaign
    )
    print(sim.describe())
    return 0


def _cmd_faults_repair(args: argparse.Namespace) -> int:
    from repro.resilience import LinkFault, PEFault, repair_schedule

    faults = []
    for pe in args.kill_pe:
        if pe < 1:
            raise ReproError(f"--kill-pe is 1-based, got {pe}")
        faults.append(PEFault(pe - 1))
    for spec in args.cut_link:
        parts = spec.replace(",", "-").split("-")
        try:
            a, b = (int(p) for p in parts)
        except ValueError:
            raise ReproError(
                f"--cut-link expects A-B (two 1-based PE ids), got {spec!r}"
            ) from None
        if a < 1 or b < 1:
            raise ReproError(f"--cut-link is 1-based, got {spec!r}")
        faults.append(LinkFault(a - 1, b - 1))
    if not faults:
        raise ReproError(
            "nothing to repair: pass --kill-pe N and/or --cut-link A-B"
        )

    arch, result = _compacted(args)
    for fault in faults:
        print(fault.describe())
    rep = repair_schedule(
        result.graph,
        arch,
        result.schedule,
        faults,
        max_regression=args.max_regression,
    )
    print(
        f"repair ({rep.strategy}): {rep.original_length} -> "
        f"{rep.repaired_length} control steps "
        f"({rep.regression:.2f}x) on {rep.degraded.num_alive} surviving "
        f"PE(s), moved {len(rep.moved)} task(s)"
    )
    if args.render == "table":
        print(render_table(rep.schedule, title="repaired schedule:"))
    return 0


def _cmd_faults_campaign(args: argparse.Namespace) -> int:
    from repro.resilience import run_chaos_campaign

    session = _obs_session(args)
    try:
        report = run_chaos_campaign(
            trials=args.trials,
            seed=args.seed,
            num_pes=args.pes,
            max_faults=args.max_faults,
            transient_fraction=args.transient,
            time_budget_seconds=args.time_budget,
            jobs=args.jobs,
        )
    finally:
        if session is not None:
            session.finish()
    if session is not None:
        session.record_history(
            "chaos",
            workload="chaos-campaign",
            arch=f"pes{args.pes}",
            config={
                "trials": args.trials,
                "seed": args.seed,
                "pes": args.pes,
                "max_faults": args.max_faults,
                "transient": args.transient,
                "jobs": args.jobs,
            },
            attrs={
                "trials_run": len(report.trials),
                "invariant_holds": report.invariant_holds,
            },
        )
    print(report.describe())
    return 0 if report.invariant_holds else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    return _cmd_obs_regressions(args)


def _is_history_path(raw: str) -> bool:
    from pathlib import Path

    p = Path(raw)
    return p.is_dir() or p.suffix == ".ndjson"


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.aggregate import (
        format_history_summary,
        hotspot_table,
        trace_file_span_events,
    )
    from repro.obs.history import load_records

    history_paths = [p for p in args.paths if _is_history_path(p)]
    trace_paths = [p for p in args.paths if not _is_history_path(p)]
    events: list[dict] = []
    for path in trace_paths:
        events.extend(trace_file_span_events(path))
    if trace_paths:
        print(f"## hotspots ({len(trace_paths)} trace file(s))")
        print()
        print(hotspot_table(events, limit=args.limit))
    if history_paths:
        records = load_records(history_paths)
        if trace_paths:
            print()
        print(f"## run history ({len(records)} record(s))")
        print()
        print(format_history_summary(records))
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.aggregate import trace_file_span_events, trace_stats
    from repro.obs.collapse import collapsed_stacks

    events: list[dict] = []
    for path in args.paths:
        events.extend(trace_file_span_events(path))
    stats = trace_stats(events)
    if args.limit > 0:
        stats = stats[: args.limit]
    if not stats:
        print("(no spans recorded)")
    else:
        width = max(len(s.name) for s in stats)
        print(f"{'span':<{width}}  {'calls':>7}  {'self (ms)':>10}  "
              f"{'total (ms)':>10}")
        for s in stats:
            print(f"{s.name:<{width}}  {s.calls:>7}  {s.self_ms:>10.3f}  "
                  f"{s.total_ms:>10.3f}")
    if args.collapsed:
        target = Path(args.collapsed)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "\n".join(collapsed_stacks(events)) + "\n", encoding="utf-8"
        )
        print(f"collapsed stacks written to {target}")
    return 0


def _obs_diff_phases(raw: str, kind: str | None) -> dict[str, float]:
    from repro.obs.aggregate import (
        phase_totals,
        record_phases,
        trace_file_span_events,
    )
    from repro.obs.history import load_records

    if _is_history_path(raw):
        records = load_records([raw])
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return record_phases(records)
    return phase_totals(trace_file_span_events(raw))


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.aggregate import diff_tables, format_diff

    a = _obs_diff_phases(args.a, args.kind)
    b = _obs_diff_phases(args.b, args.kind)
    rows = diff_tables(a, b)
    print(format_diff(rows, a_label=args.a, b_label=args.b))
    return 0


def _cmd_obs_regressions(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.aggregate import (
        detect_regressions,
        fit_baselines,
        format_regressions,
    )
    from repro.obs.history import HistoryStore

    if args.threshold <= 1.0:
        raise ReproError(
            f"--threshold must exceed 1.0, got {args.threshold}"
        )
    root = Path(args.history_dir)
    store = HistoryStore(root)
    records = store.load(args.kind)
    if not records:
        print(f"no history records under {root}")
        return 0
    found = detect_regressions(
        records, threshold=args.threshold, min_seconds=args.min_seconds
    )
    checked = len(fit_baselines(records))
    print(format_regressions(found, checked=checked))
    return 1 if found else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
