"""Scheduler benchmark: throughput, latency and schedule quality.

Usage (from the repository root)::

    python3 bench/run.py --workload paper19 --seed 11 --seconds 20 --trace 0
    python3 bench/run.py --seed 11          # all four workloads in turn

One process per workload runs one caller in a closed loop: the next
scheduling call starts when the previous one returns.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reruns the same calls
with every layer's entry points wrapped from here and reports the
per-layer split (``bench/layers.py``).  Every output is checked
independently of the engine (``bench/measure.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md``.
"""

import time

from reference import CALIBRATED_S, reference_seconds

#: the host's speed right before set-up, and set-up's start
REF_BEFORE = reference_seconds()
T0 = time.perf_counter()

import argparse  # noqa: E402  (everything after T0 counts as set-up)
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: set-up is measured in this many fresh processes
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

#: end-to-end metric -> unit (directions and bounds: BENCHMARK.json)
END_TO_END = {
    "nodes_per_ref": "nodes/ref",
    "length_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def locate_engine() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    engine imported is the one in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def set_up(workload: str, seed: int, tiny: bool) -> list:
    """Imports plus input generation: the set-up :func:`probe_setup` times."""
    locate_engine()
    import measure  # noqa: F401  (imports the engine layers it times)
    from inputs import build

    try:
        return build(workload, seed, tiny=tiny)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )


def probe_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Set-up time of one fresh process: ``(wall seconds, seconds at the
    calibrated host speed)``.  The second is the first scaled by
    :data:`CALIBRATED_S` over the reference task's time, averaged from
    just before and just after set-up."""
    argv = ["--setup-only", "--workload", workload, "--seed", str(seed)]
    proc = _child(argv + (["--tiny"] if tiny else []))
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    wall, calibrated = map(float, proc.stdout.split()[-2:])
    return wall, calibrated


def _tail(values: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it, in ms."""
    for q in (99, 90):
        if len(values) * (100 - q) >= 1000:
            return f"p{q} {statistics.quantiles(values, n=100)[q - 1] * 1e3:.2f}"
    return "-"


def end_to_end(runner, setup_samples: list[tuple[float, float]]) -> dict:
    from measure import geomean

    cells = [s for s in runner.stats if s.seconds]
    return {
        "nodes_per_ref": geomean(
            s.cell.graph.num_nodes / statistics.median(s.relative) for s in cells
        ),
        "length_ratio": geomean(
            s.final_length / s.initial_length for s in cells
        ),
        "setup_s": statistics.median(c for _wall, c in setup_samples),
        "peak_rss_mb": runner.peak_rss_kib / 1024,
    }


def quality(runner) -> dict:
    """Deterministic facts about the outputs: identical for one seed on
    any engine that returns the same schedules."""
    from measure import geomean

    done = [s for s in runner.stats if s.digest is not None]
    out = {
        "length_geomean": geomean(s.final_length for s in done) if done else 0,
        "schedules_sha256": hashlib.sha256(
            "".join(s.digest or "-" for s in runner.stats).encode()
        ).hexdigest(),
    }
    bills = [s.bill for s in done if s.bill is not None]
    if bills:
        out["contended_bill_geomean"] = geomean(max(b, 1) for b in bills)
    return out


def per_layer(tracer, counters: dict, runner) -> dict:
    from layers import KERNELS
    from measure import geomean

    calls = len(tracer.requests)
    totals = tracer.layer_totals()

    def seconds(layer):
        return totals.get(layer, [0])[0] / 1e9 / calls

    def share(layer):
        return ratio(totals.get(layer, [0])[0], traced_ns)

    def invoked(layer):
        return totals.get(layer, [0, 0])[1] / calls

    def counted(name):
        return counters.get(name, 0) / calls

    def ratio(num, den):
        return num / den if den else 0.0

    traced_ns = tracer.traced_ns()
    done = [s for s in runner.stats if s.digest is not None]
    simulated = [s.sim for s in done if s.sim is not None]
    certify = [t for s in runner.stats for t in s.certify_seconds]
    hits = counters.get("arch.cache.hits", 0)
    metrics = {
        "startup.s": seconds("startup"),
        "startup.share": share("startup"),
        "startup.pf_evaluations": counted("startup.pf_evaluations"),
        "startup.deferrals": counted("startup.deferrals"),
        "startup.control_steps": counted("startup.control_steps"),
        "startup.pf_per_placement": ratio(
            counters.get("startup.pf_evaluations", 0),
            counters.get("startup.placements", 0),
        ),
        "startup.initial_length": geomean(s.initial_length for s in done),
        "rotate.s": seconds("rotate"),
        "rotate.calls": invoked("rotate"),
        "rotation.nodes_rotated": counted("rotation.nodes_rotated"),
        "schedule.table.shifts": counted("schedule.table.shifts"),
        "remap.s": seconds("remap"),
        "remap.calls": invoked("remap"),
        "remap.nodes": counted("remap.nodes"),
        "remap.candidate_pes": counted("remap.candidate_pes"),
        "remap.candidate_slots": counted("remap.candidate_slots"),
        "remap.slots_per_node": ratio(
            counters.get("remap.candidate_slots", 0),
            counters.get("remap.nodes", 0),
        ),
        "remap.toporank_rebuilds": counted("remap.toporank_rebuilds"),
        "schedule.table.probes": counted("schedule.table.probes"),
        "cyclo.rejected": counted("cyclo.rejected"),
        "psl.init_s": seconds("psl.init"),
        "psl.update_s": seconds("psl.update"),
        "psl.update_calls": invoked("psl.update"),
    }
    for name in KERNELS:
        layer = f"kernel.{name}"
        _self_ns, kernel_calls, elems = totals.get(layer, [0, 0, 0])
        metrics[f"{layer}.share"] = share(layer)
        metrics[f"{layer}.calls"] = invoked(layer)
        metrics[f"{layer}.elems_per_call"] = ratio(elems, kernel_calls)
    metrics.update({
        "cache.build_s": seconds("cache.build"),
        "cache.hit_rate": ratio(hits, hits + counters.get("arch.cache.misses", 0)),
        "cyclo.other_s": seconds("cyclo"),
        "cyclo.passes": counted("cyclo.passes"),
        "cyclo.improved": counted("cyclo.improved"),
        "pipeline.self_share": share("pipeline"),
        "pipeline.reprice_share": share("pipeline.reprice"),
        "certify.s": statistics.fmean(certify) if certify else 0.0,
        "sim.late_messages": statistics.fmean(
            s["late_messages"] for s in simulated) if simulated else 0.0,
        "sim.total_queueing": statistics.fmean(
            s["total_queueing"] for s in simulated) if simulated else 0.0,
        "trace.overhead": ratio(
            sum(sum(s.traced_seconds) for s in runner.stats),
            sum(sum(s.seconds) for s in runner.stats),
        ) - 1,
    })
    return metrics


def print_cells(runner) -> None:
    print(f"{'cell':<34}{'calls':>6}{'min ms':>9}{'p50 ms':>9}{'tail ms':>13}"
          f"{'nodes/s':>10}{'nodes/ref':>10}{'L0':>7}{'L':>7}{'bill':>9}")
    for s in runner.stats:
        if not s.seconds:
            print(f"{s.cell.label:<34}{s.calls:>6}  no successful call")
            continue
        nodes = s.cell.graph.num_nodes
        per_ref = f"{nodes / statistics.median(s.relative):.2f}" if s.relative else "-"
        bill = "-" if s.bill is None else str(s.bill)
        print(f"{s.cell.label:<34}{len(s.seconds):>6}{min(s.seconds) * 1e3:>9.2f}"
              f"{statistics.median(s.seconds) * 1e3:>9.2f}{_tail(s.seconds):>13}"
              f"{nodes / min(s.seconds):>10.1f}{per_ref:>10}"
              f"{s.initial_length:>7}{s.final_length:>7}{bill:>9}")


def print_layers(tracer, runner) -> None:
    """Self time per layer, per cell: share of the cell's traced time."""
    columns = {"startup": "startup", "rotate": "rotate", "remap": "remap",
               "psl.init": "psl.init", "psl.update": "psl.upd",
               "cache.build": "cache", "cyclo": "cyclo",
               "pipeline": "pipeline", "pipeline.reprice": "reprice"}
    print(f"{'cell':<34}{'ms/call':>9}"
          + "".join(f"{short:>9}" for short in columns.values())
          + f"{'kernels':>9}{'bench':>8}")
    labels = [s.cell.label for s in runner.stats] + [None]
    for label in labels:
        totals = tracer.layer_totals(label)
        traced = tracer.traced_ns(label)
        calls = totals.get("request", [0, 1])[1]
        if not traced:
            continue
        kernels = sum(v[0] for k, v in totals.items() if k.startswith("kernel."))
        shares = [totals.get(name, [0])[0] / traced for name in columns]
        print(f"{label or 'all cells':<34}{traced / calls / 1e6:>9.2f}"
              + "".join(f"{x:>9.1%}" for x in shares)
              + f"{kernels / traced:>9.1%}"
              + f"{totals.get('request', [0])[0] / traced:>8.1%}")


def run_workload(args) -> int:
    cells = set_up(args.workload, args.seed, args.tiny)
    import repro.obs.metrics as metrics_mod
    from layers import PER_LAYER, Tracer, entry_points
    from measure import Runner
    from repro.obs.runtime import sink_installed
    from repro.obs.sinks import InMemorySink

    runner = Runner(cells, args.seed, reference=not args.trace,
                    simulate=bool(args.trace))
    if args.trace:
        originals = entry_points()
        tracer = Tracer()
        sink = InMemorySink()
        metrics_mod.reset()

        def paired_call(stats):
            # untraced, then traced at once: both see the same host, so
            # their ratio is the tracing overhead
            runner.call(stats)
            with tracer.installed(), sink_installed(sink):
                runner.call(stats, tracer=tracer)
            sink.clear()

        rounds = runner.run_for(args.seconds, paired_call)
        counters = metrics_mod.REGISTRY.snapshot()["counters"]
        metrics_mod.reset()
        if entry_points() != originals:
            raise SystemExit("error: a layer wrapper outlived the traced run")
    else:
        setup_samples = [
            probe_setup(args.workload, args.seed, args.tiny)
            for _ in range(SETUP_PROBES)
        ]
        rounds = runner.run_for(args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  cells {len(cells)}  "
          f"rounds {rounds}{' untraced + traced' if args.trace else ''}  "
          f"calls {runner.attempted}  (closed loop, one caller)")
    print_cells(runner)
    if args.trace:
        metrics = per_layer(tracer, counters, runner)
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
        print()
        print_layers(tracer, runner)
        for s in runner.stats:
            if s.sim is not None and s.cell.contended:
                print(f"replay {s.cell.label}: max lateness "
                      f"{s.sim['max_lateness']}, late messages "
                      f"{s.sim['late_messages']}")
        trace_path = OUT / f"trace-{args.workload}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"trace.overhead {metrics['trace.overhead']:.3f}  "
              f"spans of the first {tracer.export_calls} calls -> "
              f"{trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(runner, setup_samples)
        units = END_TO_END
        pooled = [t for s in runner.stats for t in s.seconds]
        tail = _tail(pooled)
        print(f"latency over {len(pooled)} calls: p50 "
              f"{statistics.median(pooled) * 1e3:.2f} ms"
              + ("" if tail == "-" else f", {tail} ms"))
        print("set-up samples, wall (s): "
              + ", ".join(f"{wall:.3f}" for wall, _c in setup_samples)
              + "; at calibrated speed (s): "
              + ", ".join(f"{c:.3f}" for _wall, c in setup_samples))
    facts = quality(runner)
    print("quality: " + ", ".join(
        f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
        for k, v in facts.items()))
    for s in runner.stats:
        for message in s.failures[:3]:
            print(f"FAILED {s.cell.label}: {message}", file=sys.stderr)

    failed = runner.failed
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  **result, "quality": facts,
                  "call_seconds": {s.cell.label: s.seconds for s in runner.stats},
                  "relative": {s.cell.label: s.relative for s in runner.stats}}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    locate_engine()
    from inputs import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            argv += ["--record", str(Path(args.record).resolve())]
        if args.tiny:
            argv.append("--tiny")
        proc = _child(argv)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        print()
    print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20,
                        help="measured wall time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append a JSON record of the run here")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurement)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed, args.tiny)
        wall = time.perf_counter() - T0
        speed = (REF_BEFORE + reference_seconds()) / 2
        print(wall, wall * CALIBRATED_S / speed)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
