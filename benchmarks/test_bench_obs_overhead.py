"""Tier-2 guard: the observability layer is free when switched off.

Every hot path of the optimiser is annotated with spans and counters
(see ``src/repro/obs``); with no sink installed each annotation is one
flag check.  This guard demonstrates, on the paper's 19-node workload
on the hypercube, that the *disabled* instrumentation costs < 1% of a
``cyclo_compact`` run:

1. run the optimiser instrumented (in-memory sink) and count **every
   call** it makes into the metrics facade — the module helpers are
   shimmed with counting wrappers, so a single ``inc(name, 5)`` is
   charged as one call, not five,
2. count spans exactly from the sink (one recorded span == one
   ``span()`` call plus a no-op ``__enter__``/``__exit__`` pair when
   disabled; charged as three operations to stay conservative),
3. measure the per-operation cost of the disabled fast path directly,
4. assert ``operations x per-op cost`` is under the 1% budget of the
   measured (sink-free) run time.

The budget arithmetic is deliberately used instead of a raw A/B wall-
clock comparison: the disabled path cannot be toggled out of the code
at runtime, and two timed runs of the same function routinely differ
by more than 1% on shared CI hardware, so a naive comparison would be
flaky while this bound is stable *and* strictly conservative (it
charges every operation the full measured no-op cost).

Note the unconditional hot-object tallies (``CommCostCache.hits``,
``ScheduleTable.probes``, ...) are plain integer adds that exist with
or without observability — they are part of the baseline, not
overhead, and ``publish_stats`` folds them into the registry with a
handful of calls per *run*, all counted here.
"""

from time import perf_counter_ns

from _report import write_report

from repro.arch import paper_architectures
from repro.core import CycloConfig, cyclo_compact
from repro.obs import InMemorySink, enabled, metrics, sink_installed, span
from repro.workloads import figure7_csdfg

CFG = CycloConfig(max_iterations=60, validate_each_step=False)

#: The metrics-facade entry points the instrumented packages call.
FACADE = ("inc", "observe", "set_gauge")


def _run_once(graph, arch):
    return cyclo_compact(graph, arch, config=CFG)


def _min_wall_ns(fn, repeats=5):
    best = None
    for _ in range(repeats):
        t0 = perf_counter_ns()
        fn()
        dt = perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best


def _counting_shims():
    """Wrap the metrics facade in exact call counters.

    The instrumented modules bind the *module* (``from repro.obs
    import metrics``) and resolve ``metrics.inc`` per call, so
    rebinding the module attribute intercepts every invocation.
    Returns ``(counts, restore)``.
    """
    counts = {name: 0 for name in FACADE}
    originals = {name: getattr(metrics, name) for name in FACADE}

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in originals.items():
        setattr(metrics, name, wrap(name, fn))

    def restore():
        for name, fn in originals.items():
            setattr(metrics, name, fn)

    return counts, restore


def test_obs_disabled_overhead_under_1_percent():
    graph = figure7_csdfg()
    arch = paper_architectures(8)["hyp"]
    assert not enabled()

    # 1+2. exact instrumentation call counts for one run
    sink = InMemorySink()
    metrics.reset()
    counts, restore = _counting_shims()
    try:
        with sink_installed(sink):
            instrumented = _run_once(graph, arch)
    finally:
        restore()
    span_count = len(sink.spans())
    facade_calls = sum(counts.values())
    metrics.reset()
    assert span_count > 0 and counts["inc"] > 0

    # 3. per-operation cost of the disabled fast path
    n = 100_000
    t0 = perf_counter_ns()
    for _ in range(n):
        span("probe")
    span_cost = (perf_counter_ns() - t0) / n

    t0 = perf_counter_ns()
    for _ in range(n):
        metrics.inc("probe")
        metrics.observe("probe", 1.0)
        metrics.set_gauge("probe", 1)
    facade_cost = (perf_counter_ns() - t0) / (3 * n)
    assert not enabled()
    metrics.reset()

    # 4. total disabled overhead vs. the sink-free run time
    overhead_ns = span_count * 3 * span_cost + facade_calls * facade_cost
    run_ns = _min_wall_ns(lambda: _run_once(graph, arch))
    ratio = overhead_ns / run_ns
    write_report(
        "obs_overhead",
        f"19-node workload on hypercube, {CFG.max_iterations} passes\n"
        f"spans/run: {span_count}, facade calls/run: {facade_calls} "
        f"(inc {counts['inc']}, observe {counts['observe']}, "
        f"set_gauge {counts['set_gauge']})\n"
        f"disabled span() cost: {span_cost:.1f} ns, "
        f"disabled facade cost: {facade_cost:.1f} ns\n"
        f"run (no sink): {run_ns / 1e6:.2f} ms, "
        f"bounded overhead: {overhead_ns / 1e6:.4f} ms "
        f"({ratio * 100:.3f}%)",
        host_timed=True,
    )
    assert ratio < 0.01, (
        f"disabled instrumentation bound {ratio * 100:.2f}% exceeds the "
        f"1% budget ({span_count} spans, {facade_calls} facade calls, "
        f"run {run_ns / 1e6:.1f} ms)"
    )
    # sanity: the instrumented run still converged to the same length
    plain = _run_once(graph, arch)
    assert plain.final_length == instrumented.final_length


def test_no_optional_dependency_group_needed():
    """pyproject.toml needs no extra for observability: repro.obs is
    stdlib-only (pinned in tests/unit/test_obs_stdlib.py) and always
    importable."""
    import repro.obs  # noqa: F401

    import tomllib
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    extras = data.get("project", {}).get("optional-dependencies", {})
    assert "obs" not in extras and "observability" not in extras
