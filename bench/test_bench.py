"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.locate_engine()

import compare  # noqa: E402
import inputs  # noqa: E402
from layers import PER_LAYER, Tracer, entry_points  # noqa: E402
from measure import Runner  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    layers = {m["name"]: m for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    assert {n: (m["unit"], m["better"]) for n, m in layers.items()} == PER_LAYER
    assert len(e2e) <= 16 and len(layers) <= 128
    for name in [*e2e, *layers, *(w["name"] for w in SPEC["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_byte_stable_per_seed(workload):
    here = inputs.describe(inputs.build(workload, 11, tiny=True))
    again = inputs.describe(inputs.build(workload, 11, tiny=True))
    probe = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import inputs; sys.stdout.buffer.write("
        "inputs.describe(inputs.build(sys.argv[3], 11, tiny=True)))"
    )
    other = subprocess.run(
        [sys.executable, "-c", probe, str(run.SRC), str(run.BENCH), workload],
        capture_output=True, timeout=120, check=True,
    ).stdout
    assert here == again == other


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_differ_between_seeds(workload):
    def drawn(seed):
        cells = inputs.build(workload, seed, tiny=workload != "paper19")
        runner = Runner(cells, seed)
        return inputs.describe(cells), [runner.round_order() for _ in range(3)]

    (cells_a, order_a), (cells_b, order_b) = drawn(11), drawn(12)
    if workload == "paper19":
        # the paper's graph and machines are fixed; the seed orders the calls
        assert cells_a == cells_b and order_a != order_b
    else:
        assert cells_a != cells_b


def test_wrappers_exist_only_while_tracing():
    originals = entry_points()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(a is not b for a, b in zip(entry_points(), originals))
            raise RuntimeError("restore on error too")
    assert entry_points() == originals

    runner = Runner(inputs.build("contended", 11, tiny=True), 11)
    seen = []

    def untraced_call(stats):
        runner.call(stats)
        seen.append(entry_points() == originals)

    runner.run_round(untraced_call)
    assert seen and all(seen)
    assert not tracer.totals  # an uninstalled tracer records nothing


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_layer_self_times_sum_to_traced_total(workload):
    runner = Runner(inputs.build(workload, 11, tiny=True), 11)
    runner.run_round()
    tracer = Tracer()
    with tracer.installed():
        runner.run_round(lambda stats: runner.call(stats, tracer=tracer))
    assert runner.failed == 0
    metrics = run.per_layer(tracer, {}, runner)
    traced = tracer.traced_ns() / 1e9 / len(tracer.requests)
    layer_seconds = sum(
        value for name, value in metrics.items()
        if PER_LAYER[name][0] == "s" and name != "certify.s"
    ) + traced * sum(
        value for name, value in metrics.items()
        if name.endswith("share") and name != "startup.share"
    )
    assert abs(layer_seconds - traced) <= 0.05 * traced


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_succeeds(workload, trace):
    proc = _bench("--workload", workload, "--seed", "11", "--seconds", "0.3",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    if trace == "1":
        events = json.loads(
            (run.OUT / f"trace-{workload}.json").read_text())["traceEvents"]
        assert {e["args"]["request"] for e in events} >= {0}


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "paper19", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    flat = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = list(zip(flat, flat))
    assert compare.verdict(flat, flat, pairs, 0.1, True)[0] == "unchanged"
    slower = [v * 0.8 for v in flat]
    assert compare.verdict(flat, slower, list(zip(flat, slower)), 0.1, True)[0] == "worse"
    faster = [v * 1.05 for v in flat]
    assert compare.verdict(flat, faster, list(zip(flat, faster)), 0.1, True)[0] == "better"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(noisy, flat, list(zip(noisy, flat)), 0.1, True)[0] == "unresolved"
