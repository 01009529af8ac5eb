"""The deterministic process-pool driver (`repro.perf.parallel`)."""

import os
import time

import pytest

from repro.errors import ReproError, WorkerCrashedError
from repro.obs import (
    InMemorySink,
    install_sink,
    metrics,
    remove_sink,
)
from repro.perf.parallel import run_parallel


def _square(x):
    return x * x


def _die_on_four(x):
    if x == 4:
        os._exit(13)  # hard interpreter death, not an exception
    time.sleep(0.02)  # let earlier items land before the crash surfaces
    return x * x


def _record(x):
    metrics.inc("parallel.test.calls")
    metrics.observe("parallel.test.value", float(x))
    return x


def _slow_identity(x):
    time.sleep(0.05)
    return x


def test_serial_equals_parallel():
    items = list(range(20))
    assert run_parallel(_square, items, jobs=1) == run_parallel(
        _square, items, jobs=4
    )


def _sleep_then_echo(seconds):
    time.sleep(seconds)
    return seconds


def test_results_in_item_order():
    # run times fall along the items, so the workers finish in reverse
    # item order: a harvest in completion order cannot pass by chance
    items = [0.15, 0.10, 0.05, 0.0]
    assert run_parallel(_sleep_then_echo, items, jobs=4) == items


def test_empty_items():
    assert run_parallel(_square, [], jobs=1) == []
    assert run_parallel(_square, [], jobs=4) == []


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        run_parallel(_square, [1], jobs=0)


def test_budget_returns_prefix():
    items = list(range(50))
    got = run_parallel(
        _slow_identity, items, jobs=2, time_budget_seconds=0.12
    )
    assert 0 < len(got) < len(items)
    assert got == items[: len(got)]


def test_budget_prefix_serial():
    items = list(range(50))
    got = run_parallel(
        _slow_identity, items, jobs=1, time_budget_seconds=0.12
    )
    assert 0 < len(got) < len(items)
    assert got == items[: len(got)]


def test_killed_worker_raises_typed_error_with_completed_prefix():
    items = list(range(8))
    with pytest.raises(WorkerCrashedError) as excinfo:
        run_parallel(_die_on_four, items, jobs=2)
    err = excinfo.value
    assert isinstance(err, ReproError)  # catchable with the base class
    # results popped before the crash surfaced, in item order: always a
    # prefix, and never anything at or past the item that died
    expected = [x * x for x in items]
    assert err.completed == expected[: len(err.completed)]
    assert len(err.completed) <= 4
    assert "worker process died" in str(err)


def test_fn_exceptions_propagate_unwrapped():
    with pytest.raises(ValueError):
        run_parallel(_raise_on_two, [1, 2, 3], jobs=2)


def _raise_on_two(x):
    if x == 2:
        raise ValueError("bad item 2")
    return x


def test_worker_metrics_merge_into_parent():
    sink = InMemorySink()
    metrics.reset()
    install_sink(sink)
    try:
        run_parallel(_record, [1, 2, 3, 4, 5, 6], jobs=3)
        snap = metrics.snapshot()
    finally:
        remove_sink(sink)
    assert snap["counters"]["parallel.test.calls"] == 6
    hist = snap["histograms"]["parallel.test.value"]
    assert hist["count"] == 6
    assert hist["min"] == 1.0
    assert hist["max"] == 6.0
    assert hist["total"] == pytest.approx(21.0)


def test_no_metrics_shipped_when_obs_disabled():
    metrics.reset()
    run_parallel(_record, [1, 2, 3], jobs=2)
    snap = metrics.snapshot()
    # workers ran with their own registries; nothing merged back
    assert "parallel.test.calls" not in snap["counters"]
