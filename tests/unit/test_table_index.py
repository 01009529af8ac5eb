"""Randomized equivalence: interval-indexed table vs naive reference.

The interval-indexed :class:`~repro.schedule.table.ScheduleTable`
replaced the original per-cell dict table, which is preserved verbatim
as :class:`~repro.perf.reference.ReferenceScheduleTable`.  This suite
drives both through the same random operation sequences (200 seeds)
and asserts every observable — cells, rows, slots (forward and
backward), placements in iteration order, counters, lengths, and
raised errors — coincides at every step.  The fast table stores steps
against a moving origin (a shift only moves the origin), so the random
shifts also exercise every query at non-zero origins.
"""

import random

import pytest

from repro.errors import PlacementConflictError, ScheduleError
from repro.perf.reference import ReferenceScheduleTable
from repro.schedule.table import ScheduleTable

NODES = [f"n{i}" for i in range(12)]
ERRORS = (ScheduleError, PlacementConflictError)


def _observable_state(table, num_pes, window=24):
    """Everything a caller can see, as one comparable structure."""
    grid = {
        (pe, cs): table.cell(pe, cs)
        for pe in range(-1, num_pes + 1)
        for cs in range(1, window + 1)
    }
    placements = {
        n: (p.pe, p.start, p.duration, p.occupancy)
        for n, p in ((n, table.placement(n)) for n in table.nodes())
    }
    return {
        "iteration": [
            (p.node, p.pe, p.start, p.duration, p.occupancy)
            for p in table.placements()
        ],
        "length": table.length,
        "makespan": table.makespan,
        "num_tasks": table.num_tasks,
        "placements": placements,
        "grid": grid,
        "busy": [table.busy_cells(pe) for pe in range(-1, num_pes + 1)],
        "first_row": table.first_row(),
        "rows": {cs: table.row(cs) for cs in range(1, window + 1)},
        "pe_tasks": {
            pe: [(p.node, p.start) for p in table.pe_tasks(pe)]
            for pe in range(num_pes)
        },
    }


def _run_op(table, op, params):
    """Apply one op; return ("ok", result) or ("err", type, message)."""
    try:
        if op == "place":
            p = table.place(*params)
            return ("ok", (p.node, p.pe, p.start, p.duration, p.occupancy))
        if op == "remove":
            p = table.remove(params)
            return ("ok", (p.node, p.pe, p.start, p.duration, p.occupancy))
        if op == "shift":
            table.shift_all(params)
            return ("ok", None)
        if op == "set_length":
            table.set_length(params)
            return ("ok", None)
        if op == "trim":
            table.trim()
            return ("ok", None)
        raise AssertionError(op)
    except ERRORS as exc:
        return ("err", type(exc).__name__, str(exc))


def _random_op(rng, num_pes):
    roll = rng.random()
    if roll < 0.55:
        duration = rng.randint(1, 4)
        occupancy = rng.choice([None, 1, duration, rng.randint(1, 5)])
        return (
            "place",
            (
                rng.choice(NODES),
                rng.randint(-1, num_pes),  # sometimes out of range
                rng.randint(-1, 14),  # sometimes illegal (< 1)
                duration,
                occupancy,
            ),
        )
    if roll < 0.75:
        return ("remove", rng.choice(NODES))
    if roll < 0.85:
        return ("shift", rng.randint(-3, 3))
    if roll < 0.93:
        return ("set_length", rng.randint(0, 20))
    return ("trim", None)


def _random_query(rng, num_pes):
    """``(pe, not_before, duration, horizon, cs)`` for the slot queries."""
    pe = rng.randint(-1, num_pes)
    not_before = rng.randint(1, 12)
    duration = rng.randint(1, 4)
    horizon = rng.choice([None, rng.randint(1, 25)])
    return pe, not_before, duration, horizon, rng.randint(-1, 20)


@pytest.mark.parametrize("seed", range(200))
def test_random_op_sequences_match_reference(seed):
    rng = random.Random(seed)
    num_pes = rng.randint(1, 5)
    fast = ScheduleTable(num_pes)
    ref = ReferenceScheduleTable(num_pes)
    for _ in range(40):
        op, params = _random_op(rng, num_pes)
        got_fast = _run_op(fast, op, params)
        got_ref = _run_op(ref, op, params)
        assert got_fast == got_ref, (seed, op, params)
        assert _observable_state(fast, num_pes) == _observable_state(
            ref, num_pes
        ), (seed, op, params)
        # slot queries against the current state
        pe, not_before, duration, horizon, cs = _random_query(rng, num_pes)
        assert fast.earliest_slot(
            pe, not_before, duration, horizon=horizon
        ) == ref.earliest_slot(pe, not_before, duration, horizon=horizon)
        for at_most in range(-1, 26):
            assert fast.last_free_start(
                pe, not_before, duration, at_most
            ) == ref.last_free_start(pe, not_before, duration, at_most)
        assert fast.is_free(pe, cs, duration) == ref.is_free(pe, cs, duration)
        assert fast.same_placements(ref.copy())
        assert ref.same_placements(fast.copy())


def test_random_op_sequences_reach_nonzero_origins():
    # the equivalence suite above only covers the origin logic if its
    # sequences actually shift placed tables; count the steps that do
    nonzero = 0
    for seed in range(200):
        rng = random.Random(seed)
        num_pes = rng.randint(1, 5)
        table = ScheduleTable(num_pes)
        for _ in range(40):
            _run_op(table, *_random_op(rng, num_pes))
            _placements, origin = table.stored_placements()
            if origin and table.num_tasks:
                nonzero += 1
            _random_query(rng, num_pes)  # keep the suite's draw order
    assert nonzero > 1000


def test_copy_preserves_observable_state():
    rng = random.Random(1234)
    fast = ScheduleTable(4)
    ref = ReferenceScheduleTable(4)
    for _ in range(30):
        op, params = _random_op(rng, 4)
        _run_op(fast, op, params)
        _run_op(ref, op, params)
    assert _observable_state(fast.copy(), 4) == _observable_state(
        ref.copy(), 4
    )
    # copies are independent of their originals
    clone = fast.copy()
    clone.place("fresh", 0, 30, 2)
    assert "fresh" not in fast


def test_busy_cells_counts_occupancy_not_duration():
    table = ScheduleTable(2)
    table.place("a", 0, 1, 4, 1)  # pipelined: blocks one step
    table.place("b", 0, 2, 3)
    assert table.busy_cells(0) == 1 + 3
    assert table.busy_cells(1) == 0
    assert table.busy_cells(7) == 0  # out of range reads as empty
    table.remove("b")
    assert table.busy_cells(0) == 1


def test_row_reports_pe_order():
    table = ScheduleTable(3)
    table.place("c", 2, 1, 2)
    table.place("a", 0, 1, 1)
    table.place("b", 1, 2, 2)
    assert table.row(1) == [(0, "a"), (2, "c")]
    assert table.row(2) == [(1, "b"), (2, "c")]
    assert table.first_row() == ["a", "c"]


@pytest.mark.parametrize("table_cls", [ScheduleTable, ReferenceScheduleTable])
def test_illegal_shift_leaves_table_intact(table_cls):
    table = table_cls(2)
    table.place("a", 0, 2, 2)
    table.place("b", 1, 3, 1)
    before = _observable_state(table, 2)
    with pytest.raises(ScheduleError):
        table.shift_all(-5)
    assert _observable_state(table, 2) == before


@pytest.mark.parametrize("table_cls", [ScheduleTable, ReferenceScheduleTable])
def test_illegal_shift_after_legal_shifts(table_cls):
    # both tasks would drop below step 1; the error names the first one
    # in insertion order ("late"), not the one with the smallest start
    table = table_cls(2)
    table.place("late", 0, 6, 1)
    table.place("early", 1, 4, 2)
    table.shift_all(-2)
    table.shift_all(-1)
    before = _observable_state(table, 2)
    with pytest.raises(ScheduleError) as info:
        table.shift_all(-4)
    assert str(info.value) == "'late': control steps start at 1, got -1"
    assert _observable_state(table, 2) == before
    assert table.first_row() == ["early"]


def test_shifting_a_copy_leaves_the_original():
    table = ScheduleTable(2)
    table.place("a", 0, 3, 1)
    table.place("b", 1, 5, 2)
    table.shift_all(-1)
    before = _observable_state(table, 2)
    clone = table.copy()
    clone.shift_all(-1)
    clone.place("c", 0, 2, 1)
    assert _observable_state(table, 2) == before
    assert clone.start("a") == 1 and clone.start("b") == 3
    table.shift_all(+3)
    assert clone.start("a") == 1 and clone.start("b") == 3
    assert table.start("a") == 5


def test_shift_leaves_stored_placements_unrebuilt():
    # a shift moves the origin only: the stored records are the same
    # objects before and after, so an O(V) shift cannot creep back
    table = ScheduleTable(3)
    for i in range(9):
        table.place(f"n{i}", i % 3, 2 + i, 1)
    stored, origin = table.stored_placements()
    records = dict(stored)
    table.shift_all(-1)
    table.shift_all(+2)
    stored_after, origin_after = table.stored_placements()
    assert origin_after == origin + 1
    assert all(stored_after[n] is p for n, p in records.items())
    # handed-out placements carry absolute starts
    assert [p.start for p in table.placements()] == list(range(3, 12))
