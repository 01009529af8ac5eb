"""Unit tests for the ScheduleTable structure."""

import pytest

from repro.errors import PlacementConflictError, ScheduleError
from repro.schedule import Placement, ScheduleTable


class TestPlacement:
    def test_finish(self):
        p = Placement("a", 0, 3, 2)
        assert p.finish == 4

    def test_shifted(self):
        p = Placement("a", 1, 3, 2).shifted(-1)
        assert p.start == 2 and p.pe == 1 and p.duration == 2

    def test_rejects_bad_fields(self):
        with pytest.raises(ScheduleError):
            Placement("a", 0, 0, 1)
        with pytest.raises(ScheduleError):
            Placement("a", 0, 1, 0)
        with pytest.raises(ScheduleError):
            Placement("a", -1, 1, 1)


class TestPlaceRemove:
    def test_place_and_accessors(self):
        t = ScheduleTable(2)
        t.place("a", 0, 1, 2)
        assert t.start("a") == 1
        assert t.finish("a") == 2
        assert t.processor("a") == 0
        assert t.cell(0, 2) == "a"
        assert t.cell(0, 3) is None
        assert "a" in t

    def test_length_grows(self):
        t = ScheduleTable(1)
        t.place("a", 0, 5, 3)
        assert t.length == 7
        assert t.makespan == 7

    def test_conflict_detected(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3)
        with pytest.raises(PlacementConflictError):
            t.place("b", 0, 3, 1)

    def test_double_place_rejected(self):
        t = ScheduleTable(2)
        t.place("a", 0, 1, 1)
        with pytest.raises(ScheduleError, match="already scheduled"):
            t.place("a", 1, 5, 1)

    def test_pe_out_of_range(self):
        t = ScheduleTable(2)
        with pytest.raises(ScheduleError):
            t.place("a", 2, 1, 1)

    def test_remove_frees_cells(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 2)
        removed = t.remove("a")
        assert removed.start == 1
        assert t.cell(0, 1) is None
        t.place("b", 0, 1, 2)  # no conflict now

    def test_remove_unscheduled_raises(self):
        with pytest.raises(ScheduleError):
            ScheduleTable(1).remove("ghost")

    def test_processor_map(self):
        t = ScheduleTable(2)
        t.place("a", 0, 1, 1)
        t.place("b", 1, 1, 1)
        assert t.processor_map() == {"a": 0, "b": 1}


class TestLengthControl:
    def test_set_length_pads(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 1)
        t.set_length(5)
        assert t.length == 5
        assert t.makespan == 1

    def test_set_length_cannot_cut(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3)
        with pytest.raises(ScheduleError):
            t.set_length(2)

    def test_trim(self):
        t = ScheduleTable(1, length=9)
        t.place("a", 0, 1, 2)
        t.trim()
        assert t.length == 2


class TestShift:
    def test_shift_all(self):
        t = ScheduleTable(2)
        t.place("a", 0, 2, 1)
        t.place("b", 1, 3, 2)
        t.shift_all(-1)
        assert t.start("a") == 1
        assert t.finish("b") == 3
        assert t.length == 3

    def test_shift_empty(self):
        t = ScheduleTable(1, length=4)
        t.shift_all(-1)
        assert t.length == 3


class TestSlotSearch:
    def test_is_free(self):
        t = ScheduleTable(1)
        t.place("a", 0, 3, 2)
        assert t.is_free(0, 1, 2)
        assert not t.is_free(0, 2, 2)
        assert not t.is_free(0, 4, 1)
        assert t.is_free(0, 5, 10)
        assert not t.is_free(0, 0, 1)  # control steps start at 1

    def test_earliest_slot_simple(self):
        t = ScheduleTable(1)
        t.place("a", 0, 2, 2)
        assert t.earliest_slot(0, 1, 1) == 1
        assert t.earliest_slot(0, 1, 2) == 4
        assert t.earliest_slot(0, 3, 1) == 4

    def test_earliest_slot_horizon(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 3)
        assert t.earliest_slot(0, 1, 2, horizon=4) is None
        assert t.earliest_slot(0, 1, 2, horizon=5) == 4

    def test_earliest_slot_unbounded_past_everything(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 1)
        assert t.earliest_slot(0, 100, 3) == 100

    def test_last_free_start_steps_back_over_spans(self):
        t = ScheduleTable(1)
        t.place("a", 0, 3, 2)  # cells 3..4
        t.place("b", 0, 6, 1)  # cell 6
        assert t.last_free_start(0, 1, 1, 9) == 9
        assert t.last_free_start(0, 1, 2, 6) == 1  # 5..6 and 2..3 blocked
        assert t.last_free_start(0, 2, 2, 6) is None
        assert t.last_free_start(0, 1, 1, 4) == 2
        assert t.last_free_start(0, -3, 1, 2) == 2  # floored at step 1
        assert t.last_free_start(0, 5, 1, 4) is None  # empty window
        assert t.last_free_start(4, 1, 3, 7) == 7  # out-of-range PE: free

    def test_last_free_start_at_nonzero_origin(self):
        t = ScheduleTable(1)
        t.place("a", 0, 5, 2)  # cells 5..6
        t.shift_all(-2)  # now cells 3..4
        assert t.last_free_start(0, 1, 2, 4) == 1
        assert t.last_free_start(0, 1, 2, 5) == 5
        assert t.last_free_start(0, 2, 2, 4) is None


class TestRowsAndViews:
    def test_first_row_pe_order(self):
        t = ScheduleTable(3)
        t.place("c", 2, 1, 1)
        t.place("a", 0, 1, 2)
        t.place("b", 1, 2, 1)
        assert t.first_row() == ["a", "c"]

    def test_row(self):
        t = ScheduleTable(2)
        t.place("a", 0, 1, 2)
        t.place("b", 1, 2, 1)
        assert t.row(2) == [(0, "a"), (1, "b")]

    def test_pe_tasks_sorted(self):
        t = ScheduleTable(1)
        t.place("b", 0, 4, 1)
        t.place("a", 0, 1, 2)
        assert [p.node for p in t.pe_tasks(0)] == ["a", "b"]

    def test_busy_cells(self):
        t = ScheduleTable(2)
        t.place("a", 0, 1, 3)
        t.place("b", 1, 1, 1)
        assert t.busy_cells(0) == 3
        assert t.busy_cells(1) == 1


class TestCopy:
    def test_copy_independent(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 1)
        c = t.copy()
        c.remove("a")
        assert "a" in t
        assert "a" not in c

    def test_same_placements(self):
        t = ScheduleTable(1)
        t.place("a", 0, 1, 1)
        c = t.copy()
        assert t.same_placements(c)
        c.remove("a")
        c.place("a", 0, 2, 1)
        assert not t.same_placements(c)


class TestInstrumentationTallies:
    def test_probes_count_index_queries(self):
        t = ScheduleTable(2)
        t.place("a", 0, 1, 2)
        assert t.probes == 0
        t.cell(0, 1)
        t.is_free(0, 3, 1)
        t.earliest_slot(0, 1, 1)
        t.last_free_start(0, 1, 1, 5)
        assert t.probes == 4
        t.cell(9, 1)  # out-of-range PE: answered without an index probe
        assert t.probes == 4

    def test_shifts_count_whole_table_moves(self):
        t = ScheduleTable(1)
        t.place("a", 0, 2, 1)
        t.shift_all(1)
        t.shift_all(-1)
        t.shift_all(0)  # no-op shift is not counted
        assert t.shifts == 2

    def test_copy_starts_from_fresh_tallies(self):
        t = ScheduleTable(1)
        t.place("a", 0, 2, 1)
        t.cell(0, 2)
        t.shift_all(1)
        c = t.copy()
        assert (t.probes, t.shifts) == (1, 1)
        assert (c.probes, c.shifts) == (0, 0)

    def test_publish_stats_lands_in_registry(self):
        from repro.obs import InMemorySink, metrics, sink_installed

        t = ScheduleTable(1)
        t.place("a", 0, 2, 1)
        t.cell(0, 2)
        t.cell(0, 1)
        t.shift_all(-1)
        with sink_installed(InMemorySink()):
            t.publish_stats()
        snap = metrics.snapshot()
        assert snap["counters"]["schedule.table.probes"] == 2
        assert snap["counters"]["schedule.table.shifts"] == 1


def _loop_build(num_pes, records, name="schedule"):
    """The table a :meth:`ScheduleTable.place` loop builds, or the error
    it raises, as ``(table, error)``."""
    table = ScheduleTable(num_pes, name=name)
    try:
        for record in records:
            table.place(*record)
    except Exception as exc:  # compared with the constructor's error
        return None, exc
    return table, None


def _bulk_build(num_pes, records, name="schedule"):
    """:meth:`ScheduleTable.from_placements` over ``records`` given as
    columns, as ``(table, error)``."""
    columns = [list(c) for c in zip(*records)] if records else [[]] * 5
    try:
        return ScheduleTable.from_placements(
            num_pes, *columns, order=range(len(records)), name=name
        ), None
    except Exception as exc:
        return None, exc


def _assert_same_build(num_pes, records):
    loop, loop_err = _loop_build(num_pes, records)
    bulk, bulk_err = _bulk_build(num_pes, records)
    assert type(bulk_err) is type(loop_err)
    assert str(bulk_err) == str(loop_err)
    if loop is not None:
        assert bulk.same_placements(loop)
        assert list(bulk.placements()) == list(loop.placements())
        assert bulk.makespan == loop.makespan
        assert [bulk.pe_tasks(pe) for pe in range(num_pes)] == [
            loop.pe_tasks(pe) for pe in range(num_pes)
        ]
        assert [bulk.busy_cells(pe) for pe in range(num_pes)] == [
            loop.busy_cells(pe) for pe in range(num_pes)
        ]


class TestFromPlacements:
    """The bulk constructor builds what a ``place()`` loop builds and
    rejects what it rejects, with the same error."""

    def test_sorted_records_append(self):
        records = [("a", 0, 1, 2, 2), ("b", 1, 1, 1, 1), ("c", 0, 3, 3, 1),
                   ("d", 0, 4, 1, 1), ("e", 1, 5, 2, 2)]
        _assert_same_build(2, records)
        table, _ = _bulk_build(2, records)
        assert [p.node for p in table.placements()] == list("abcde")
        assert table.length == table.makespan == 6
        assert table.cell(0, 3) == "c" and table.cell(0, 4) == "d"

    def test_order_selects_and_orders_records(self):
        table = ScheduleTable.from_placements(
            2, ["a", "b", "c"], [0, 0, 1], [3, 1, 1], [1, 2, 1],
            [1, 2, 1], order=[1, 2, 0], name="t",
        )
        assert [p.node for p in table.placements()] == ["b", "c", "a"]
        assert table.name == "t" and table.length == 3

    def test_rejects_overlap(self):
        # on the last span's steps, then straddling its end
        _assert_same_build(1, [("a", 0, 1, 3, 3), ("b", 0, 2, 1, 1)])
        _assert_same_build(1, [("a", 0, 1, 3, 3), ("b", 0, 3, 2, 2)])
        _, err = _bulk_build(1, [("a", 0, 1, 3, 3), ("b", 0, 3, 2, 2)])
        assert isinstance(err, PlacementConflictError)

    def test_out_of_order_starts(self):
        # a start before the PE's last span: rejected when it overlaps
        # an earlier span, accepted where place() accepts it
        _assert_same_build(1, [("a", 0, 1, 2, 2), ("b", 0, 6, 1, 1),
                               ("c", 0, 2, 1, 1)])
        _assert_same_build(1, [("a", 0, 1, 2, 2), ("b", 0, 6, 1, 1),
                               ("c", 0, 4, 2, 2)])
        table, _ = _bulk_build(1, [("a", 0, 1, 2, 2), ("b", 0, 6, 1, 1),
                                   ("c", 0, 4, 2, 2)])
        assert [p.node for p in table.pe_tasks(0)] == ["a", "c", "b"]
        _, err = _bulk_build(1, [("a", 0, 1, 2, 2), ("b", 0, 6, 1, 1),
                                 ("c", 0, 5, 2, 2)])
        assert isinstance(err, PlacementConflictError)

    def test_rejects_out_of_domain_fields(self):
        for bad in (("x", 2, 1, 1, 1), ("x", -1, 1, 1, 1),
                    ("x", 0, 0, 1, 1), ("x", 0, 1, 0, 0),
                    ("x", 0, 1, 2, 3), ("x", 0, 1, 2, 0)):
            records = [("a", 0, 1, 1, 1), bad]
            _assert_same_build(2, records)
            _, err = _bulk_build(2, records)
            assert isinstance(err, ScheduleError), bad

    def test_rejects_duplicate_node(self):
        _assert_same_build(2, [("a", 0, 1, 1, 1), ("a", 1, 2, 1, 1)])

    def test_random_records_match_the_place_loop(self):
        import random

        rng = random.Random(7)
        for _ in range(300):
            num_pes = rng.randint(1, 3)
            clock = [1] * num_pes
            records = []
            for k in range(rng.randint(0, 12)):
                pe = rng.randrange(num_pes)
                duration = rng.randint(1, 3)
                occupancy = rng.randint(1, duration)
                if rng.random() < 0.8:  # the start-up case: sorted spans
                    start = clock[pe] + rng.randint(0, 2)
                    clock[pe] = start + occupancy
                else:
                    start = rng.randint(0, 12)
                records.append((f"n{k}", pe, start, duration, occupancy))
            _assert_same_build(num_pes, records)


class TestStartupTable:
    """Start-up's bulk-loaded table equals the table a ``place()`` loop
    builds from the same records, on every registry workload."""

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_registry_workloads(self, monkeypatch, pipelined):
        from repro.arch import make_architecture
        from repro.core import start_up_schedule
        from repro.workloads import make_workload, workload_names

        built = []
        original = ScheduleTable.from_placements.__func__

        def spy(cls, num_pes, nodes, pes, starts, durations, occupancies,
                *, order, name="schedule"):
            table = original(cls, num_pes, nodes, pes, starts, durations,
                             occupancies, order=order, name=name)
            loop, err = _loop_build(num_pes, [
                (nodes[i], pes[i], starts[i], durations[i], occupancies[i])
                for i in order
            ], name)
            assert err is None
            built.append((table, loop))
            return table

        monkeypatch.setattr(ScheduleTable, "from_placements",
                            classmethod(spy))
        for name in workload_names():
            graph = make_workload(name)
            for kind, pes in (("mesh", 4), ("ring", 5)):
                arch = make_architecture(kind, pes)
                schedule = start_up_schedule(
                    graph, arch, pipelined_pes=pipelined,
                    pad_for_delayed_edges=False,
                )
                table, loop = built[-1]
                assert table is schedule
                assert table.same_placements(loop), (name, kind)
                assert list(table.placements()) == list(loop.placements())
                assert table.name == loop.name
        assert len(built) == 2 * len(workload_names())
