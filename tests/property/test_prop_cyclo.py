"""Property tests: cyclo-compaction theorem-level guarantees.

* every intermediate and final schedule passes the validator,
* remapping without relaxation is monotone non-increasing
  (Theorem 4.4),
* the final length never exceeds the start-up length and never beats
  the iteration bound,
* the cumulative retiming exactly reproduces the final graph,
* the rank cache orders every rotated set like a fresh Kahn walk.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CycloConfig, cyclo_compact, start_up_schedule
from repro.core.cyclo import _TopoRankCache
from repro.core.remapping import remap_nodes
from repro.core.rotation import rotate_schedule, undo_rotation
from repro.graph import iteration_bound
from repro.graph.validation import topological_order_zero_delay
from repro.retiming import apply_retiming, normalize_retiming
from repro.schedule import collect_violations

from .conftest import architectures, csdfgs

FAST_RELAX = CycloConfig(
    relaxation=True, max_iterations=12, validate_each_step=True
)
FAST_STRICT = CycloConfig(
    relaxation=False, max_iterations=12, validate_each_step=True
)


class TestTheorem44:
    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=40, deadline=None)
    def test_without_relaxation_monotone(self, g, arch):
        result = cyclo_compact(g, arch, config=FAST_STRICT)
        lengths = result.trace.lengths
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))


class TestLegality:
    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=40, deadline=None)
    def test_final_schedule_legal(self, g, arch):
        # validate_each_step (on in FAST_* configs) already asserts all
        # intermediate schedules; re-check the returned best explicitly
        result = cyclo_compact(g, arch, config=FAST_RELAX)
        assert collect_violations(result.graph, arch, result.schedule) == []

    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=30, deadline=None)
    def test_final_never_worse_than_initial(self, g, arch):
        result = cyclo_compact(g, arch, config=FAST_RELAX)
        assert result.final_length <= result.initial_length

    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=30, deadline=None)
    def test_iteration_bound_respected(self, g, arch):
        result = cyclo_compact(g, arch, config=FAST_RELAX)
        assert result.final_length >= math.ceil(iteration_bound(g))


class TestRetimingBookkeeping:
    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=30, deadline=None)
    def test_cumulative_retiming_reproduces_graph(self, g, arch):
        result = cyclo_compact(g, arch, config=FAST_RELAX)
        rebuilt = apply_retiming(g, result.retiming)
        assert rebuilt.structurally_equal(result.graph)

    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=25, deadline=None)
    def test_retiming_nonnegative(self, g, arch):
        # rotation only ever retimes by +1, so the cumulative retiming
        # is already normalised
        result = cyclo_compact(g, arch, config=FAST_RELAX)
        assert all(r >= 0 for r in result.retiming.values())
        assert normalize_retiming(result.retiming) == {
            v: r - min(result.retiming.values())
            for v, r in result.retiming.items()
        }

    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=25, deadline=None)
    def test_input_graph_untouched(self, g, arch):
        snapshot = g.copy()
        cyclo_compact(g, arch, config=FAST_RELAX)
        assert g.structurally_equal(snapshot)


class TestPlacementRanks:
    @given(
        csdfgs(max_nodes=12),
        architectures(max_pes=8),
        st.lists(st.booleans(), min_size=1, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_cache_matches_fresh_walk(self, g, arch, undo_steps):
        # the calls _one_pass makes, except that a rolled-back step
        # does not end the sequence
        working = g.copy()
        schedule = start_up_schedule(working, arch)
        cache = _TopoRankCache()

        def check(rotated, rank):
            if rank is not None:
                members = set(rotated)
                assert sorted(rotated, key=rank.__getitem__) == [
                    v for v in topological_order_zero_delay(working)
                    if v in members
                ]
            if cache._index:
                fresh = _TopoRankCache()
                fresh._build(working)
                assert cache._rows == fresh._rows
                assert cache._indeg == fresh._indeg

        for undo in undo_steps:
            previous_length = schedule.length
            rotated, old_placements = rotate_schedule(working, schedule)
            rank = cache.ranks(working, rotated)
            check(rotated, rank)
            if undo:
                undo_rotation(
                    working, schedule, rotated, old_placements, previous_length
                )
                cache.note_rollback(working, rotated)
                check(rotated, None)
            else:
                remap_nodes(
                    working, arch, schedule, rotated,
                    previous_length=previous_length, relaxation=True,
                    topo_rank=rank, debug_check=True,
                )
