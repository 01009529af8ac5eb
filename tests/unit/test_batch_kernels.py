"""Unit tests for the batch kernels (repro.core.kernels).

Each kernel is pinned on the input shapes the engine produces:
the once-per-hop-count cost memo, dead PEs left ``None``, integer
ceil division with negative slack, the zero-delay short-circuit,
empty inputs and degraded rows holding ``None``.

The kernels take any flat sequence of ints.  The engine hands them
python lists (cache rows, PSL gathers) and tuples (the
``arch.distance_matrix`` row behind every communication-cost row).
Every case runs once on lists (``[python]``) and once on tuples
(``[tuple]``), and must give the same answer.
"""

import pytest

from repro.core import kernels


@pytest.fixture(params=[list, tuple], ids=["python", "tuple"])
def seq(request):
    """Wrap a list of kernel input values in the container under test."""
    return request.param


class TestCommCostRow:
    def test_basic_row(self, seq):
        hops = seq([0, 1, 2, 3])
        row = kernels.comm_cost_row(hops, [0, 1, 2, 3], lambda h: 2 * h + 1, 4)
        assert row == [1, 3, 5, 7]

    def test_dead_pes_stay_none(self, seq):
        hops = seq([0, 5, 2, 9])
        row = kernels.comm_cost_row(hops, [0, 2], lambda h: h * h, 4)
        assert row == [0, None, 4, None]

    def test_cost_of_called_once_per_hop_count(self, seq):
        calls = []

        def cost_of(h):
            calls.append(h)
            return h + 10

        hops = seq([3, 1, 3, 1, 3, 2])
        row = kernels.comm_cost_row(hops, list(range(6)), cost_of, 6)
        assert row == [13, 11, 13, 11, 13, 12]
        assert sorted(calls) == [1, 2, 3]
        assert all(type(h) is int for h in calls)

    def test_empty_alive(self, seq):
        row = kernels.comm_cost_row(seq([1, 2]), [], lambda h: h, 2)
        assert row == [None, None]


class TestEdgeBounds:
    def test_delayed_edges_ceil_division(self, seq):
        # slack 7 over delay 2 -> ceil(3.5) = 4; negative slack floors
        bounds, bad = kernels.edge_bounds(
            seq([10, 0]), seq([2, 0]), seq([6, 30]), seq([2, 3])
        )
        assert bad is None
        assert bounds == [4, -9]

    def test_zero_delay_satisfied(self, seq):
        bounds, bad = kernels.edge_bounds(seq([3]), seq([1]), seq([5]), seq([0]))
        assert (bounds, bad) == ([0], None)

    def test_zero_delay_violation_short_circuits(self, seq):
        bounds, bad = kernels.edge_bounds(
            seq([0, 9, 9]), seq([0, 0, 0]), seq([5, 5, 5]), seq([1, 0, 0])
        )
        assert bounds == [] and bad == 1

    def test_empty(self, seq):
        assert kernels.edge_bounds(seq([]), seq([]), seq([]), seq([])) == (
            [],
            None,
        )


class TestFolds:
    def test_fold_max(self, seq):
        rows = [(seq([1, 5, 2]), 3), (seq([4, 0, 0]), 1)]
        assert kernels.fold_max(rows, [0, 1, 2], 2) == [5, 8, 5]

    def test_fold_max_empty_rows_gives_base(self, seq):
        assert kernels.fold_max([], seq([0, 1]), 7) == [7, 7]

    def test_fold_min(self, seq):
        rows = [(seq([1, 5, 2]), 3), (seq([4, 0, 0]), 10)]
        assert kernels.fold_min(rows, [0, 1, 2]) == [2, -2, 1]

    def test_fold_subset_of_pes(self, seq):
        rows = [(seq([9, 1, 9, 1]), 0)]
        assert kernels.fold_max(rows, seq([1, 3]), 0) == [1, 1]
        assert kernels.fold_min(rows, seq([3, 1])) == [-1, -1]

    def test_degraded_rows_with_none(self, seq):
        # dead PE 1 holds None and is excluded from the gather
        rows = [(seq([4, None, 2]), 5), (seq([0, None, 7]), 0)]
        assert kernels.fold_max(rows, [0, 2], 1) == [9, 7]
        assert kernels.fold_min(rows, [0, 2]) == [0, -7]
