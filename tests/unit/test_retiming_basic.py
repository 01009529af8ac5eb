"""Unit tests for retiming fundamentals."""

import pytest

from repro.errors import IllegalRetimingError, RetimingError
from repro.graph import CSDFG, iteration_bound
from repro.retiming import (
    apply_retiming,
    compose_retimings,
    is_legal_retiming,
    normalize_retiming,
    retimed_delay,
    zero_retiming,
)


class TestApply:
    def test_identity(self, figure1):
        out = apply_retiming(figure1, zero_retiming(figure1))
        assert out.structurally_equal(figure1)

    def test_paper_figure1c(self, figure1):
        # Figure 1(c): retime A by +1
        out = apply_retiming(figure1, {"A": 1})
        assert out.delay("D", "A") == 2
        assert out.delay("A", "B") == 1
        assert out.delay("A", "C") == 1
        assert out.delay("A", "E") == 1
        assert out.delay("F", "E") == 1  # untouched

    def test_illegal_raises(self, figure1):
        with pytest.raises(IllegalRetimingError):
            apply_retiming(figure1, {"B": 1})  # A->B has no delay to draw

    def test_unknown_node_rejected(self, figure1):
        with pytest.raises(RetimingError, match="unknown"):
            apply_retiming(figure1, {"Z": 1})

    def test_cycle_delays_invariant(self, figure1):
        out = apply_retiming(figure1, {"A": 1})
        # cycle A->B->D->A keeps 3 delays; E->F->E keeps 1
        assert (
            out.delay("A", "B") + out.delay("B", "D") + out.delay("D", "A") == 3
        )
        assert out.delay("E", "F") + out.delay("F", "E") == 1

    def test_iteration_bound_invariant(self, figure1):
        out = apply_retiming(figure1, {"A": 1})
        assert iteration_bound(out) == iteration_bound(figure1)

    def test_illegal_names_the_first_offender(self, unsorted_preds):
        # a->c (1 - 2) is the first negative edge in edges() order;
        # b->c (0 - 2) is worse but comes later
        with pytest.raises(IllegalRetimingError) as info:
            apply_retiming(unsorted_preds, {"c": 2})
        assert str(info.value) == "edge 'a'->'c': retimed delay -1 < 0"

    def test_unknown_node_message(self, unsorted_preds):
        with pytest.raises(RetimingError) as info:
            apply_retiming(unsorted_preds, {"z": 1, "a": 0, "y": 2})
        assert not isinstance(info.value, IllegalRetimingError)
        assert str(info.value) == (
            "retiming mentions unknown nodes: ['z', 'y']"
        )

    def test_edge_order_matches_add_edge_loop(self, unsorted_preds):
        out = apply_retiming(unsorted_preds, {"a": 1})
        assert out.name == "unsorted:retimed"
        assert {v: [e.key for e in out.in_edges(v)] for v in out.nodes()} == {
            "a": [],
            "b": [("d", "b")],
            "c": [("a", "c"), ("b", "c")],
            "d": [("a", "d"), ("c", "d")],
        }
        assert {v: [e.key for e in out.out_edges(v)] for v in out.nodes()} == {
            "a": [("a", "c"), ("a", "d")],
            "b": [("b", "c")],
            "c": [("c", "d")],
            "d": [("d", "b")],
        }
        assert [(e.key, e.delay) for e in out.in_edges("c")] == [
            (("a", "c"), 2),
            (("b", "c"), 0),
        ]

    def test_unchanged_edges_are_shared(self, unsorted_preds):
        # identity guard: only edges whose delay changes are rebuilt
        g = unsorted_preds
        out = apply_retiming(g, {"a": 1, "b": 0}, name="r")
        assert out.name == "r"
        for key in (("b", "c"), ("c", "d"), ("d", "b")):
            assert out.edge(*key) is g.edge(*key)
        for key in (("a", "c"), ("a", "d")):
            assert out.edge(*key) is not g.edge(*key)
            assert out.delay(*key) == g.delay(*key) + 1
            assert out.volume(*key) == g.volume(*key)
        # the input keeps its delays, and the output is independent
        assert g.delay("a", "c") == 1
        out.set_delay("b", "c", 4)
        assert g.delay("b", "c") == 0

    def test_volumes_and_times_unchanged(self, figure1):
        out = apply_retiming(figure1, {"A": 1})
        assert out.volume("A", "B") == 1
        assert out.time("B") == 2


class TestLegality:
    def test_is_legal(self, figure1):
        assert is_legal_retiming(figure1, {"A": 1})
        assert not is_legal_retiming(figure1, {"B": 1})
        assert is_legal_retiming(figure1, {})

    def test_retimed_delay(self, figure1):
        assert retimed_delay(figure1, {"A": 1}, "D", "A") == 2
        assert retimed_delay(figure1, {"A": 1}, "A", "B") == 1
        assert retimed_delay(figure1, {}, "D", "A") == 3


class TestAlgebra:
    def test_normalize(self):
        assert normalize_retiming({"a": -2, "b": 1}) == {"a": 0, "b": 3}
        assert normalize_retiming({}) == {}

    def test_compose(self, figure1):
        r1, r2 = {"A": 1}, {"A": 1, "B": 1}
        once = apply_retiming(figure1, r1)
        twice = apply_retiming(once, r2)
        direct = apply_retiming(figure1, compose_retimings(r1, r2))
        assert twice.structurally_equal(direct)

    def test_zero_retiming_covers_nodes(self, figure7):
        z = zero_retiming(figure7)
        assert set(z) == set(figure7.nodes())
        assert all(v == 0 for v in z.values())
