"""Unit tests for the CSDFG structure."""

import pytest

from repro.errors import GraphError
from repro.graph import CSDFG, Edge


class TestConstruction:
    def test_add_node_and_time(self):
        g = CSDFG()
        g.add_node("a", 3)
        assert g.time("a") == 3
        assert "a" in g
        assert g.num_nodes == 1

    def test_default_time_is_one(self):
        g = CSDFG()
        g.add_node("a")
        assert g.time("a") == 1

    def test_readd_node_updates_time(self):
        g = CSDFG()
        g.add_node("a", 1)
        g.add_node("a", 5)
        assert g.time("a") == 5
        assert g.num_nodes == 1

    def test_nonpositive_time_rejected(self):
        g = CSDFG()
        with pytest.raises(GraphError):
            g.add_node("a", 0)

    def test_add_nodes_bulk(self):
        g = CSDFG()
        g.add_nodes("abc", time=2)
        assert g.num_nodes == 3
        assert all(g.time(n) == 2 for n in "abc")

    def test_add_edge_requires_nodes(self):
        g = CSDFG()
        g.add_node("a")
        with pytest.raises(GraphError, match="unknown node"):
            g.add_edge("a", "b")

    def test_duplicate_edge_rejected(self):
        g = CSDFG()
        g.add_nodes("ab")
        g.add_edge("a", "b")
        with pytest.raises(GraphError, match="duplicate"):
            g.add_edge("a", "b")

    def test_negative_delay_rejected(self):
        g = CSDFG()
        g.add_nodes("ab")
        with pytest.raises(GraphError):
            g.add_edge("a", "b", delay=-1)

    def test_zero_volume_rejected(self):
        g = CSDFG()
        g.add_nodes("ab")
        with pytest.raises(GraphError):
            g.add_edge("a", "b", volume=0)

    def test_self_loop_allowed_with_delay(self):
        g = CSDFG()
        g.add_node("a")
        e = g.add_edge("a", "a", delay=1)
        assert e.src == e.dst == "a"


class TestQueries:
    def test_edge_accessors(self, figure1):
        assert figure1.delay("D", "A") == 3
        assert figure1.volume("D", "A") == 3
        assert figure1.delay("A", "B") == 0
        assert figure1.has_edge("F", "E")
        assert not figure1.has_edge("E", "A")

    def test_missing_edge_raises(self, figure1):
        with pytest.raises(GraphError, match="no edge"):
            figure1.edge("E", "A")

    def test_degrees(self, figure1):
        assert figure1.out_degree("A") == 3
        assert figure1.in_degree("E") == 4  # A, B, C, F

    def test_predecessors_successors(self, figure1):
        assert set(figure1.successors("A")) == {"B", "C", "E"}
        assert set(figure1.predecessors("F")) == {"D", "E"}

    def test_roots_ignore_delayed_edges(self, figure1):
        # A's only in-edge (D -> A) carries 3 delays
        assert figure1.roots() == ["A"]

    def test_total_work(self, figure1):
        assert figure1.total_work() == 8  # 4*1 + 2*2

    def test_num_edges(self, figure1):
        assert figure1.num_edges == 10

    def test_len_and_iter(self, figure1):
        assert len(figure1) == 6
        assert sorted(figure1.nodes()) == list("ABCDEF")

    def test_unknown_node_queries_raise(self):
        g = CSDFG()
        with pytest.raises(GraphError):
            g.time("ghost")
        with pytest.raises(GraphError):
            list(g.successors("ghost"))
        with pytest.raises(GraphError):
            list(g.in_edges("ghost"))


class TestMutation:
    def test_set_delay(self, figure1):
        figure1.set_delay("D", "A", 1)
        assert figure1.delay("D", "A") == 1
        # volume untouched
        assert figure1.volume("D", "A") == 3

    def test_remove_edge(self, figure1):
        figure1.remove_edge("A", "B")
        assert not figure1.has_edge("A", "B")
        assert figure1.num_edges == 9

    def test_remove_missing_edge_raises(self, figure1):
        with pytest.raises(GraphError):
            figure1.remove_edge("B", "A")

    def test_remove_node_drops_incident_edges(self, figure1):
        figure1.remove_node("E")
        assert "E" not in figure1
        assert not figure1.has_edge("F", "E")
        assert not figure1.has_edge("B", "E")
        assert figure1.num_edges == 5

    def test_remove_unknown_node_raises(self, figure1):
        with pytest.raises(GraphError):
            figure1.remove_node("Z")


class TestCopies:
    def test_copy_is_deep(self, figure1):
        clone = figure1.copy()
        clone.set_delay("D", "A", 0)
        assert figure1.delay("D", "A") == 3

    def test_structurally_equal(self, figure1):
        assert figure1.structurally_equal(figure1.copy())
        other = figure1.copy()
        other.set_delay("D", "A", 2)
        assert not figure1.structurally_equal(other)

    def test_relabel(self, figure1):
        mapped = figure1.relabel({"A": "alpha"})
        assert "alpha" in mapped
        assert mapped.delay("D", "alpha") == 3
        assert "A" not in mapped

    def test_relabel_must_be_injective(self, figure1):
        with pytest.raises(GraphError, match="injective"):
            figure1.relabel({"A": "B"})

    def test_zero_delay_subgraph(self, figure1):
        sub = figure1.zero_delay_subgraph()
        assert sub.num_nodes == 6
        assert sub.num_edges == 8  # drops D->A and F->E
        assert not sub.has_edge("D", "A")


    def test_structurally_equal_rejects_non_graphs(self, figure1):
        # a truthy NotImplemented would make `if g.structurally_equal(x)`
        # pass for any foreign object
        assert figure1.structurally_equal(5) is False
        assert figure1.structurally_equal(None) is False


def adjacency(g):
    return (
        {v: [e.key for e in g.in_edges(v)] for v in g.nodes()},
        {v: [e.key for e in g.out_edges(v)] for v in g.nodes()},
    )


class TestClones:
    # the order an add_edge loop over edges() (grouped by source, in
    # node order) gives the copy: a's out-edges land first everywhere
    IN_ORDER = {
        "a": [],
        "b": [("d", "b")],
        "c": [("a", "c"), ("b", "c")],
        "d": [("a", "d"), ("c", "d")],
    }
    OUT_ORDER = {
        "a": [("a", "c"), ("a", "d")],
        "b": [("b", "c")],
        "c": [("c", "d")],
        "d": [("d", "b")],
    }

    def test_original_order_is_insertion_order(self, unsorted_preds):
        ins, _outs = adjacency(unsorted_preds)
        assert ins["c"] == [("b", "c"), ("a", "c")]

    def test_copy_order_matches_add_edge_loop(self, unsorted_preds):
        clone = unsorted_preds.copy()
        assert list(clone.nodes()) == ["a", "b", "c", "d"]
        assert adjacency(clone) == (self.IN_ORDER, self.OUT_ORDER)
        assert [e.key for e in clone.edges()] == [
            ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d"), ("d", "b"),
        ]

    def test_copy_shares_edges(self, unsorted_preds):
        g = unsorted_preds
        clone = g.copy("twin")
        assert clone.name == "twin" and g.copy().name == "unsorted"
        for edge in g.edges():
            assert clone.edge(edge.src, edge.dst) is edge

    def test_set_delay_on_copy_leaves_original(self, unsorted_preds):
        g = unsorted_preds
        shared = g.edge("a", "c")
        clone = g.copy()
        clone.set_delay("a", "c", 5)
        assert g.delay("a", "c") == 1 and g.edge("a", "c") is shared
        assert [e.delay for e in g.in_edges("c")] == [0, 1]
        assert [e.delay for e in clone.in_edges("c")] == [5, 0]
        clone.add_node("e")
        clone.add_edge("e", "a")
        clone.remove_edge("b", "c")
        assert "e" not in g and g.has_edge("b", "c")
        assert g.in_degree("a") == 0

    def test_copy_of_copy_keeps_order(self, unsorted_preds):
        twice = unsorted_preds.copy().copy()
        assert adjacency(twice) == (self.IN_ORDER, self.OUT_ORDER)
        assert twice.structurally_equal(unsorted_preds)


class TestEdgeDataclass:
    def test_key_and_with_delay(self):
        e = Edge("a", "b", 2, 3)
        assert e.key == ("a", "b")
        e2 = e.with_delay(0)
        assert e2.delay == 0 and e2.volume == 3
        # original untouched (frozen)
        assert e.delay == 2
