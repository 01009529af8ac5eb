"""Unit tests for CSDFG structural validation."""

import pytest

from repro.errors import GraphValidationError
from repro.graph import (
    CSDFG,
    collect_issues,
    find_zero_delay_cycle,
    is_legal,
    topological_order_zero_delay,
    validate_csdfg,
)
from repro.graph.generators import random_csdfg
from repro.graph.validation import zero_delay_index


def make_zero_cycle():
    g = CSDFG("bad")
    g.add_nodes("abc")
    g.add_edge("a", "b", 0)
    g.add_edge("b", "c", 0)
    g.add_edge("c", "a", 0)
    return g


class TestZeroDelayCycle:
    def test_legal_graph_has_no_cycle(self, figure1):
        assert find_zero_delay_cycle(figure1) == []
        assert is_legal(figure1)

    def test_detects_cycle(self):
        g = make_zero_cycle()
        cycle = find_zero_delay_cycle(g)
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}
        assert not is_legal(g)

    def test_delayed_cycle_is_legal(self, tiny_loop):
        assert is_legal(tiny_loop)

    def test_self_zero_loop_detected(self):
        g = CSDFG()
        g.add_node("a")
        # zero-delay self loop is rejected at validation time
        g.add_edge("a", "a", 0)
        assert not is_legal(g)


class TestTopologicalOrder:
    def test_respects_zero_delay_edges(self, figure1):
        order = topological_order_zero_delay(figure1)
        pos = {v: i for i, v in enumerate(order)}
        for e in figure1.edges():
            if e.delay == 0:
                assert pos[e.src] < pos[e.dst]

    def test_raises_on_cycle(self):
        with pytest.raises(GraphValidationError, match="zero-delay cycle"):
            topological_order_zero_delay(make_zero_cycle())

    def test_covers_all_nodes(self, figure7):
        assert len(topological_order_zero_delay(figure7)) == 19


class TestZeroDelayOrder:
    """The integer rows and Kahn order that start-up, ASAP/ALAP and the
    rotated-set rank cache share."""

    def test_indexes_the_dict_walk(self):
        for seed in range(10):
            g = random_csdfg(4 + 3 * seed, seed=seed, edge_prob=0.3)
            nodes, rows, _producers, _volumes, order = zero_delay_index(g)
            assert nodes == list(g.nodes())
            for v, row in zip(nodes, rows):
                assert [nodes[j] for j in row] == [
                    e.dst for e in g.out_edges(v) if e.delay == 0
                ]
            assert [nodes[i] for i in order] == (
                topological_order_zero_delay(g)
            )

    def test_raises_the_dict_walks_error(self):
        with pytest.raises(GraphValidationError) as expected:
            topological_order_zero_delay(make_zero_cycle())
        with pytest.raises(GraphValidationError) as got:
            zero_delay_index(make_zero_cycle())
        assert got.value.issues == expected.value.issues


class TestCollectIssues:
    def test_clean_graph(self, figure1):
        assert collect_issues(figure1) == []

    def test_empty_graph_flagged(self):
        issues = collect_issues(CSDFG())
        assert any("no nodes" in i for i in issues)

    def test_empty_graph_allowed_when_requested(self):
        assert collect_issues(CSDFG(), require_nonempty=False) == []

    def test_disconnected_flagged_when_requested(self):
        g = CSDFG()
        g.add_nodes("ab")
        issues = collect_issues(g, require_weakly_connected=True)
        assert any("not weakly connected" in i for i in issues)

    def test_connected_ok(self, figure1):
        assert collect_issues(figure1, require_weakly_connected=True) == []

    def test_validate_raises_with_issue_list(self):
        with pytest.raises(GraphValidationError) as exc:
            validate_csdfg(make_zero_cycle())
        assert exc.value.issues

    def test_validate_passes(self, figure7):
        validate_csdfg(figure7, require_weakly_connected=True)
