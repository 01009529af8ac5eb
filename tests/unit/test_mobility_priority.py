"""Unit tests for mobility and the start-up priority function PF.

A priority returns a key ``(a, b)``; its score at control step ``cs``
is ``a + b * cs`` (:func:`score`).
"""

from repro.core import (
    fifo_priority,
    mobility,
    mobility_map,
    paper_priority,
    volume_only_priority,
)
from repro.core.priority import mobility_only_priority


def score(priority, graph, alap, finish, node, cs):
    """``priority``'s score for ``node`` at control step ``cs``."""
    a, b = priority(graph, alap, finish, node)
    return a + b * cs


class TestMobility:
    def test_alap_based(self, figure1):
        alap = mobility_map(figure1)
        # critical-path nodes have no slack at their ALAP slot
        assert mobility(alap, "B", 2) == 0
        assert mobility(alap, "C", 2) == 1  # C can wait one step

    def test_goes_negative_when_overdue(self, figure1):
        alap = mobility_map(figure1)
        assert mobility(alap, "B", 4) < 0


class TestPaperPriority:
    def test_b_before_c_at_cs2(self, figure1):
        # the paper's walk-through: B outranks C at control step 2
        alap = mobility_map(figure1)
        finish = {"A": 1}
        pf_b = score(paper_priority, figure1, alap, finish, "B", 2)
        pf_c = score(paper_priority, figure1, alap, finish, "C", 2)
        assert pf_b > pf_c

    def test_root_scores_inverse_mobility(self, figure1):
        alap = mobility_map(figure1)
        assert score(paper_priority, figure1, alap, {}, "A", 1) == (
            -mobility(alap, "A", 1)
        )

    def test_volume_raises_priority(self, figure1):
        # E receives volume 2 from B but volume 1 from C
        alap = mobility_map(figure1)
        f1 = {"A": 1, "B": 3, "C": 3}
        pf = score(paper_priority, figure1, alap, f1, "E", 4)
        # dominated by the max over producers: B's volume-2 edge
        assert pf >= 2 - (4 - (3 + 1)) - mobility(alap, "E", 4)

    def test_deferral_decays_priority(self, figure1):
        alap = mobility_map(figure1)
        finish = {"A": 1}
        early = score(paper_priority, figure1, alap, finish, "C", 2)
        late = score(paper_priority, figure1, alap, finish, "C", 4)
        # mobility shrinks as cs grows (raising PF) while deferral
        # lowers it; for C the two effects cancel exactly
        assert early == late

    def test_delayed_producers_ignored(self, figure1):
        alap = mobility_map(figure1)
        # A's producer D connects through a delayed edge only
        assert score(paper_priority, figure1, alap, {"D": 4}, "A", 5) == (
            -mobility(alap, "A", 5)
        )


class TestAblationPriorities:
    def test_fifo_constant(self, figure1):
        alap = mobility_map(figure1)
        assert score(fifo_priority, figure1, alap, {}, "A", 1) == 0.0
        assert (
            score(fifo_priority, figure1, alap, {"A": 1}, "B", 2) == 0.0
        )

    def test_mobility_only(self, figure1):
        alap = mobility_map(figure1)
        assert score(
            mobility_only_priority, figure1, alap, {}, "B", 2
        ) > score(mobility_only_priority, figure1, alap, {}, "C", 2)

    def test_volume_only(self, figure1):
        alap = mobility_map(figure1)
        finish = {"A": 1, "B": 3, "C": 3}
        assert (
            score(volume_only_priority, figure1, alap, finish, "E", 4) == 2.0
        )
        assert score(volume_only_priority, figure1, alap, {}, "A", 1) == 0.0


class TestAffineKey:
    """Evaluated at any control step, the key ``(a, b)`` equals
    Definition 3.6 written out literally."""

    def test_paper_key_matches_definition(self):
        import random

        from repro.qa import sample_sized_graph

        rng = random.Random(5)
        for seed in range(4):
            g = sample_sized_graph("layered", 40, seed=seed)
            alap = mobility_map(g)
            finish = {v: rng.randint(1, 30) for v in g.nodes()}
            for v in g.nodes():
                producers = [e for e in g.in_edges(v) if e.delay == 0]
                for cs in range(1, 40):
                    mb = mobility(alap, v, cs)
                    expected = max(
                        (
                            e.volume - (cs - (finish[e.src] + 1)) - mb
                            for e in producers
                        ),
                        default=-mb,
                    )
                    got = score(paper_priority, g, alap, finish, v, cs)
                    assert got == expected, (seed, v, cs)
