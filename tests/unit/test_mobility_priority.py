"""Unit tests for mobility and the start-up priority function PF.

A priority maps ``(node, alap, inputs)`` to a key ``(a, b)``; its score
at control step ``cs`` is ``a + b * cs`` (:func:`score`).  ``inputs``
holds the ``(finish, volume)`` pairs of the node's zero-delay
producers.
"""

from repro.core import (
    fifo_priority,
    mobility,
    mobility_map,
    paper_priority,
    volume_only_priority,
)
from repro.core.priority import mobility_only_priority


def producer_inputs(graph, finish, node):
    """``(finish, volume)`` of ``node``'s zero-delay producers that have
    a finish step, read through ``in_edges``."""
    return [
        (finish[e.src], e.volume)
        for e in graph.in_edges(node)
        if e.delay == 0 and e.src in finish
    ]


def score(priority, graph, alap, finish, node, cs):
    """``priority``'s score for ``node`` at control step ``cs``."""
    a, b = priority(node, alap[node], producer_inputs(graph, finish, node))
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


def _old_paper(graph, alap, finish, node):
    """The PF as derived before it took index data: a walk over
    ``in_edges`` against ``finish`` and ``alap`` maps."""
    late = alap[node]
    best = None
    for e in graph.in_edges(node):
        if e.delay != 0 or e.src not in finish:
            continue
        score = e.volume + finish[e.src] + 1
        if best is None or score > best:
            best = score
    if best is None:
        return float(-late), 1
    return float(best - late), 0


def _old_volume_only(graph, alap, finish, node):
    volumes = [
        e.volume
        for e in graph.in_edges(node)
        if e.delay == 0 and e.src in finish
    ]
    return float(max(volumes, default=0)), 0


def _old_jittered(seed, index):
    import zlib

    def key(graph, alap, finish, node):
        a, b = _old_paper(graph, alap, finish, node)
        digest = zlib.crc32(f"{seed}:{index}:{node}".encode())
        return a + digest / 2**32, b

    return key


class TestIndexKeys:
    """Fed from start-up's index data (the producer lists of
    :func:`repro.graph.validation.zero_delay_index`), every priority
    returns the key the old ``in_edges`` derivation returned."""

    @staticmethod
    def _graphs(figure1, figure7):
        from repro.qa import sample_sized_graph

        yield figure1
        yield figure7
        for seed in range(4):
            yield sample_sized_graph("layered", 40, seed=seed)

    def test_every_priority_matches_the_in_edges_derivation(
        self, figure1, figure7
    ):
        import random

        from repro.graph.properties import alap_indexed
        from repro.graph.validation import zero_delay_index
        from repro.perf.restarts import JitteredPriority

        pairs = [
            (paper_priority, _old_paper),
            (mobility_only_priority, lambda g, al, f, v: (float(-al[v]), 1)),
            (fifo_priority, lambda g, al, f, v: (0.0, 0)),
            (volume_only_priority, _old_volume_only),
            (JitteredPriority(11, 3), _old_jittered(11, 3)),
        ]
        rng = random.Random(3)
        checked = 0
        for graph in self._graphs(figure1, figure7):
            nodes, rows, producers, _volumes, order = zero_delay_index(graph)
            times = [graph.time(v) for v in nodes]
            alap = alap_indexed(times, rows, order)
            alap_map = mobility_map(graph)
            assert dict(zip(nodes, alap)) == alap_map
            ends = [rng.randint(1, 30) for _ in nodes]
            finish = dict(zip(nodes, ends))
            for i, v in enumerate(nodes):
                inputs = [(ends[u], volume) for u, volume in producers[i]]
                for new, old in pairs:
                    assert new(v, alap[i], inputs) == (
                        old(graph, alap_map, finish, v)
                    ), (graph.name, v, new)
                    checked += 1
        assert checked > 5 * 19
