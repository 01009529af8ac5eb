"""Cayley-graph topology generator: vertex-transitivity and the
hops-matrix-preserving refactor of the classical constructors.

Satellite properties of the Cayley tentpole:

* every registered Cayley family member is vertex-transitive — for
  each processor the left-translation automorphism returned by
  ``automorphism_onto`` carries the identity PE onto it while mapping
  the link set onto itself (the automorphism-orbit check);
* the ``Ring`` and ``Hypercube`` rebuilds are link-for-link identical
  to the pre-refactor by-hand constructions, so every hops matrix (and
  therefore every schedule) is bit-identical.
"""

from collections import deque

import pytest

from repro.arch import (
    ARCHITECTURE_KINDS,
    BubbleSortGraph,
    CayleyTopology,
    Circulant,
    Hypercube,
    PancakeGraph,
    Ring,
    StarGraph,
    make_architecture,
)
from repro.errors import ArchitectureError

#: One instance of every registered Cayley family member (kept small:
#: the orbit check visits every PE's automorphism).
CAYLEY_MEMBERS = [
    Ring(5),
    Ring(8),
    Hypercube(3),
    Hypercube(4),
    Circulant(8, steps=(1, 2)),
    Circulant(9, steps=(1, 3)),
    StarGraph(3),
    StarGraph(4),
    BubbleSortGraph(4),
    PancakeGraph(4),
]


def _bfs_hops(num_pes, links):
    """All-pairs hop counts of an undirected link list, independently
    of Architecture's matrix construction."""
    adjacency = {pe: [] for pe in range(num_pes)}
    for a, b in links:
        adjacency[a].append(b)
        adjacency[b].append(a)
    dist = {}
    for src in range(num_pes):
        seen = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen[nxt] = seen[node] + 1
                    queue.append(nxt)
        for dst, d in seen.items():
            dist[(src, dst)] = d
    return dist


class TestVertexTransitivity:
    @pytest.mark.parametrize(
        "arch", CAYLEY_MEMBERS, ids=lambda a: a.name
    )
    def test_automorphism_orbit_covers_every_pe(self, arch):
        identity_pe = arch.pe_of(arch._identity)
        link_set = set(arch.links)
        for pe in range(arch.num_pes):
            perm = arch.automorphism_onto(pe)
            # a permutation of the PEs...
            assert sorted(perm) == list(range(arch.num_pes))
            # ...carrying the identity's PE onto pe...
            assert perm[identity_pe] == pe
            # ...and the link set onto itself: an automorphism
            mapped = {
                (min(perm[a], perm[b]), max(perm[a], perm[b]))
                for a, b in link_set
            }
            assert mapped == link_set

    @pytest.mark.parametrize(
        "arch", CAYLEY_MEMBERS, ids=lambda a: a.name
    )
    def test_degree_regular(self, arch):
        degrees = {len(arch.neighbors(pe)) for pe in range(arch.num_pes)}
        assert len(degrees) == 1
        assert degrees.pop() == len(arch.generators)

    @pytest.mark.parametrize(
        "arch", CAYLEY_MEMBERS, ids=lambda a: a.name
    )
    def test_every_pe_sees_the_same_distance_profile(self, arch):
        # vertex-transitivity in hops terms: every row of the distance
        # matrix is a permutation of every other row
        dist = arch.distance_matrix
        profile = sorted(dist[0])
        for pe in range(1, arch.num_pes):
            assert sorted(dist[pe]) == profile


class TestClassicalRebuildsUnchanged:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_ring_links_and_hops_match_prerefactor(self, n):
        ring = Ring(n)
        expected_links = sorted(
            (min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)
        )
        assert list(ring.links) == expected_links
        hand = _bfs_hops(n, expected_links)
        for src in range(n):
            for dst in range(n):
                assert ring.hops(src, dst) == hand[(src, dst)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
    def test_hypercube_links_and_hops_match_prerefactor(self, dim):
        cube = Hypercube(dim)
        n = 1 << dim
        expected_links = sorted(
            {
                (min(x, x ^ (1 << bit)), max(x, x ^ (1 << bit)))
                for x in range(n)
                for bit in range(dim)
            }
        )
        assert list(cube.links) == expected_links
        for src in range(n):
            for dst in range(n):
                # hypercube hops are exactly the Hamming distance
                assert cube.hops(src, dst) == bin(src ^ dst).count("1")

    def test_ring_and_hypercube_are_cayley(self):
        assert isinstance(Ring(4), CayleyTopology)
        assert isinstance(Hypercube(3), CayleyTopology)
        # class identity survives (e-cube routing dispatches on it)
        assert isinstance(make_architecture("hypercube", 8), Hypercube)
        assert isinstance(make_architecture("ring", 5), Ring)

    def test_names_unchanged(self):
        assert Ring(8).name == "ring8"
        assert Hypercube(3).name == "3-cube"


class TestFamilyMembers:
    def test_circulant_chords_cut_the_diameter(self):
        ring = Ring(12)
        chord = Circulant(12, steps=(1, 3))
        assert chord.diameter < ring.diameter
        # the ring's links are a subset of the chorded machine's
        assert set(ring.links) <= set(chord.links)

    def test_circulant_normalises_steps(self):
        # -1 == n-1 mod n; duplicates collapse
        a = Circulant(8, steps=(1, 2))
        b = Circulant(8, steps=(2, 1, 9))
        assert a.links == b.links

    def test_star_graph_shape(self):
        st = StarGraph(4)
        assert st.num_pes == 24
        assert len(st.generators) == 3  # degree k - 1

    def test_bubble_sort_diameter(self):
        bs = BubbleSortGraph(4)
        assert bs.num_pes == 24
        assert bs.diameter == 6  # k(k-1)/2 adjacent swaps

    def test_pancake_flips_are_self_inverse(self):
        pc = PancakeGraph(4)
        for g in pc.generators:
            assert pc._compose(g, g) == pc._identity


class TestPresentationValidation:
    def test_generator_without_inverse_rejected(self):
        with pytest.raises(ArchitectureError):
            CayleyTopology(
                range(5), lambda x, g: (x + g) % 5, 0, [1], name="bad"
            )

    def test_identity_generator_rejected(self):
        with pytest.raises(ArchitectureError):
            CayleyTopology(
                range(4), lambda x, g: (x + g) % 4, 0, [0, 2], name="bad"
            )

    def test_composition_must_stay_in_the_set(self):
        with pytest.raises(ArchitectureError):
            CayleyTopology(
                range(4), lambda x, g: x + g, 0, [1, 3], name="bad"
            )

    def test_circulant_needs_nonzero_steps(self):
        with pytest.raises(ArchitectureError):
            Circulant(6, steps=(6,))

    def test_factorial_sizing_enforced_by_registry(self):
        for kind in ("cayley-star", "cayley-bubble", "pancake"):
            with pytest.raises(ArchitectureError):
                make_architecture(kind, 7)
            arch = make_architecture(kind, 6)
            assert arch.num_pes == 6

    def test_registry_builds_every_cayley_kind(self):
        assert isinstance(make_architecture("circulant", 8), Circulant)
        assert isinstance(make_architecture("cayley-star", 24), StarGraph)
        assert isinstance(
            make_architecture("cayley-bubble", 24), BubbleSortGraph
        )
        assert isinstance(make_architecture("pancake", 24), PancakeGraph)
