"""Unit tests for the Architecture base class."""

import pytest

from repro.arch import Architecture, ZeroCommModel
from repro.errors import ArchitectureError, UnknownProcessorError


def path3():
    return Architecture(3, [(0, 1), (1, 2)], name="path3")


class TestConstruction:
    def test_basic(self):
        arch = path3()
        assert arch.num_pes == 3
        assert arch.links == ((0, 1), (1, 2))

    def test_rejects_disconnected(self):
        with pytest.raises(ArchitectureError, match="not connected"):
            Architecture(3, [(0, 1)])

    def test_rejects_self_link(self):
        with pytest.raises(ArchitectureError, match="self-link"):
            Architecture(2, [(0, 0), (0, 1)])

    def test_rejects_out_of_range_link(self):
        with pytest.raises(UnknownProcessorError):
            Architecture(2, [(0, 5)])

    def test_rejects_zero_pes(self):
        with pytest.raises(ArchitectureError):
            Architecture(0, [])

    def test_single_pe_no_links(self):
        arch = Architecture(1, [])
        assert arch.diameter == 0
        assert arch.hops(0, 0) == 0

    def test_duplicate_links_collapse(self):
        arch = Architecture(2, [(0, 1), (1, 0)])
        assert arch.links == ((0, 1),)


class TestDistances:
    def test_hops(self):
        arch = path3()
        assert arch.hops(0, 2) == 2
        assert arch.hops(2, 0) == 2
        assert arch.hops(1, 1) == 0

    def test_distance_matrix_readonly(self):
        arch = path3()
        with pytest.raises(TypeError):
            arch.distance_matrix[0][0] = 5
        with pytest.raises(TypeError):
            arch.distance_matrix[0] = (5, 5, 5)

    def test_matrix_symmetric(self):
        dist = path3().distance_matrix
        assert [list(row) for row in dist] == [list(col) for col in zip(*dist)]

    def test_diameter_and_average(self):
        arch = path3()
        assert arch.diameter == 2
        assert arch.average_distance == pytest.approx((1 + 2 + 1 + 1 + 2 + 1) / 6)

    def test_neighbors_and_degree(self):
        arch = path3()
        assert arch.neighbors(1) == (0, 2)
        assert arch.degree(0) == 1

    def test_unknown_pe_raises(self):
        with pytest.raises(UnknownProcessorError):
            path3().hops(0, 9)


class TestCommCost:
    def test_store_and_forward_default(self):
        arch = path3()
        assert arch.comm_cost(0, 2, 3) == 6
        assert arch.comm_cost(1, 1, 3) == 0

    def test_with_comm_model(self):
        arch = path3().with_comm_model(ZeroCommModel())
        assert arch.comm_cost(0, 2, 3) == 0
        assert arch.name == "path3"
        # original unchanged
        assert path3().comm_cost(0, 2, 3) == 6


class TestNetworkx:
    def test_to_networkx(self):
        g = path3().to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2
