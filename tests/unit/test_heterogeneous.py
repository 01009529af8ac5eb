"""Unit tests for heterogeneous (per-PE speed) scheduling — extension."""

import pytest

from repro.arch import CompletelyConnected, LinearArray
from repro.baselines import etf_schedule, sequential_schedule
from repro.core import CycloConfig, cyclo_compact, start_up_schedule
from repro.errors import ArchitectureError
from repro.graph import CSDFG
from repro.schedule import is_valid_schedule
from repro.sim import simulate


def hetero(num=4, scales=(1, 2, 2, 4)):
    return CompletelyConnected(num).with_time_scales(scales)


class TestArchitectureScales:
    def test_execution_time(self):
        arch = hetero()
        assert arch.execution_time(0, 3) == 3
        assert arch.execution_time(3, 3) == 12
        assert arch.is_heterogeneous
        assert arch.time_scales == (1, 2, 2, 4)

    def test_homogeneous_default(self):
        arch = CompletelyConnected(4)
        assert not arch.is_heterogeneous
        assert arch.execution_time(2, 5) == 5

    def test_guards(self):
        with pytest.raises(ArchitectureError):
            CompletelyConnected(2).with_time_scales([1])
        with pytest.raises(ArchitectureError):
            CompletelyConnected(2).with_time_scales([1, 0])

    def test_with_comm_model_preserves_scales(self):
        from repro.arch import ZeroCommModel

        arch = hetero().with_comm_model(ZeroCommModel())
        assert arch.time_scales == (1, 2, 2, 4)


class TestSchedulingOnHetero:
    def test_startup_valid(self, figure1):
        arch = hetero()
        s = start_up_schedule(figure1, arch)
        assert is_valid_schedule(figure1, arch, s)
        # placed durations reflect the PE speed
        for node in figure1.nodes():
            p = s.placement(node)
            assert p.duration == arch.execution_time(p.pe, figure1.time(node))

    def test_startup_prefers_fast_pes(self):
        g = CSDFG("solo")
        g.add_node("a", 4)
        g.add_edge("a", "a", 1, 1)
        arch = hetero()
        s = start_up_schedule(g, arch)
        assert s.processor("a") == 0  # the unit-scale PE

    def test_cyclo_valid_and_compacts(self, figure7):
        arch = CompletelyConnected(8).with_time_scales(
            [1, 1, 1, 1, 2, 2, 2, 2]
        )
        cfg = CycloConfig(max_iterations=30, validate_each_step=True)
        result = cyclo_compact(figure7, arch, config=cfg)
        assert result.final_length <= result.initial_length
        assert is_valid_schedule(result.graph, arch, result.schedule)

    def test_slower_machine_never_shorter(self, figure7):
        fast = CompletelyConnected(8)
        slow = CompletelyConnected(8).with_time_scales([2] * 8)
        cfg = CycloConfig(max_iterations=25, validate_each_step=False)
        fast_len = cyclo_compact(figure7, fast, config=cfg).final_length
        slow_len = cyclo_compact(figure7, slow, config=cfg).final_length
        assert slow_len >= fast_len

    def test_simulator_accepts(self, figure1):
        arch = hetero()
        s = start_up_schedule(figure1, arch)
        simulate(figure1, arch, s, iterations=4)

    def test_etf_valid(self, figure7):
        arch = LinearArray(4).with_time_scales([1, 1, 2, 2])
        s = etf_schedule(figure7, arch)
        assert is_valid_schedule(figure7, arch, s)

    def test_sequential_uses_pe0_speed(self, figure1):
        arch = CompletelyConnected(2).with_time_scales([3, 1])
        s = sequential_schedule(figure1, arch)
        assert s.makespan == 3 * figure1.total_work()
        assert is_valid_schedule(figure1, arch, s)

    def test_validator_catches_wrong_duration(self, figure1):
        arch = hetero()
        s = start_up_schedule(figure1, CompletelyConnected(4))
        # schedule built for a homogeneous machine: durations on slow
        # PEs are now wrong
        if any(s.processor(n) != 0 for n in figure1.nodes()):
            assert not is_valid_schedule(figure1, arch, s)
