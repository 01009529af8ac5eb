"""Unit tests for the RA4xx schedule certificate checker.

The checker is the third independent implementation of the DESIGN §1
criterion, so every test cross-checks its verdict against the runtime
validator: they must agree on legal *and* on broken schedules.
"""

import pytest

from repro.analyze import certify_schedule
from repro.arch import make_architecture
from repro.arch.degraded import DegradedTopology
from repro.core import CycloConfig, cyclo_compact
from repro.graph import CSDFG
from repro.schedule import ScheduleTable, collect_violations


def codes(diags):
    return sorted(d.code for d in diags)


def errors(diags):
    return [d for d in diags if d.severity == "error"]


@pytest.fixture
def chain():
    """a -> b same-volume chain with a loop-back delay."""
    g = CSDFG("chain")
    g.add_node("a", 2)
    g.add_node("b", 1)
    g.add_edge("a", "b", 0, 2)
    g.add_edge("b", "a", 1, 1)
    return g


class TestCleanCertificates:
    def test_compacted_schedule_certifies(self, figure1, mesh2x2):
        cfg = CycloConfig(max_iterations=8, validate_each_step=False)
        result = cyclo_compact(figure1, mesh2x2, config=cfg)
        found = certify_schedule(result.graph, mesh2x2, result.schedule)
        assert errors(found) == []
        assert collect_violations(result.graph, mesh2x2, result.schedule) == []

    def test_certifies_on_degraded_machines(self, figure1):
        arch = DegradedTopology(make_architecture("mesh", 4), failed_pes=(3,))
        cfg = CycloConfig(max_iterations=4, validate_each_step=False)
        result = cyclo_compact(figure1, arch, config=cfg)
        assert errors(
            certify_schedule(result.graph, arch, result.schedule)
        ) == []

    def test_slack_is_reported_as_ra405(self, chain):
        arch = make_architecture("linear", 2)
        table = ScheduleTable(2, length=50)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(chain, arch, table)
        assert errors(found) == []
        assert codes(found) == ["RA405"]
        assert collect_violations(chain, arch, table) == []


class TestBrokenSchedules:
    def arch(self):
        return make_architecture("linear", 2)

    def test_missing_node_is_ra401(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA401" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_foreign_node_is_ra401(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        table.place("zz", pe=1, start=1, duration=1)
        assert "RA401" in codes(certify_schedule(chain, self.arch(), table))

    def test_overlap_is_ra402(self, chain):
        from repro.schedule.table import Placement

        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        # bypass the table's cell index to simulate a corrupted table:
        # b lands inside a's occupancy window
        table._placements["b"] = Placement("b", 0, 2, 1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA402" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_pipelined_overlap_is_allowed(self, chain):
        # on pipelined PEs only the issue step must be exclusive, but
        # the cross-PE message b -> a (delay 1) must still be priced:
        # keep them co-located
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2, occupancy=1)
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(
            chain, self.arch(), table, pipelined_pes=True
        )
        assert errors(found) == []

    def test_comm_violation_is_ra403(self, chain):
        # a(pe1) finishes at cs 2; b(pe2) at cs 3 ignores the one-hop
        # transit of the 2-word message (M = 2)
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=1, start=3, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA403" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_same_pe_needs_no_transit(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        assert errors(certify_schedule(chain, self.arch(), table)) == []

    def test_delay_edge_wraps_around_the_length(self, chain):
        # b -> a carries one delay: legal only because d * L covers it;
        # shrink L below the wrap requirement and RA403 must fire
        table = ScheduleTable(2, length=2)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=1, start=1, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA403" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_out_of_range_pe_is_ra404(self, chain):
        table = ScheduleTable(5, length=10)
        table.place("a", pe=4, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_failed_pe_is_ra404(self, chain):
        arch = DegradedTopology(
            make_architecture("complete", 3), failed_pes=(2,)
        )
        table = ScheduleTable(3, length=10)
        table.place("a", pe=2, start=1, duration=2)
        table.place("b", pe=0, start=4, duration=1)
        found = certify_schedule(chain, arch, table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, arch, table)

    def test_wrong_duration_is_ra404(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=1)  # t(a) = 2
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_finish_beyond_length_is_ra404(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=10, duration=1)
        table._length = 9  # sabotage: bypass the setter guard
        found = certify_schedule(chain, self.arch(), table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, self.arch(), table)


class TestValidatorAgreement:
    """Fuzz-lite: the certificate and the validator agree verdict for
    verdict over many seeded samples (the `analyzer-agrees` fuzz
    property runs the same comparison at scale)."""

    def test_agreement_over_samples(self):
        from repro.qa import sample_graph
        from repro.qa.generate import sample_arch_spec

        cfg = CycloConfig(max_iterations=3, validate_each_step=False)
        for seed in range(12):
            graph = sample_graph(seed)
            arch = sample_arch_spec(seed, max_pes=6).build()
            result = cyclo_compact(graph, arch, config=cfg)
            for g, schedule in (
                (graph, result.initial_schedule),
                (result.graph, result.schedule),
            ):
                validator = collect_violations(g, arch, schedule)
                certificate = errors(certify_schedule(g, arch, schedule))
                assert bool(validator) == bool(certificate), (
                    seed, validator, [d.render() for d in certificate]
                )


class TestPerNodeWork:
    """The certificate does a bounded amount of work per node and per
    edge, whatever the node labels."""

    @staticmethod
    def _int_chain(n):
        g = CSDFG("int-chain")
        for v in range(n):
            g.add_node(v, 1 + v % 3)
        for v in range(n - 1):
            g.add_edge(v, v + 1, 0, 1 + v % 2)
        g.add_edge(n - 1, 0, 2, 1)
        return g

    def test_int_labels_walk_the_nodes_a_constant_number_of_times(self):
        # each name whose str is not itself a node once cost a scan over
        # every node: about n * n / 2 node visits on this chain
        from repro.core import start_up_schedule

        n = 300
        graph = self._int_chain(n)
        arch = make_architecture("ring", 16)
        schedule = start_up_schedule(graph, arch)
        visits = 0
        nodes = graph.nodes

        def counting_nodes():
            nonlocal visits
            for v in nodes():
                visits += 1
                yield v

        graph.nodes = counting_nodes
        assert errors(certify_schedule(graph, arch, schedule)) == []
        assert visits <= 3 * n

    def test_prices_each_link_and_volume_once(self):
        from repro.core import start_up_schedule

        graph = self._int_chain(200)
        arch = make_architecture("ring", 16)
        schedule = start_up_schedule(graph, arch)
        calls = []

        def price(pe_u, pe_v, volume):
            calls.append((pe_u, pe_v, volume))
            return arch.comm_cost(pe_u, pe_v, volume)

        assert errors(
            certify_schedule(graph, arch, schedule, price=price)
        ) == []
        assert len(calls) == len(set(calls)) < graph.num_edges

    def test_reads_the_stored_records_without_copies(self, monkeypatch):
        from repro.core import start_up_schedule

        graph = self._int_chain(50)
        arch = make_architecture("ring", 16)
        schedule = start_up_schedule(graph, arch)

        def no_copy(self, node):
            raise AssertionError("certify built a placement copy")

        monkeypatch.setattr(ScheduleTable, "placement", no_copy)
        assert errors(certify_schedule(graph, arch, schedule)) == []


class TestShiftedTables:
    """A rotated table stores its steps against a moved origin; the
    certificate reads absolute steps, so it equals that of a fresh
    table holding the same absolute placements."""

    @staticmethod
    def _rebuilt(table):
        fresh = ScheduleTable(table.num_pes, length=table.length)
        for p in table.placements():
            fresh.place(p.node, p.pe, p.start, p.duration, p.occupancy)
        return fresh

    @staticmethod
    def _findings(graph, arch, table):
        return [(d.code, d.message) for d in certify_schedule(graph, arch, table)]

    @pytest.mark.parametrize("b_start, length, cut, expected", [
        (5, 12, None, ["RA405"]),  # clean, with slack
        (3, 12, None, ["RA403"]),  # b too early for the transfer
        (5, 5, None, ["RA403"]),   # the delayed edge no longer wraps
        # b finishes past the cut length, and the wrap breaks with it
        (5, 6, 4, ["RA403", "RA404"]),
    ])
    def test_matches_an_unshifted_rebuild(
        self, chain, b_start, length, cut, expected
    ):
        arch = make_architecture("linear", 2)
        table = ScheduleTable(2, length=length + 2)
        table.place("a", pe=0, start=3, duration=2)
        table.place("b", pe=1, start=b_start + 2, duration=1)
        table.shift_all(-2)
        assert table.stored_placements()[1] == -2
        fresh = self._rebuilt(table)
        if cut is not None:
            # sabotage: bypass the setter guard
            table._length = fresh._length = cut
        found = self._findings(chain, arch, table)
        assert found == self._findings(chain, arch, fresh)
        assert sorted(code for code, _ in found) == expected
