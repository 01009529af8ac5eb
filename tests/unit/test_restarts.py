"""Unit tests for best-of-N restarts (repro.perf.restarts).

The load-bearing guarantee is **jobs-invariance**: for a fixed
``(seed, restarts)`` the winner, every restart's length
and the winning placements are identical whatever ``--jobs`` is — the
worker count may only change wall-clock time.  The second guarantee is
monotonicity: restart 0 runs the plain paper priority, so best-of-N is
never worse than the single run it generalises.
"""

import pytest

from repro.arch import make_architecture
from repro.core import CycloConfig, cyclo_compact, start_up_schedule
from repro.core.priority import paper_priority
from repro.errors import SchedulingError
from repro.perf import best_of_restarts
from repro.perf.restarts import JitteredPriority
from repro.qa import sample_graph
from repro.schedule import collect_violations
from repro.workloads import make_workload

CFG = CycloConfig(max_iterations=20, validate_each_step=False)


def report_key(report):
    return (
        report.winner.index,
        report.final_length,
        [(o.index, o.length, o.passes, o.stop_reason)
         for o in report.outcomes],
    )


class TestJobsInvariance:
    def test_winner_identical_across_jobs(self):
        graph = sample_graph(3)
        arch = make_architecture("mesh", 4)
        serial = best_of_restarts(
            graph, arch, CFG, restarts=3, jobs=1, seed=7
        )
        sharded = best_of_restarts(
            graph, arch, CFG, restarts=3, jobs=2, seed=7
        )
        assert report_key(serial) == report_key(sharded)
        assert serial.schedule.same_placements(sharded.schedule)
        assert serial.retiming == sharded.retiming

    def test_repeatable_for_fixed_seed(self):
        graph = make_workload("figure7")
        arch = make_architecture("hypercube", 8)
        a = best_of_restarts(graph, arch, CFG, restarts=2, seed=3)
        b = best_of_restarts(graph, arch, CFG, restarts=2, seed=3)
        assert report_key(a) == report_key(b)


class TestBestOfN:
    def test_never_worse_than_single_run(self):
        graph = sample_graph(3)
        arch = make_architecture("mesh", 4)
        single = cyclo_compact(graph, arch, config=CFG)
        report = best_of_restarts(
            graph, arch, CFG, restarts=3, seed=7
        )
        assert report.final_length <= single.final_length

    @pytest.mark.parametrize("kind,pes", [("complete", 2), ("linear", 3)])
    def test_never_worse_than_single_run_when_pipelined(self, kind, pes):
        # the early stop must use the pipelined floor (issue slots, not
        # work), or restarts stop before restart 0 reaches its length
        graph = make_workload("figure7")
        arch = make_architecture(kind, pes)
        cfg = CycloConfig(pipelined_pes=True)
        single = cyclo_compact(graph, arch, config=cfg)
        report = best_of_restarts(graph, arch, cfg, restarts=4)
        assert report.final_length <= single.final_length

    def test_winning_schedule_is_legal(self):
        graph = make_workload("figure7")
        arch = make_architecture("mesh", 8)
        report = best_of_restarts(graph, arch, CFG, restarts=2, seed=1)
        assert collect_violations(
            report.graph, arch, report.schedule
        ) == []
        assert report.final_length == report.schedule.length

    def test_single_restart_matches_plain_run(self):
        graph = make_workload("figure7")
        arch = make_architecture("mesh", 8)
        single = cyclo_compact(graph, arch, config=CFG)
        report = best_of_restarts(graph, arch, CFG, restarts=1, seed=9)
        assert report.final_length == single.final_length
        assert report.schedule.same_placements(single.schedule)

    def test_outcomes_cover_every_restart(self):
        graph = sample_graph(3)
        arch = make_architecture("mesh", 4)
        report = best_of_restarts(
            graph, arch, CFG, restarts=3, seed=7
        )
        assert [o.index for o in report.outcomes] == [0, 1, 2]
        assert report.winner.length == min(
            o.length for o in report.outcomes
        )
        allowed = {"completed", "converged", "patience"}
        assert {o.stop_reason for o in report.outcomes} <= allowed

    def test_figure7_mesh_reaches_six(self):
        # every jittered restart reaches 6 when run to completion; a
        # driver that abandons restarts early keeps restart 0's 7
        graph = make_workload("figure7")
        arch = make_architecture("mesh", 8)
        report = best_of_restarts(graph, arch, CycloConfig(), restarts=4)
        assert report.final_length == 6

    @pytest.mark.parametrize(
        "workload,kind,pes,pipelined",
        [
            ("figure7", "mesh", 8, False),
            ("figure7", "linear", 8, False),
            ("lattice4", "ring", 8, False),
            ("fir8", "complete", 2, True),
        ],
    )
    def test_is_min_over_independent_runs(self, workload, kind, pes,
                                          pipelined):
        graph = make_workload(workload)
        arch = make_architecture(kind, pes)
        cfg = CycloConfig(pipelined_pes=pipelined)
        seed = 5
        lengths = []
        for i in range(3):
            priority = (
                paper_priority if i == 0 else JitteredPriority(seed, i)
            )
            initial = start_up_schedule(
                graph, arch, priority=priority, pipelined_pes=pipelined
            )
            run = cyclo_compact(graph, arch, config=cfg, initial=initial)
            lengths.append(run.final_length)
        report = best_of_restarts(graph, arch, cfg, restarts=3, seed=seed)
        assert report.final_length == min(lengths)
        assert report.winner.index == lengths.index(min(lengths))
        assert [o.length for o in report.outcomes] == lengths


class TestValidation:
    def test_restarts_must_be_positive(self):
        graph = make_workload("figure7")
        arch = make_architecture("mesh", 8)
        with pytest.raises(SchedulingError):
            best_of_restarts(graph, arch, CFG, restarts=0)


class TestJitteredPriority:
    def test_deterministic_and_in_unit_interval(self):
        graph = make_workload("figure7")
        from repro.core.mobility import mobility_map
        from repro.core.priority import paper_priority

        alap = mobility_map(graph)
        node = next(iter(graph.nodes()))
        p = JitteredPriority(5, 2)
        base_a, base_b = paper_priority(graph, alap, {}, node)
        a, b = p(graph, alap, {}, node)
        assert (a, b) == p(graph, alap, {}, node)
        assert b == base_b
        assert 0.0 <= a - base_a < 1.0

    def test_picklable(self):
        import pickle

        p = JitteredPriority(5, 2)
        q = pickle.loads(pickle.dumps(p))
        assert (q.seed, q.index) == (5, 2)
