"""Mutation-seeded tests for the source analyzer's interprocedural
rules (RD1xx/RC2xx), run through :func:`repro.analyze.lint_paths`.

Each rule family gets (at least) one planted bug the analyzer must
catch and one clean variant it must stay silent on.  Fixtures are
planted under a temporary ``repro/`` tree so
:func:`repro.analyze.lint.infer_module` resolves them as real modules
— the same trick the lint mutation tests use, now exercising the
*interprocedural* machinery: the bug and the sink live in different
functions (and, for several cases, different files).
"""

import runpy
from pathlib import Path

import pytest

from repro.analyze import lint_paths
from repro.arch import SerializedContention, make_architecture
from repro.errors import AnalysisError, ArchitectureError
from repro.graph import chain_csdfg


def plant(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (relative to a fake ``repro`` package) and
    return the tree root to analyze."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def codes(report):
    return sorted(d.code for d in report.diagnostics)


def run(tmp_path, files):
    return lint_paths([plant(tmp_path, files)])


class TestRD101UnseededRngInParallelFlow:
    """RD101 is retired (docs/analysis.md): each of its fixtures draws
    through a direct call, and RL101 convicts it at the draw line,
    wherever the value flows afterwards."""

    def test_tainted_payload_through_helper(self, tmp_path):
        # the draw is two calls away from the dispatch site
        report = run(tmp_path, {"perf/driver.py": (
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def jitter(item):\n"
            "    return random.random()\n"
            "def payload(item):\n"
            "    return jitter(item)\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items, jobs=2)\n"
        )})
        (diag,) = report.diagnostics
        assert diag.code == "RL101" and diag.line == 4
        assert "random.random()" in diag.message

    def test_salted_hash_in_priority(self, tmp_path):
        report = run(tmp_path, {"perf/prio.py": (
            "from repro.core.startup import start_up_schedule\n"
            "def salted(graph, alap, finish, node, cs):\n"
            "    return hash(node)\n"
            "def schedule(graph, arch):\n"
            "    return start_up_schedule(graph, arch, priority=salted)\n"
        )})
        (diag,) = report.diagnostics
        assert diag.code == "RL101" and diag.line == 3
        assert "hash()" in diag.message

    def test_tainted_class_instance_priority(self, tmp_path):
        # taint inside __call__ of a class passed as priority=Cls(...)
        report = run(tmp_path, {"perf/prio.py": (
            "import random\n"
            "from repro.core.startup import start_up_schedule\n"
            "class Jitter:\n"
            "    def __call__(self, graph, alap, finish, node, cs):\n"
            "        return random.uniform(0, 1)\n"
            "def schedule(graph, arch, seed):\n"
            "    pri = Jitter()\n"
            "    return start_up_schedule(graph, arch, priority=pri)\n"
        )})
        (diag,) = report.diagnostics
        assert diag.code == "RL101" and diag.line == 5

    def test_seeded_rng_is_clean(self, tmp_path):
        report = run(tmp_path, {"perf/driver.py": (
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def payload(item):\n"
            "    rng = random.Random(item)\n"
            "    return rng.random()\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items, jobs=2)\n"
        )})
        assert codes(report) == []


class TestRD102SetOrderAcrossMergeBoundary:
    def test_set_iteration_at_publish_boundary(self, tmp_path):
        report = run(tmp_path, {"perf/stats.py": (
            "def merge(snapshots, sink):\n"
            "    total = 0.0\n"
            "    for snap in set(snapshots):\n"
            "        total += snap\n"
            "    sink.publish_stats()\n"
            "    return total\n"
        )})
        assert "RD102" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD102"]
        assert diag.line == 3

    def test_set_returning_helper_iterated_in_payload(self, tmp_path):
        # interprocedural: the set is built in another function
        report = run(tmp_path, {"perf/driver.py": (
            "from repro.perf.parallel import run_parallel\n"
            "def distinct(items):\n"
            "    return {i for i in items}\n"
            "def payload(items):\n"
            "    return [x + 1 for x in distinct(items)]\n"
            "def drive(chunks):\n"
            "    return run_parallel(payload, chunks, jobs=2)\n"
        )})
        assert "RD102" in codes(report)

    def test_sorted_iteration_is_clean(self, tmp_path):
        report = run(tmp_path, {"perf/stats.py": (
            "def merge(snapshots, sink):\n"
            "    total = 0.0\n"
            "    for snap in sorted(set(snapshots)):\n"
            "        total += snap\n"
            "    sink.publish_stats()\n"
            "    return total\n"
        )})
        assert codes(report) == []

    def test_set_iteration_away_from_boundary_is_clean(self, tmp_path):
        # no merge boundary, no payload: plain set use is fine
        report = run(tmp_path, {"graph/util.py": (
            "def distinct(items):\n"
            "    out = []\n"
            "    for i in set(items):\n"
            "        out.append(i)\n"
            "    return out\n"
        )})
        assert "RD102" not in codes(report)


class TestRD103ClockIntoSchedule:
    def test_cross_file_clock_reachability(self, tmp_path):
        # read in one module, entry point in another: the call graph
        # must connect them through the import
        report = run(tmp_path, {
            "perf/knobs.py": (
                "import os\n"
                "def knob():\n"
                "    return os.environ.get('REPRO_SECRET_KNOB')\n"
            ),
            "perf/mapper.py": (
                "from repro.perf.knobs import knob\n"
                "def remap_nodes(graph, arch):\n"
                "    return (graph, knob())\n"
            ),
        })
        (diag,) = report.diagnostics
        assert diag.code == "RD103" and diag.line == 3
        assert diag.file.endswith("knobs.py")
        assert "reachable from a core scheduling entry point" in (
            diag.message)

    def test_clock_derived_argument(self, tmp_path):
        drivers = [
            (
                "import time\n"
                "from repro.core.cyclo import cyclo_compact\n"
                "def schedule(graph, arch, cfg):\n"
                "    stamp = time.monotonic()\n"
                "    return cyclo_compact(graph, arch, config=stamp)\n"
            ),
            # a budget-named keyword has no exemption either
            (
                "import time\n"
                "from repro.core.config import CycloConfig\n"
                "def configure(budget):\n"
                "    left = budget - time.monotonic()\n"
                "    return CycloConfig(time_budget_seconds=left)\n"
            ),
        ]
        for n, driver in enumerate(drivers):
            report = run(tmp_path / str(n), {"perf/driver.py": driver})
            assert "RD103" in codes(report), driver

    def test_env_read_reachable_from_entry_point(self, tmp_path):
        # the read hides one call below a core entry-point name
        report = run(tmp_path, {"core/mapper.py": (
            "import os\n"
            "def remap_nodes(graph, arch):\n"
            "    return _expand(graph)\n"
            "def _expand(graph):\n"
            "    knob = os.environ.get('REPRO_SECRET_KNOB')\n"
            "    return (graph, knob)\n"
        )})
        assert "RD103" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD103"]
        assert diag.line == 5


class TestRD104CompletionOrder:
    """RD104 is retired (docs/analysis.md): no code in the tree harvests
    in completion order, and ``run_parallel``'s own order test
    (``test_perf_parallel.py::test_results_in_item_order``) convicts a
    harvest that does."""

    def test_submission_order_is_clean(self, tmp_path):
        report = run(tmp_path, {"perf/pool.py": (
            "def gather(futures):\n"
            "    total = 0.0\n"
            "    for fut in futures:\n"
            "        total += fut.result()\n"
            "    return total\n"
        )})
        assert codes(report) == []


class TestRC201UnfrozenContendedPricing:
    """RC201 is retired (docs/analysis.md): ``CommCostCache`` itself
    refuses a contention model without an ``occupancy=`` snapshot, so
    each fixture is run as well as linted."""

    PRICE = (
        "from repro.arch.cache import CommCostCache\n"
        "from repro.arch.contention import LinkOccupancy\n"
        "def price(arch, graph, model):\n"
    )

    def price(self, tmp_path, body):
        root = plant(tmp_path, {"core/price.py": self.PRICE + body})
        assert codes(lint_paths([root])) == []
        price = runpy.run_path(str(root / "core" / "price.py"))["price"]
        arch = make_architecture("linear", 4)
        graph = chain_csdfg(3)
        return arch, price(arch, graph, SerializedContention(weight=2))

    def test_missing_occupancy(self, tmp_path):
        with pytest.raises(ArchitectureError, match="occupancy"):
            self.price(tmp_path, (
                "    return CommCostCache.for_graph(arch, graph, "
                "contention=model)\n"
            ))

    def test_bare_empty_ledger(self, tmp_path):
        # an empty ledger is a legitimate snapshot: nothing in flight
        arch, cache = self.price(tmp_path, (
            "    return CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=LinkOccupancy(arch))\n"
        ))
        assert cache.contended
        assert cache.cost(0, 3, 1) == arch.comm_cost(0, 3, 1)

    def test_frozen_snapshot_is_clean(self, tmp_path):
        arch, cache = self.price(tmp_path, (
            "    occ = LinkOccupancy.from_assignment(graph, arch, "
            "{n: i for i, n in enumerate(graph.nodes())})\n"
            "    return CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=occ)\n"
        ))
        assert cache.contended
        assert cache.cost(0, 3, 1) > arch.comm_cost(0, 3, 1)

    def test_contention_free_cache_is_clean(self, tmp_path):
        _, cache = self.price(tmp_path, (
            "    return CommCostCache.for_graph(arch, graph)\n"
        ))
        assert not cache.contended


class TestRC202StaleFreezeAcrossRemap:
    """RC202 is retired (docs/analysis.md): its one site,
    ``contention_aware_schedule``, is pinned by
    ``test_contention_pipeline.py::TestRoundPricing``.  The shipped
    freeze-per-round discipline stays an RC203 fixture."""

    FREEZE = (
        "from repro.arch.cache import CommCostCache\n"
        "from repro.arch.contention import LinkOccupancy\n"
        "from repro.core.remapping import remap_nodes\n"
    )

    def test_refreeze_before_each_remap_is_clean(self, tmp_path):
        # the shipped repair-path discipline: freeze, remap, re-freeze
        src = (
            self.FREEZE
            + "def repair(graph, arch, model, schedule, rounds):\n"
            "    out = None\n"
            "    for _ in range(rounds):\n"
            "        occ = LinkOccupancy.from_assignment(graph, arch, "
            "schedule)  # repro-lint: disable=RC203 (per-round reprice)\n"
            "        comm = CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=occ)"
            "  # repro-lint: disable=RC203 (per-round reprice)\n"
            "        out = remap_nodes(graph, arch, comm=comm)\n"
            "        schedule = out.schedule\n"
            "    return out\n"
        )
        report = run(tmp_path, {"resilience/fix.py": src})
        assert codes(report) == [] and report.suppressed == 2

    def test_contention_free_comm_is_clean(self, tmp_path):
        report = run(tmp_path, {"resilience/fix.py": (
            self.FREEZE
            + "def repair(graph, arch, rounds):\n"
            "    comm = CommCostCache.for_graph(arch, graph)\n"
            "    out = None\n"
            "    for _ in range(rounds):\n"
            "        out = remap_nodes(graph, arch, comm=comm)\n"
            "    return out\n"
        )})
        assert codes(report) == []


class TestRC203CacheInHotLoop:
    def test_construction_inside_loop(self, tmp_path):
        report = run(tmp_path, {"core/hot.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def reprice(arch, graphs):\n"
            "    out = []\n"
            "    for g in graphs:\n"
            "        out.append(CommCostCache.for_graph(arch, g))\n"
            "    return out\n"
        )})
        assert "RC203" in codes(report)

    def test_hoisted_construction_is_clean(self, tmp_path):
        report = run(tmp_path, {"core/hot.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def reprice(arch, graph, items):\n"
            "    comm = CommCostCache.for_graph(arch, graph)\n"
            "    out = []\n"
            "    for item in items:\n"
            "        out.append(comm.cost(0, 1, item))\n"
            "    return out\n"
        )})
        assert codes(report) == []

    def test_suppression_is_honoured_and_counted(self, tmp_path):
        report = run(tmp_path, {"core/hot.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def reprice(arch, graphs):\n"
            "    out = []\n"
            "    for g in graphs:\n"
            "        out.append(CommCostCache.for_graph(arch, g))"
            "  # repro-lint: disable=RC203 (test)\n"
            "    return out\n"
        )})
        assert codes(report) == [] and report.suppressed == 1


class TestEngineBehaviour:
    def test_missing_path_is_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            lint_paths([tmp_path / "nope"])

    def test_syntax_error_is_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot parse"):
            run(tmp_path, {"core/broken.py": "def f(:\n"})

    def test_witness_names_the_source(self, tmp_path):
        report = run(tmp_path, {"perf/driver.py": (
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def payload(item):\n"
            "    return random.random()\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items)\n"
        )})
        (diag,) = report.diagnostics
        assert "random.random()" in diag.message

