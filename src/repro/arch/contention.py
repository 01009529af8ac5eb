"""Link-contention accounting and contention-aware pricing.

The paper assumes "the communication channels are multiple so that there
is no congestion" (§3).  This module quantifies how optimistic that
assumption is for a *given* schedule — it routes every cross-processor
transfer along its deterministic path (:func:`repro.arch.routing.route`)
and tallies per-link load — and lets the scheduler be *charged* for
the congestion it creates:

* :class:`LinkOccupancy` — a per-link reservation ledger for one
  steady-state iteration of an assignment, with deterministic route
  memoisation.  ``load_between(src, dst)`` is the volume already queued
  on the busiest link of the ``src -> dst`` route.
* :func:`contended_cost` — re-prices every cross-PE dependence of an
  assignment under a :class:`~repro.arch.comm.ContentionModel`, each
  transfer seeing the load of the *other* transfers on its route
  (self-exclusive, so the metric is independent of edge order).

Pricing during scheduling uses a **frozen** occupancy snapshot attached
to a :class:`~repro.arch.cache.CommCostCache`: within a run the price
of a transfer is a pure function of ``(src, dst, volume)``, so the
start-up scheduler, ``_find_spot``, the PSL tracker and the validator
all agree by construction (see ``contention_aware_schedule`` in
:mod:`repro.core.pipeline` for the two-phase flow that refreshes the
snapshot between runs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.arch.comm import ContentionModel
from repro.arch.routing import route
from repro.arch.topology import Architecture
from repro.errors import ArchitectureError
from repro.graph.csdfg import CSDFG

__all__ = [
    "LinkOccupancy",
    "ContendedCostReport",
    "contended_cost",
]


class LinkOccupancy:
    """Per-link data-volume reservations of one steady-state iteration.

    Tracks, for every canonical undirected link, the total volume the
    deterministic router sends across it, and answers
    ``load_between(src, dst)``: the heaviest reservation on any link of
    the ``src -> dst`` route — the queue a new transfer on that route
    would wait behind.  Routes are memoised per ordered PE pair, so a
    warm occupancy answers load queries without re-running the router.
    """

    __slots__ = ("arch", "_loads", "_paths")

    def __init__(self, arch: Architecture):
        self.arch = arch
        self._loads: Counter[tuple[int, int]] = Counter()
        self._paths: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    @classmethod
    def from_assignment(
        cls,
        graph: CSDFG,
        arch: Architecture,
        assignment: Mapping,
    ) -> "LinkOccupancy":
        """Occupancy of one iteration of ``assignment``.

        Edges whose endpoints are missing from ``assignment`` (e.g.
        evacuated nodes during fault repair) contribute nothing.
        """
        occ = cls(arch)
        for edge in graph.edges():
            src_pe = assignment.get(edge.src)
            dst_pe = assignment.get(edge.dst)
            if src_pe is None or dst_pe is None or src_pe == dst_pe:
                continue
            occ.add(src_pe, dst_pe, edge.volume)
        return occ

    def _route_links(self, src: int, dst: int) -> tuple[tuple[int, int], ...]:
        key = (src, dst)
        links = self._paths.get(key)
        if links is None:
            path = route(self.arch, src, dst)
            links = tuple(
                (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
            )
            self._paths[key] = links
        return links

    def add(self, src: int, dst: int, volume: int) -> None:
        """Reserve ``volume`` on every link of the ``src -> dst`` route."""
        if volume < 1:
            raise ArchitectureError(f"volume must be >= 1, got {volume}")
        if src == dst:
            return
        for link in self._route_links(src, dst):
            self._loads[link] += volume

    def remove(self, src: int, dst: int, volume: int) -> None:
        """Release a reservation made by :meth:`add`."""
        if volume < 1:
            raise ArchitectureError(f"volume must be >= 1, got {volume}")
        if src == dst:
            return
        for link in self._route_links(src, dst):
            left = self._loads[link] - volume
            if left < 0:
                raise ArchitectureError(
                    f"releasing {volume} from link {link} holding "
                    f"{self._loads[link]}"
                )
            if left == 0:
                del self._loads[link]
            else:
                self._loads[link] = left

    def load_on(self, a: int, b: int) -> int:
        """Reserved volume on the (canonical) link ``a - b``."""
        return self._loads.get((min(a, b), max(a, b)), 0)

    def load_between(self, src: int, dst: int) -> int:
        """Heaviest reservation on the ``src -> dst`` route (0 on-PE)."""
        if src == dst:
            return 0
        links = self._route_links(src, dst)
        if not links:
            return 0
        return max(self._loads.get(link, 0) for link in links)

    @property
    def loads(self) -> dict[tuple[int, int], int]:
        """Snapshot of the per-link reservations."""
        return dict(self._loads)

    @property
    def max_load(self) -> int:
        """The heaviest single-link reservation."""
        return max(self._loads.values(), default=0)


@dataclass
class ContendedCostReport:
    """Contended re-pricing of one iteration of an assignment.

    ``base_cost`` sums the contention-free prices of all cross-PE
    transfers; ``contended_cost`` re-prices each transfer with the
    load of the *other* transfers sharing its route (self-exclusive,
    so the total does not depend on edge enumeration order).
    ``occupancy`` is the ledger the transfers were priced against, so a
    caller can freeze it into the next price snapshot without routing
    the assignment again.
    """

    base_cost: int = 0
    contended_cost: int = 0
    max_link_load: int = 0
    num_remote_edges: int = 0
    loads: dict[tuple[int, int], int] = field(default_factory=dict)
    occupancy: LinkOccupancy | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def congestion_penalty(self) -> int:
        """Extra control steps the contention model charges."""
        return self.contended_cost - self.base_cost

    def hotspots(self, top: int = 3) -> list[tuple[tuple[int, int], int]]:
        """The ``top`` most loaded links, descending."""
        return sorted(self.loads.items(), key=lambda kv: (-kv[1], kv[0]))[:top]


def contended_cost(
    graph: CSDFG,
    arch: Architecture,
    assignment: Mapping,
    model: ContentionModel,
) -> ContendedCostReport:
    """Evaluate an assignment's communication bill under contention.

    Each cross-PE dependence is priced by ``model`` against the volume
    the remaining traffic reserves on the busiest link of its route.
    This is the objective the contention-aware pipeline minimises and
    the acceptance metric the benchmarks pin.
    """
    occ = LinkOccupancy.from_assignment(graph, arch, assignment)
    base_total = 0
    contended_total = 0
    remote = 0
    for edge in graph.edges():
        src_pe = assignment.get(edge.src)
        dst_pe = assignment.get(edge.dst)
        if src_pe is None or dst_pe is None or src_pe == dst_pe:
            continue
        remote += 1
        base = arch.comm_cost(src_pe, dst_pe, edge.volume)
        links = occ._route_links(src_pe, dst_pe)
        others = max(
            (occ._loads.get(link, 0) - edge.volume for link in links),
            default=0,
        )
        base_total += base
        contended_total += model.price(base, others)
    return ContendedCostReport(
        base_cost=base_total,
        contended_cost=contended_total,
        max_link_load=occ.max_load,
        num_remote_edges=remote,
        loads=occ.loads,
        occupancy=occ,
    )
