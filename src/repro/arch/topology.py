"""Architecture base class: processors, links, hop distances, comm cost.

An :class:`Architecture` is an undirected connected graph of processing
elements (PEs).  Hop distances (shortest path link counts) are computed
once by a BFS from every PE and cached as a tuple of python-int rows;
the communication-cost cache (:mod:`repro.arch.cache`) reads those rows
directly, so no lookup pays for a conversion.

Processor ids are 0-based integers internally; renderings add 1 to match
the paper's ``pe1..peN`` convention.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from repro.arch.comm import CommModel, StoreAndForwardModel
from repro.errors import ArchitectureError, UnknownProcessorError

__all__ = ["Architecture"]


class Architecture:
    """A multiprocessor topology plus a communication cost model.

    Parameters
    ----------
    num_pes:
        Number of processing elements (>= 1).
    links:
        Undirected PE pairs.  The resulting graph must be connected.
    name:
        Label used in reports.
    comm_model:
        Cost model mapping (hops, volume) to control steps; defaults to
        the paper's store-and-forward model.
    time_scales:
        Optional per-PE execution-time multipliers (heterogeneous
        machines, an extension beyond the paper): a task with base time
        ``t`` needs ``t * time_scales[pe]`` control steps on ``pe``.
        Defaults to all ones (homogeneous).
    """

    def __init__(
        self,
        num_pes: int,
        links: Iterable[tuple[int, int]],
        *,
        name: str = "custom",
        comm_model: CommModel | None = None,
        time_scales: Sequence[int] | None = None,
    ):
        if num_pes < 1:
            raise ArchitectureError(f"need at least one PE, got {num_pes}")
        self.name = name
        self.num_pes = int(num_pes)
        self.comm_model: CommModel = (
            comm_model if comm_model is not None else StoreAndForwardModel()
        )
        if time_scales is None:
            self._time_scales: tuple[int, ...] = (1,) * num_pes
        else:
            scales = tuple(int(s) for s in time_scales)
            if len(scales) != num_pes:
                raise ArchitectureError(
                    f"need {num_pes} time scales, got {len(scales)}"
                )
            if any(s < 1 for s in scales):
                raise ArchitectureError("time scales must be >= 1")
            self._time_scales = scales
        adj: list[set[int]] = [set() for _ in range(num_pes)]
        canonical: set[tuple[int, int]] = set()
        for a, b in links:
            self._check_pe(a)
            self._check_pe(b)
            if a == b:
                raise ArchitectureError(f"self-link on PE {a}")
            adj[a].add(b)
            adj[b].add(a)
            canonical.add((min(a, b), max(a, b)))
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self._links: tuple[tuple[int, int], ...] = tuple(sorted(canonical))
        self._distance = self._all_pairs_hops()
        if any(-1 in row for row in self._distance):
            raise ArchitectureError(f"architecture {name!r} is not connected")

    # ------------------------------------------------------------------
    def _check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.num_pes):
            raise UnknownProcessorError(
                f"PE {pe} outside 0..{self.num_pes - 1} of {self.name!r}"
            )

    def _all_pairs_hops(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop counts via per-source BFS over the adjacency.

        Returns one tuple of ints per source PE; unreachable pairs are
        -1 (rejected by the constructor).  A BFS stops at the level
        that reaches its last PE, so a dense machine never rescans the
        links of its final frontier.
        """
        n = self.num_pes
        adjacency = self._adjacency
        rows = []
        for src in range(n):
            row = [-1] * n
            row[src] = 0
            left = n - 1
            frontier = [src]
            depth = 0
            while left and frontier:
                depth += 1
                nxt: list[int] = []
                for node in frontier:
                    for nb in adjacency[node]:
                        if row[nb] < 0:
                            row[nb] = depth
                            nxt.append(nb)
                left -= len(nxt)
                frontier = nxt
            rows.append(tuple(row))
        return tuple(rows)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def processors(self) -> Sequence[int]:
        """Iterable of *usable* PE ids (0-based).  Degraded topologies
        override this to yield surviving processors only."""
        return range(self.num_pes)

    def is_alive(self, pe: int) -> bool:
        """Whether ``pe`` may execute tasks (always true on a healthy
        machine; degraded topologies report failed PEs)."""
        self._check_pe(pe)
        return True

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        """Canonical undirected link list (a < b)."""
        return self._links

    def neighbors(self, pe: int) -> tuple[int, ...]:
        """PEs one link away from ``pe``."""
        self._check_pe(pe)
        return self._adjacency[pe]

    def degree(self, pe: int) -> int:
        self._check_pe(pe)
        return len(self._adjacency[pe])

    def hops(self, src: int, dst: int) -> int:
        """Shortest-path link count between two PEs."""
        self._check_pe(src)
        self._check_pe(dst)
        return self._distance[src][dst]

    @property
    def distance_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Hop counts as one read-only row per PE: ``[src][dst]``.

        Hop counts are symmetric, so row ``p`` is also column ``p``.
        """
        return self._distance

    @cached_property
    def diameter(self) -> int:
        """Maximum hop distance over all PE pairs (computed once, like
        :attr:`average_distance`: the hop table never changes)."""
        return max(map(max, self._distance))

    @cached_property
    def average_distance(self) -> float:
        """Mean hop distance over ordered distinct PE pairs."""
        n = self.num_pes
        if n == 1:
            return 0.0
        return sum(map(sum, self._distance)) / (n * (n - 1))

    def comm_cost(self, src: int, dst: int, volume: int) -> int:
        """The paper's ``M(p_src, p_dst)``: cost of shipping ``volume``
        units from ``src`` to ``dst`` (0 when ``src == dst``)."""
        return self.comm_model.cost(self.hops(src, dst), volume)

    @property
    def time_scales(self) -> tuple[int, ...]:
        """Per-PE execution-time multipliers (all ones when
        homogeneous)."""
        return self._time_scales

    @property
    def is_heterogeneous(self) -> bool:
        """True when some PE runs at a different speed."""
        return len(set(self._time_scales)) > 1

    def execution_time(self, pe: int, base_time: int) -> int:
        """Control steps a ``base_time`` task needs on ``pe``."""
        self._check_pe(pe)
        return base_time * self._time_scales[pe]

    # ------------------------------------------------------------------
    def with_comm_model(self, comm_model: CommModel) -> "Architecture":
        """A copy of this architecture under a different cost model."""
        return Architecture(
            self.num_pes,
            self._links,
            name=self.name,
            comm_model=comm_model,
            time_scales=self._time_scales,
        )

    def with_time_scales(self, time_scales: Sequence[int]) -> "Architecture":
        """A copy of this topology with per-PE speed multipliers."""
        return Architecture(
            self.num_pes,
            self._links,
            name=f"{self.name}-hetero",
            comm_model=self.comm_model,
            time_scales=time_scales,
        )

    def to_networkx(self):
        """The underlying undirected link graph as ``networkx.Graph``."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(self.processors)
        g.add_edges_from(self._links)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Architecture(name={self.name!r}, num_pes={self.num_pes}, "
            f"links={len(self._links)}, comm={self.comm_model.name})"
        )
