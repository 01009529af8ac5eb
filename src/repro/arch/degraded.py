"""Degraded topologies: a registered architecture minus failed hardware.

A :class:`DegradedTopology` wraps any :class:`~repro.arch.topology.
Architecture` and removes a set of failed PEs and/or links.  PE ids are
*preserved* — the surviving machine keeps the base machine's id space so
existing schedule tables, placements and renderings stay addressable —
but failed PEs disappear from :attr:`processors`, report
``is_alive() == False``, and may not execute tasks or carry traffic.
Hop counts and routes are recomputed over the surviving network only;
if the survivors are split into more than one connected component the
constructor raises :class:`~repro.errors.DisconnectedTopologyError`
(no static schedule can route across a cut network).

This is the architecture-side half of the resilience story: the
communication-sensitive remapping machinery runs unmodified on a
degraded topology because every scheduler iterates
``arch.processors`` and prices communication through ``arch.hops`` —
both of which here reflect the surviving network.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from repro.arch.topology import Architecture
from repro.errors import (
    ArchitectureError,
    DeadProcessorError,
    DisconnectedTopologyError,
)

__all__ = ["DegradedTopology"]


def _canonical_links(links: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in links}


class DegradedTopology(Architecture):
    """``base`` with ``failed_pes`` and ``failed_links`` removed.

    Parameters
    ----------
    base:
        The healthy architecture (any registered topology, including
        another :class:`DegradedTopology` — faults compose).
    failed_pes:
        PE ids that no longer execute tasks; every link touching a
        failed PE is removed too.
    failed_links:
        Undirected ``(a, b)`` pairs to remove; each must exist in
        ``base``.

    Raises
    ------
    DisconnectedTopologyError
        When the surviving PEs are not mutually reachable (or none
        survive at all).
    DeadProcessorError
        From :meth:`hops` / :meth:`comm_cost` / :meth:`execution_time`
        when a failed PE is addressed.
    """

    def __init__(
        self,
        base: Architecture,
        *,
        failed_pes: Iterable[int] = (),
        failed_links: Iterable[tuple[int, int]] = (),
    ):
        failed = frozenset(int(p) for p in failed_pes)
        for pe in failed:
            base._check_pe(pe)
        removed = _canonical_links(failed_links)
        base_links = set(base.links)
        for link in sorted(removed):
            if link not in base_links:
                raise ArchitectureError(
                    f"link {link} is not a link of {base.name!r}; "
                    f"links: {list(base.links)}"
                )

        alive = [pe for pe in range(base.num_pes) if pe not in failed]
        if not alive:
            raise DisconnectedTopologyError(
                f"all {base.num_pes} PEs of {base.name!r} failed", []
            )

        surviving = tuple(
            sorted(
                link
                for link in base_links - removed
                if link[0] not in failed and link[1] not in failed
            )
        )

        # mirror Architecture.__init__ but check connectivity over the
        # surviving PEs only (failed PEs are legitimately unreachable)
        self.base = base
        self.name = f"{base.name}-degraded"
        self.num_pes = base.num_pes
        self.comm_model = base.comm_model
        self._time_scales = base.time_scales
        self._failed_pes = failed
        self._failed_links = frozenset(removed)
        adj: list[set[int]] = [set() for _ in range(self.num_pes)]
        for a, b in surviving:
            adj[a].add(b)
            adj[b].add(a)
        self._adjacency = tuple(tuple(sorted(s)) for s in adj)
        self._links = surviving
        self._distance = self._all_pairs_hops()
        self._alive = tuple(alive)
        components = self._components(alive)
        if len(components) > 1:
            raise DisconnectedTopologyError(
                f"removing {sorted(failed) or 'no'} PE(s) and "
                f"{sorted(removed) or 'no'} link(s) disconnects "
                f"{base.name!r}: surviving components {components}",
                components,
            )

    def _components(self, alive: list[int]) -> list[list[int]]:
        """Connected components of the surviving network."""
        components: list[list[int]] = []
        seen: set[int] = set()
        for start in alive:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nb in self._adjacency[node]:
                    if nb not in seen:
                        seen.add(nb)
                        comp.append(nb)
                        frontier.append(nb)
            components.append(sorted(comp))
        return components

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def processors(self) -> Sequence[int]:
        """Surviving PE ids only (schedulers never see failed PEs)."""
        return self._alive

    @property
    def num_alive(self) -> int:
        return len(self._alive)

    @property
    def failed_pes(self) -> frozenset[int]:
        return self._failed_pes

    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        return self._failed_links

    def is_alive(self, pe: int) -> bool:
        self._check_pe(pe)
        return pe not in self._failed_pes

    def _check_alive(self, pe: int) -> None:
        self._check_pe(pe)
        if pe in self._failed_pes:
            raise DeadProcessorError(
                f"pe{pe + 1} of {self.name!r} has failed"
            )

    # ------------------------------------------------------------------
    # queries rerouted through the surviving network
    # ------------------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        self._check_alive(src)
        self._check_alive(dst)
        return self._distance[src][dst]

    def execution_time(self, pe: int, base_time: int) -> int:
        self._check_alive(pe)
        return base_time * self._time_scales[pe]

    def _alive_rows(self):
        """Each surviving PE's hop row, restricted to surviving PEs."""
        alive = self._alive
        for src in alive:
            row = self._distance[src]
            yield [row[dst] for dst in alive]

    @cached_property
    def diameter(self) -> int:
        """Maximum hop distance over surviving PE pairs."""
        return max(map(max, self._alive_rows()))

    @cached_property
    def average_distance(self) -> float:
        """Mean hop distance over ordered distinct surviving pairs."""
        n = len(self._alive)
        if n == 1:
            return 0.0
        return sum(map(sum, self._alive_rows())) / (n * (n - 1))

    # ------------------------------------------------------------------
    def degrade(
        self,
        *,
        failed_pes: Iterable[int] = (),
        failed_links: Iterable[tuple[int, int]] = (),
    ) -> "DegradedTopology":
        """A further-degraded copy (faults accumulate against ``base``)."""
        return DegradedTopology(
            self.base,
            failed_pes=self._failed_pes | frozenset(failed_pes),
            failed_links=self._failed_links | _canonical_links(failed_links),
        )

    def with_comm_model(self, comm_model) -> "DegradedTopology":
        return DegradedTopology(
            self.base.with_comm_model(comm_model),
            failed_pes=self._failed_pes,
            failed_links=self._failed_links,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DegradedTopology(base={self.base.name!r}, "
            f"failed_pes={sorted(self._failed_pes)}, "
            f"failed_links={sorted(self._failed_links)}, "
            f"alive={len(self._alive)}/{self.num_pes})"
        )
