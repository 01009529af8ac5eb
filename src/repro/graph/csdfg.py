"""Communication-sensitive data flow graphs (CSDFG).

The CSDFG is the input model of the ICPP'95 paper: a directed graph
``G = (V, E, d, t, c)`` where

* each node ``v`` is a computational task with execution time ``t(v) >= 1``
  control steps,
* each edge ``u -> v`` carries ``d(e) >= 0`` *delays* (the inter-iteration
  dependence distance: ``v`` at iteration ``j`` consumes the value produced
  by ``u`` at iteration ``j - d(e)``) and a *data volume* ``c(e) >= 1``
  (the number of units shipped when the endpoints execute on different
  processors).

A CSDFG is *legal* when every directed cycle carries a strictly positive
total delay; :mod:`repro.graph.validation` checks this.

The class is a thin, explicit adjacency structure rather than a wrapper
around a graph library: the scheduling inner loops touch
predecessor/successor lists and edge attributes millions of times, and
attribute-dict indirection dominates profiles.  The package needs no
graph library at all; a graph held in one converts with an
:meth:`CSDFG.add_node` / :meth:`CSDFG.add_edge` loop or
:func:`repro.graph.io.from_edge_list`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from repro.errors import GraphError, IllegalRetimingError

__all__ = ["Edge", "CSDFG", "Node"]

#: Type alias for node identifiers.  Any hashable works; the bundled
#: workloads use short strings (``"A"``, ``"mul3"``).
Node = Hashable


@dataclass(frozen=True, slots=True)
class Edge:
    """A dependence edge ``src -> dst`` with its delay and data volume.

    Instances are immutable; mutating a delay (retiming) produces a new
    :class:`Edge` inside the owning graph, so graph copies share their
    edges.
    """

    src: Node
    dst: Node
    delay: int
    volume: int

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise GraphError(
                f"edge {self.src!r}->{self.dst!r}: delay must be >= 0, got {self.delay}"
            )
        if self.volume < 1:
            raise GraphError(
                f"edge {self.src!r}->{self.dst!r}: volume must be >= 1, got {self.volume}"
            )

    @property
    def key(self) -> tuple[Node, Node]:
        """The ``(src, dst)`` pair identifying this edge in its graph."""
        return (self.src, self.dst)

    def with_delay(self, delay: int) -> "Edge":
        """Return a copy of this edge carrying ``delay`` delays."""
        if delay < 0:
            raise GraphError(
                f"edge {self.src!r}->{self.dst!r}: delay must be >= 0, got {delay}"
            )
        # hot path for retiming: clone without re-entering the dataclass
        # machinery (volume was validated when this edge was built)
        clone = object.__new__(Edge)
        object.__setattr__(clone, "src", self.src)
        object.__setattr__(clone, "dst", self.dst)
        object.__setattr__(clone, "delay", delay)
        object.__setattr__(clone, "volume", self.volume)
        return clone


class CSDFG:
    """A mutable communication-sensitive data flow graph.

    Parameters
    ----------
    name:
        Free-form label used in reports and renderings.

    Notes
    -----
    At most one edge may connect an ordered node pair.  Parallel
    dependences collapse to a single edge in this model because only the
    tightest precedence constraint matters for scheduling; use
    :func:`repro.graph.transform.merge_parallel_edges` when building
    graphs from sources that may contain duplicates.
    """

    def __init__(self, name: str = "csdfg"):
        self.name = name
        self._time: dict[Node, int] = {}
        self._succ: dict[Node, dict[Node, Edge]] = {}
        self._pred: dict[Node, dict[Node, Edge]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, time: int = 1) -> Node:
        """Add a task ``node`` with execution ``time`` control steps.

        Re-adding an existing node updates its execution time.
        """
        if time < 1:
            raise GraphError(f"node {node!r}: execution time must be >= 1, got {time}")
        if node not in self._time:
            self._succ[node] = {}
            self._pred[node] = {}
        self._time[node] = int(time)
        return node

    def add_nodes(self, nodes: Iterable[Node], time: int = 1) -> None:
        """Add several nodes sharing the same execution time."""
        for node in nodes:
            self.add_node(node, time)

    def add_edge(self, src: Node, dst: Node, delay: int = 0, volume: int = 1) -> Edge:
        """Add the dependence edge ``src -> dst``.

        Endpoints must already exist (this catches typos in hand-built
        benchmark graphs early).  Adding a second edge over the same
        ordered pair is an error.
        """
        for endpoint in (src, dst):
            if endpoint not in self._time:
                raise GraphError(f"edge {src!r}->{dst!r}: unknown node {endpoint!r}")
        if dst in self._succ[src]:
            raise GraphError(f"duplicate edge {src!r}->{dst!r}")
        edge = Edge(src, dst, int(delay), int(volume))
        self._succ[src][dst] = edge
        self._pred[dst][src] = edge
        return edge

    def remove_edge(self, src: Node, dst: Node) -> Edge:
        """Remove and return the edge ``src -> dst``."""
        try:
            edge = self._succ[src].pop(dst)
        except KeyError:
            raise GraphError(f"no edge {src!r}->{dst!r}") from None
        del self._pred[dst][src]
        return edge

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._time:
            raise GraphError(f"unknown node {node!r}")
        for other in list(self._succ[node]):
            self.remove_edge(node, other)
        for other in list(self._pred[node]):
            self.remove_edge(other, node)
        del self._time[node]
        del self._succ[node]
        del self._pred[node]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._time)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def __len__(self) -> int:
        return len(self._time)

    def __contains__(self, node: Node) -> bool:
        return node in self._time

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._time)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (grouped by source, insertion order)."""
        for succ in self._succ.values():
            yield from succ.values()

    def time(self, node: Node) -> int:
        """Execution time ``t(node)`` in control steps."""
        try:
            return self._time[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def times(self) -> Mapping[Node, int]:
        """Read-only view of the execution-time map."""
        return dict(self._time)

    def has_edge(self, src: Node, dst: Node) -> bool:
        return src in self._succ and dst in self._succ[src]

    def edge(self, src: Node, dst: Node) -> Edge:
        """The edge ``src -> dst`` (raises :class:`GraphError` if absent)."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"no edge {src!r}->{dst!r}") from None

    def delay(self, src: Node, dst: Node) -> int:
        """Delay count ``d(src -> dst)``."""
        return self.edge(src, dst).delay

    def volume(self, src: Node, dst: Node) -> int:
        """Data volume ``c(src -> dst)``."""
        return self.edge(src, dst).volume

    def successors(self, node: Node) -> Iterator[Node]:
        if node not in self._time:
            raise GraphError(f"unknown node {node!r}")
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        if node not in self._time:
            raise GraphError(f"unknown node {node!r}")
        return iter(self._pred[node])

    def out_edges(self, node: Node) -> Iterator[Edge]:
        if node not in self._time:
            raise GraphError(f"unknown node {node!r}")
        return iter(self._succ[node].values())

    def in_edges(self, node: Node) -> Iterator[Edge]:
        if node not in self._time:
            raise GraphError(f"unknown node {node!r}")
        return iter(self._pred[node].values())

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def roots(self) -> list[Node]:
        """Nodes with no *zero-delay* incoming edge (DAG sources).

        Delayed incoming edges reference previous iterations, so they do
        not prevent a node from starting an iteration.
        """
        return [
            v
            for v in self._time
            if all(e.delay > 0 for e in self._pred[v].values())
        ]

    def total_work(self) -> int:
        """Sum of all execution times — the single-processor bound."""
        return sum(self._time.values())

    # ------------------------------------------------------------------
    # retiming support (delay rewrites)
    # ------------------------------------------------------------------
    def set_delay(self, src: Node, dst: Node, delay: int) -> None:
        """Overwrite the delay on ``src -> dst`` (must stay >= 0)."""
        edge = self.edge(src, dst).with_delay(delay)
        self._succ[src][dst] = edge
        self._pred[dst][src] = edge

    # ------------------------------------------------------------------
    # copies and conversions
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "CSDFG":
        """Independent copy (nodes, times, edges).

        The copy shares the immutable :class:`Edge` objects; mutating
        either graph replaces edges in that graph only.
        """
        return self._clone(name)

    def _clone(
        self, name: str | None, retiming: Mapping[Node, int] | None = None
    ) -> "CSDFG":
        """Copy in one walk over the edges, optionally retimed.

        Each edge ``u -> v`` carries ``d + r(u) - r(v)`` delays
        (``retiming`` missing a node reads as 0); only edges whose delay
        changes become new :class:`Edge` objects.  ``_pred`` is filled
        in the source-grouped order of :meth:`edges`, exactly as an
        :meth:`add_edge` loop over this graph would.  Raises
        :class:`IllegalRetimingError` at the first edge, in :meth:`edges`
        order, whose delay would become negative.
        """
        clone = CSDFG(name if name is not None else self.name)
        clone._time = dict(self._time)
        succ = clone._succ = {}
        pred = clone._pred = {node: {} for node in self._time}
        shift = retiming.get if retiming else None
        for src, out in self._succ.items():
            row = succ[src] = {}
            r_src = shift(src, 0) if shift is not None else 0
            for dst, edge in out.items():
                if shift is not None:
                    delay = edge.delay + r_src - shift(dst, 0)
                    if delay != edge.delay:
                        if delay < 0:
                            raise IllegalRetimingError(
                                f"edge {src!r}->{dst!r}: retimed delay "
                                f"{delay} < 0"
                            )
                        edge = edge.with_delay(delay)
                row[dst] = edge
                pred[dst][src] = edge
        return clone

    def relabel(self, mapping: Mapping[Node, Node], name: str | None = None) -> "CSDFG":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their label.  The mapping must
        stay injective over the node set.
        """
        new_labels = [mapping.get(v, v) for v in self._time]
        if len(set(new_labels)) != len(new_labels):
            raise GraphError("relabel mapping is not injective on this graph")
        clone = CSDFG(name if name is not None else self.name)
        for node, time in self._time.items():
            clone.add_node(mapping.get(node, node), time)
        for edge in self.edges():
            clone.add_edge(
                mapping.get(edge.src, edge.src),
                mapping.get(edge.dst, edge.dst),
                edge.delay,
                edge.volume,
            )
        return clone

    def zero_delay_subgraph(self) -> "CSDFG":
        """The sub-DAG of intra-iteration (zero-delay) dependences."""
        sub = CSDFG(f"{self.name}:zero-delay")
        for node, time in self._time.items():
            sub.add_node(node, time)
        for edge in self.edges():
            if edge.delay == 0:
                sub.add_edge(edge.src, edge.dst, 0, edge.volume)
        return sub

    # ------------------------------------------------------------------
    # equality / repr
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "CSDFG") -> bool:
        """True when node times and edge annotations all coincide."""
        if not isinstance(other, CSDFG):
            return False
        if self._time != other._time:
            return False
        mine = {e.key: (e.delay, e.volume) for e in self.edges()}
        theirs = {e.key: (e.delay, e.volume) for e in other.edges()}
        return mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSDFG(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
