"""Analytical properties of CSDFGs.

Implements the quantities the scheduler and the evaluation harness rely
on:

* **ASAP / ALAP** start times and the **critical path** over the
  zero-delay sub-DAG (resource-unconstrained); the paper's mobility
  ``MB(v)`` (Definition 3.4) is ``ALAP(v) - <current control step>``
  and is provided by :func:`repro.core.mobility.mobility_map`.
* The **iteration bound** — the maximum cycle ratio
  ``max over cycles C of (sum of t) / (sum of d)`` — which lower-bounds
  the initiation interval of *any* static schedule regardless of
  processor count.  :func:`iteration_bound` runs Howard's policy
  iteration per strongly connected component.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from repro.errors import GraphError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.cycles import recursive_core
from repro.graph.validation import (
    topological_order_zero_delay,
    zero_delay_index,
)

__all__ = [
    "asap_times",
    "alap_times",
    "alap_indexed",
    "critical_path_length",
    "critical_path_nodes",
    "iteration_bound",
    "parallelism_profile",
]


def _asap_indexed(
    times: Sequence[int],
    rows: Sequence[Sequence[int]],
    order: Iterable[int],
) -> list[int]:
    """ASAP start control step of every node index (arguments as in
    :func:`alap_indexed`); control steps start at 1."""
    start = [1] * len(times)
    for u in order:
        ready = start[u] + times[u]
        for w in rows[u]:
            if start[w] < ready:
                start[w] = ready
    return start


def alap_indexed(
    times: Sequence[int],
    rows: Sequence[Sequence[int]],
    order: Sequence[int],
    horizon: int | None = None,
) -> list[int]:
    """ALAP start control step of every node index w.r.t. ``horizon``.

    ``times[i]`` is node ``i``'s execution time, ``rows[i]`` the indices
    of its zero-delay successors and ``order`` a topological order of
    the indices over the zero-delay sub-DAG.  ``horizon`` defaults to
    the critical path length.
    """
    if horizon is None:
        horizon = _latest_finish(times, _asap_indexed(times, rows, order))
    start = [horizon - t + 1 for t in times]
    for u in reversed(order):
        t = times[u]
        for w in rows[u]:
            latest = start[w] - t
            if start[u] > latest:
                start[u] = latest
    return start


def _latest_finish(times: Sequence[int], starts: Sequence[int]) -> int:
    """Last busy control step of tasks started at ``starts`` (0 when
    there are none)."""
    return max(map(add, starts, times), default=1) - 1


def _levels(
    graph: CSDFG,
) -> tuple[list[Node], list[int], list[list[int]], list[int]]:
    """``(nodes, times, rows, order)`` over :func:`zero_delay_index`."""
    index = zero_delay_index(graph)
    return index.nodes, list(graph._time.values()), index.rows, index.order


def asap_times(graph: CSDFG) -> dict[Node, int]:
    """As-soon-as-possible start control step of every node.

    Computed over the zero-delay sub-DAG with unlimited processors and
    zero communication cost; control steps start at 1 (paper
    convention).
    """
    nodes, times, rows, order = _levels(graph)
    return dict(zip(nodes, _asap_indexed(times, rows, order)))


def critical_path_length(graph: CSDFG) -> int:
    """Length (in control steps) of the longest zero-delay path.

    Equals the minimum possible schedule length with unlimited
    processors and free communication.
    """
    _nodes, times, rows, order = _levels(graph)
    return _latest_finish(times, _asap_indexed(times, rows, order))


def alap_times(graph: CSDFG, horizon: int | None = None) -> dict[Node, int]:
    """As-late-as-possible start control steps w.r.t. ``horizon``.

    ``horizon`` defaults to the critical path length, so nodes on the
    critical path satisfy ``ASAP == ALAP``.
    """
    nodes, times, rows, order = _levels(graph)
    return dict(zip(nodes, alap_indexed(times, rows, order, horizon)))


def critical_path_nodes(graph: CSDFG) -> list[Node]:
    """Nodes with zero slack (``ASAP == ALAP``), in topological order."""
    asap = asap_times(graph)
    alap = alap_times(graph)
    return [v for v in topological_order_zero_delay(graph) if asap[v] == alap[v]]


def parallelism_profile(graph: CSDFG) -> list[int]:
    """Number of nodes executing at each ASAP control step.

    Index 0 corresponds to control step 1.  Useful for sizing the
    processor count of an experiment.
    """
    starts = asap_times(graph)
    length = critical_path_length(graph)
    profile = [0] * length
    for node in graph.nodes():
        begin = starts[node]
        for cs in range(begin, begin + graph.time(node)):
            profile[cs - 1] += 1
    return profile


# ----------------------------------------------------------------------
# iteration bound (maximum cycle ratio)
# ----------------------------------------------------------------------
def iteration_bound(graph: CSDFG) -> Fraction:
    """Maximum cycle ratio ``max_C (sum t) / (sum d)`` as a Fraction.

    Returns ``Fraction(0)`` for acyclic graphs.  Only cycles bound the
    ratio and every cycle lies inside one strongly connected component,
    so the graph is split into its recursive core
    (:func:`repro.graph.cycles.recursive_core`) and Howard's policy
    iteration runs on each cyclic component in exact arithmetic
    (Cochet-Terrasson et al. 1998; Dasdan 2004).

    Raises :class:`GraphError` on a zero-delay cycle (illegal CSDFG).
    """
    return max(
        (_howard_cycle_ratio(graph, comp) for comp in recursive_core(graph)),
        default=Fraction(0),
    )


# -- helpers -----------------------------------------------------------
def _howard_cycle_ratio(graph: CSDFG, comp: list[Node]) -> Fraction:
    """Maximum cycle ratio of one strongly connected component.

    A *policy* keeps one out-edge per node, so its graph is cycles with
    in-trees.  Each round values every node with the ratio ``eta`` of
    the policy cycle it reaches and a potential
    ``x(v) = t(v) - eta * d + x(succ)``, then moves nodes to a successor
    of larger ``eta`` or, when no such move exists, of equal ``eta`` and
    larger ``t(v) - eta * d + x(succ)``.  A policy cycle no move touched
    keeps its potentials, so every round raises ``(eta, x)`` and the
    iteration ends; with no move left ``eta`` is constant over the
    component and no cycle beats it.  As every ``t(v) >= 1``, a
    component with a zero-delay cycle keeps a move left until some
    policy cycle has zero delay, which raises.
    """
    index = {v: i for i, v in enumerate(comp)}
    n = len(comp)
    time = [graph.time(v) for v in comp]
    # out-edges inside the component, as (successor index, delay)
    succs = [
        [(index[e.dst], e.delay) for e in graph.out_edges(v) if e.dst in index]
        for v in comp
    ]
    policy = [min(edges, key=lambda edge: edge[1]) for edges in succs]
    eta: list[Fraction] = [Fraction(0)] * n
    x: list[Fraction] = [Fraction(0)] * n
    moved = [True] * n
    while True:
        # value determination: walk each node's policy path to a node
        # already valued or to a new cycle, then value the path backwards
        valued = [False] * n
        on_path = [False] * n
        for start in range(n):
            path: list[int] = []
            v = start
            while not valued[v] and not on_path[v]:
                on_path[v] = True
                path.append(v)
                v = policy[v][0]
            if not valued[v]:  # the walk closed a new policy cycle at v
                cycle = path[path.index(v):]
                delay = sum(policy[u][1] for u in cycle)
                if delay == 0:
                    raise GraphError("illegal CSDFG: nonpositive-delay cycle")
                eta[v] = Fraction(sum(time[u] for u in cycle), delay)
                if any(moved[u] for u in cycle):
                    x[v] = Fraction(0)
                valued[v] = True
                path.remove(v)
            for u in reversed(path):
                w, d = policy[u]
                eta[u] = eta[w]
                x[u] = time[u] - eta[w] * d + x[w]
                valued[u] = True
        # policy improvement
        moved = [False] * n
        for v, edges in enumerate(succs):
            best = eta[v]
            for edge in edges:
                if eta[edge[0]] > best:
                    best = eta[edge[0]]
                    policy[v] = edge
                    moved[v] = True
        if any(moved):
            continue
        for v, edges in enumerate(succs):
            best = x[v]
            for edge in edges:
                w, d = edge
                if eta[w] == eta[v]:
                    value = time[v] - eta[v] * d + x[w]
                    if value > best:
                        best = value
                        policy[v] = edge
                        moved[v] = True
        if not any(moved):
            return eta[0]
