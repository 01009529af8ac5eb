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
  processor count.  Two independent implementations are provided
  (Lawler's parametric binary search and a brute-force cycle
  enumeration) and cross-checked in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from repro.errors import GraphError
from repro.graph.csdfg import CSDFG, Node
from repro.graph.validation import topological_order_zero_delay

__all__ = [
    "asap_times",
    "alap_times",
    "critical_path_length",
    "critical_path_nodes",
    "iteration_bound",
    "iteration_bound_exact",
    "parallelism_profile",
]


def asap_times(
    graph: CSDFG, *, order: list[Node] | None = None
) -> dict[Node, int]:
    """As-soon-as-possible start control step of every node.

    Computed over the zero-delay sub-DAG with unlimited processors and
    zero communication cost; control steps start at 1 (paper
    convention).  ``order`` is the zero-delay topological order when
    the caller already has it.
    """
    if order is None:
        order = topological_order_zero_delay(graph)
    start: dict[Node, int] = {v: 1 for v in order}
    for node in order:
        finish = start[node] + graph.time(node) - 1
        for edge in graph.out_edges(node):
            if edge.delay == 0 and start[edge.dst] < finish + 1:
                start[edge.dst] = finish + 1
    return start


def critical_path_length(
    graph: CSDFG, *, order: list[Node] | None = None
) -> int:
    """Length (in control steps) of the longest zero-delay path.

    Equals the minimum possible schedule length with unlimited
    processors and free communication.
    """
    if graph.num_nodes == 0:
        return 0
    starts = asap_times(graph, order=order)
    return max(starts[v] + graph.time(v) - 1 for v in graph.nodes())


def alap_times(
    graph: CSDFG,
    horizon: int | None = None,
    *,
    order: list[Node] | None = None,
) -> dict[Node, int]:
    """As-late-as-possible start control steps w.r.t. ``horizon``.

    ``horizon`` defaults to the critical path length, so nodes on the
    critical path satisfy ``ASAP == ALAP``.  ``order`` is the zero-delay
    topological order when the caller already has it.
    """
    if order is None:
        order = topological_order_zero_delay(graph)
    if horizon is None:
        horizon = critical_path_length(graph, order=order)
    start: dict[Node, int] = {
        v: horizon - graph.time(v) + 1 for v in order
    }
    for node in reversed(order):
        for edge in graph.out_edges(node):
            if edge.delay == 0:
                latest = start[edge.dst] - graph.time(node)
                if start[node] > latest:
                    start[node] = latest
    return start


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

    Returns ``Fraction(0)`` for acyclic graphs.  Uses Lawler's
    parametric shortest-path scheme: ratio ``r`` is feasible
    (``r >= bound``) iff the edge weights ``t(u) - r * d(e)`` admit no
    positive cycle; binary search over ``r`` on the Stern–Brocot-free
    grid of candidate fractions is replaced by a numeric bisection
    followed by an exact rational snap (denominators are bounded by the
    total delay in the graph).
    """
    total_delay = sum(e.delay for e in graph.edges())
    if total_delay == 0 or graph.num_nodes == 0:
        return Fraction(0)
    if not _has_cycle(graph):
        return Fraction(0)

    total_time = graph.total_work()
    lo, hi = 0.0, float(total_time)  # bound <= sum of all times (cycle delay >= 1)
    # Bisect until the interval isolates a single candidate fraction
    # p / q with q <= total_delay; then verify exactly.
    for _ in range(64):
        mid = (lo + hi) / 2.0
        if _has_positive_cycle(graph, mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1.0 / (2.0 * total_delay * total_delay):
            break
    candidate = _closest_fraction((lo + hi) / 2.0, total_delay)
    # exact verification and (if needed) one-step correction
    for probe in _fraction_neighbourhood(candidate, total_delay):
        if not _has_positive_cycle_exact(graph, probe) and _has_zero_cycle_exact(
            graph, probe
        ):
            return probe
    # fall back to exact enumeration (small graphs only)
    return iteration_bound_exact(graph)


def iteration_bound_exact(graph: CSDFG, max_cycles: int = 2_000_000) -> Fraction:
    """Iteration bound by enumerating simple cycles (Johnson's algorithm).

    Exponential in the worst case; intended for tests and small
    benchmark graphs.  ``max_cycles`` guards runaway enumeration.
    """
    import networkx as nx

    g = graph.to_networkx()
    best = Fraction(0)
    count = 0
    for cycle in nx.simple_cycles(g):
        count += 1
        if count > max_cycles:
            raise GraphError("cycle enumeration exceeded max_cycles")
        time = sum(graph.time(v) for v in cycle)
        delay = 0
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            delay += graph.delay(u, v)
        if delay <= 0:
            raise GraphError("illegal CSDFG: nonpositive-delay cycle")
        ratio = Fraction(time, delay)
        if ratio > best:
            best = ratio
    return best


# -- helpers -----------------------------------------------------------
def _has_cycle(graph: CSDFG) -> bool:
    import networkx as nx

    return not nx.is_directed_acyclic_graph(graph.to_networkx())


def _iter_weighted_edges(graph: CSDFG) -> Iterable[tuple[Node, Node, int, int]]:
    for e in graph.edges():
        yield e.src, e.dst, graph.time(e.src), e.delay


def _has_positive_cycle(graph: CSDFG, ratio: float) -> bool:
    """Bellman–Ford longest-path: is there a cycle with w(e)=t-r*d > 0?"""
    nodes = list(graph.nodes())
    dist = {v: 0.0 for v in nodes}
    edges = [(u, v, t - ratio * d) for u, v, t, d in _iter_weighted_edges(graph)]
    for _ in range(len(nodes)):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand > dist[v] + 1e-12:
                dist[v] = cand
                changed = True
        if not changed:
            return False
    return True


def _has_positive_cycle_exact(graph: CSDFG, ratio: Fraction) -> bool:
    nodes = list(graph.nodes())
    dist = {v: Fraction(0) for v in nodes}
    edges = [
        (u, v, Fraction(t) - ratio * d) for u, v, t, d in _iter_weighted_edges(graph)
    ]
    for _ in range(len(nodes)):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            return False
    return True


def _has_zero_cycle_exact(graph: CSDFG, ratio: Fraction) -> bool:
    """With weights t - r*d, is some cycle exactly critical (weight 0)?

    True iff ``ratio`` equals the maximum cycle ratio, given that no
    positive cycle exists at ``ratio``.
    """
    # run longest path to fixpoint, then look for a tight edge cycle
    nodes = list(graph.nodes())
    dist = {v: Fraction(0) for v in nodes}
    edges = [
        (u, v, Fraction(t) - ratio * d) for u, v, t, d in _iter_weighted_edges(graph)
    ]
    for _ in range(len(nodes) + 1):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
    # tight subgraph: edges with dist[v] == dist[u] + w
    tight: dict[Node, list[Node]] = {v: [] for v in nodes}
    for u, v, w in edges:
        if dist[v] == dist[u] + w:
            tight[u].append(v)
    # cycle detection in the tight subgraph
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {v: WHITE for v in nodes}
    for start in nodes:
        if colour[start] != WHITE:
            continue
        stack = [(start, iter(tight[start]))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour[nxt] == GREY:
                    return True
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(tight[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return False


def _closest_fraction(x: float, max_den: int) -> Fraction:
    return Fraction(x).limit_denominator(max_den)


def _fraction_neighbourhood(f: Fraction, max_den: int) -> list[Fraction]:
    """Candidate fractions near ``f`` with denominator <= max_den."""
    candidates = {f}
    for den in range(1, max_den + 1):
        num = round(float(f) * den)
        for delta in (-1, 0, 1):
            p = num + delta
            if p >= 0:
                candidates.add(Fraction(p, den))
    eps = Fraction(1, max(1, max_den * max_den))
    return sorted(c for c in candidates if abs(c - f) <= max(eps * 4, Fraction(1, max_den)))
