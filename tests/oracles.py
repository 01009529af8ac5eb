"""Reference oracles the tests check ``repro`` against.

The package computes the iteration bound one way, Howard's policy
iteration (:func:`repro.graph.properties.iteration_bound`), and builds
its hop table by one BFS per PE.  The independent methods the tests
compare them with live here, beside the tests, so the package itself
needs no third-party library:

* :func:`iteration_bound_exact` — Johnson's simple-cycle enumeration
  through networkx, exponential but obviously right on small graphs;
* :func:`karp_maximum_cycle_ratio` — an exact per-SCC bisection with
  Bellman–Ford tests, polynomial, for graphs too large to enumerate;
* :func:`simple_cycles` and :func:`hop_counts` — networkx's cycle
  enumeration and all-pairs BFS, run on private converters from
  :class:`~repro.graph.CSDFG` and :class:`~repro.arch.Architecture`.

Tests import this module relatively (``from ..oracles import ...``).
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx

from repro.errors import GraphError
from repro.graph.cycles import recursive_core


def _to_networkx(graph) -> nx.DiGraph:
    """A CSDFG as a :class:`networkx.DiGraph`: node attribute ``time``,
    edge attributes ``delay`` and ``volume``."""
    g = nx.DiGraph(name=graph.name)
    for node in graph.nodes():
        g.add_node(node, time=graph.time(node))
    for edge in graph.edges():
        g.add_edge(edge.src, edge.dst, delay=edge.delay, volume=edge.volume)
    return g


def _arch_to_networkx(arch) -> nx.Graph:
    """The usable PEs of ``arch`` and their links as an undirected
    :class:`networkx.Graph` (a degraded topology keeps its survivors)."""
    g = nx.Graph(name=arch.name)
    g.add_nodes_from(arch.processors)
    g.add_edges_from(arch.links)
    return g


def simple_cycles(graph):
    """Every simple cycle of ``graph`` as a node list (Johnson's
    algorithm, in networkx's order)."""
    return nx.simple_cycles(_to_networkx(graph))


def hop_counts(arch) -> dict[int, dict[int, int]]:
    """Hop count between every pair of usable PEs of ``arch`` by
    networkx's all-pairs BFS."""
    return dict(nx.all_pairs_shortest_path_length(_arch_to_networkx(arch)))


def iteration_bound_exact(graph, max_cycles: int = 2_000_000) -> Fraction:
    """Iteration bound by enumerating simple cycles (Johnson's algorithm).

    Exponential in the worst case; intended for small graphs.
    ``max_cycles`` guards runaway enumeration.
    """
    best = Fraction(0)
    count = 0
    for cycle in simple_cycles(graph):
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


def karp_maximum_cycle_ratio(graph) -> Fraction:
    """Maximum cycle ratio ``max_C (sum t / sum d)`` by exact bisection
    per SCC.

    For each non-trivial SCC, bisects the ratio ``lambda`` with exact
    Bellman–Ford tests for a cycle of positive weight
    ``t - lambda * d``, then snaps the bracket to the unique fraction
    whose denominator is at most the SCC's total delay.  Slower than
    :func:`repro.graph.properties.iteration_bound` but polynomial and
    built on a different method, so it stays as the oracle for graphs
    too large to enumerate (the name is historical).

    Raises :class:`GraphError` on a zero-delay cycle (illegal CSDFG).
    """
    best = Fraction(0)
    for comp in recursive_core(graph):
        ratio = _karp_scc(graph, comp)
        if ratio > best:
            best = ratio
    return best


def _karp_scc(graph, comp) -> Fraction:
    """Binary-search the critical ratio of one SCC using Bellman–Ford
    positivity tests with exact rational arithmetic."""
    members = set(comp)
    edges = [
        (e.src, e.dst, graph.time(e.src), e.delay)
        for e in graph.edges()
        if e.src in members and e.dst in members
    ]
    total_time = sum(graph.time(v) for v in comp)
    total_delay = sum(d for _, _, _, d in edges)
    if total_delay == 0:
        raise GraphError("zero-delay cycle in SCC: illegal CSDFG")

    def has_positive_cycle(lam: Fraction) -> bool:
        """Is there a cycle with sum(t) - lam*sum(d) > 0?

        True exactly when ``lam`` lies strictly below the SCC's
        maximum cycle ratio (Bellman–Ford longest-path divergence).
        """
        dist = {v: Fraction(0) for v in comp}
        for _ in range(len(comp)):
            changed = False
            for u, v, t, d in edges:
                cand = dist[u] + t - lam * d
                if cand > dist[v]:
                    dist[v] = cand
                    changed = True
            if not changed:
                return False
        return True

    # the ratio is a fraction p/q with q <= total_delay; bisect until
    # the bracket (lo, hi] isolates a single such fraction, then snap
    lo, hi = Fraction(0), Fraction(total_time) + 1
    eps = Fraction(1, total_delay * total_delay + 1)
    while hi - lo >= Fraction(1, 2 * total_delay * total_delay):
        mid = (lo + hi) / 2
        if has_positive_cycle(mid):
            lo = mid
        else:
            hi = mid
    candidate = _snap(lo, hi, total_delay)
    if (
        candidate is not None
        and not has_positive_cycle(candidate)
        and has_positive_cycle(candidate - eps)
    ):
        return candidate
    # defensive fallback: scan nearby fractions
    for den in range(1, total_delay + 1):
        num = round(lo * den)
        for delta in (-1, 0, 1):
            f = Fraction(num + delta, den)
            if f > 0 and not has_positive_cycle(f) and has_positive_cycle(
                f - eps
            ):
                return f
    raise GraphError("could not isolate the maximum cycle ratio")


def _snap(lo: Fraction, hi: Fraction, max_den: int) -> Fraction | None:
    """The unique fraction with denominator <= max_den inside (lo, hi]
    when the interval is narrow enough."""
    mid = (lo + hi) / 2
    return mid.limit_denominator(max_den)
