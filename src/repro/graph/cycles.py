"""Cycle structure analysis: SCC decomposition and a cycle-ratio oracle.

Complements :mod:`repro.graph.properties` with the classical machinery
for recursive data flow graphs:

* :func:`strongly_connected_components` — Tarjan's algorithm (iterative),
  separating the *recursive core* (non-trivial SCCs, whose cycles bound
  the throughput) from the feed-forward part (which retiming can
  pipeline arbitrarily),
* :func:`scc_condensation` — the DAG of SCCs,
* :func:`karp_maximum_cycle_ratio` — the maximum cycle ratio (time over
  delay) by an exact per-SCC bisection, a polynomial oracle independent
  of :func:`repro.graph.properties.iteration_bound` (Howard's policy
  iteration) that the tests cross-check it against on graphs too large
  for cycle enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import GraphError
from repro.graph.csdfg import CSDFG, Node

__all__ = [
    "strongly_connected_components",
    "scc_condensation",
    "recursive_core",
    "karp_maximum_cycle_ratio",
]


def strongly_connected_components(graph: CSDFG) -> list[list[Node]]:
    """Tarjan's SCC algorithm, iterative (safe for deep graphs).

    Returns components in reverse topological order of the
    condensation (Tarjan's natural emission order); node order inside
    a component follows the stack.
    """
    index_of: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0

    for root in graph.nodes():
        if root in index_of:
            continue
        work: list[tuple[Node, list[Node], int]] = [
            (root, list(graph.successors(root)), 0)
        ]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, pos = work.pop()
            advanced = False
            while pos < len(succs):
                nxt = succs[pos]
                pos += 1
                if nxt not in index_of:
                    work.append((node, succs, pos))
                    index_of[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, list(graph.successors(nxt)), 0))
                    advanced = True
                    break
                if nxt in on_stack and index_of[nxt] < low[node]:
                    low[node] = index_of[nxt]
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: list[Node] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return components


def scc_condensation(graph: CSDFG) -> tuple[list[list[Node]], list[tuple[int, int]]]:
    """The condensation DAG: (components, inter-component edges).

    Edge ``(i, j)`` means some dependence runs from component ``i`` to
    component ``j``; duplicates are removed.
    """
    components = strongly_connected_components(graph)
    index: dict[Node, int] = {}
    for k, comp in enumerate(components):
        for v in comp:
            index[v] = k
    edges = {
        (index[e.src], index[e.dst])
        for e in graph.edges()
        if index[e.src] != index[e.dst]
    }
    return components, sorted(edges)


def recursive_core(graph: CSDFG) -> list[list[Node]]:
    """Non-trivial SCCs (size > 1 or a self-loop): the recursion that
    bounds the achievable initiation interval."""
    return [
        comp
        for comp in strongly_connected_components(graph)
        if len(comp) > 1 or graph.has_edge(comp[0], comp[0])
    ]


def karp_maximum_cycle_ratio(graph: CSDFG) -> Fraction:
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


def _karp_scc(graph: CSDFG, comp: list[Node]) -> Fraction:
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
