"""Structural validation of CSDFGs.

A CSDFG is *legal* (paper, §2) when the total delay along every directed
cycle is strictly positive — equivalently, when the zero-delay subgraph is
acyclic.  :func:`validate_csdfg` checks this plus the attribute domains
(``t >= 1``, ``d >= 0``, ``c >= 1``, which the constructors already
enforce) and optional structural expectations such as connectivity.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

from repro.errors import GraphError, GraphValidationError
from repro.graph.csdfg import CSDFG, Edge, Node

__all__ = [
    "find_zero_delay_cycle",
    "kahn_order",
    "topological_order_zero_delay",
    "zero_delay_order",
    "zero_delay_row",
    "zero_delay_rows",
    "collect_issues",
    "validate_csdfg",
    "is_legal",
]


def topological_order_zero_delay(graph: CSDFG) -> list[Node]:
    """Topological order of the zero-delay subgraph (Kahn's algorithm).

    Raises :class:`GraphValidationError` when a zero-delay cycle exists,
    naming one offending cycle.
    """
    # hot path (called once per remapping pass): walk the adjacency
    # dicts directly instead of paying a generator frame per edge
    succ = graph._succ
    indeg: dict[Node, int] = dict.fromkeys(graph._time, 0)
    for adj in succ.values():
        for edge in adj.values():
            if edge.delay == 0:
                indeg[edge.dst] += 1
    frontier = [v for v, k in indeg.items() if k == 0]
    order: list[Node] = []
    append = order.append
    while frontier:
        node = frontier.pop()
        append(node)
        for edge in succ[node].values():
            if edge.delay == 0:
                dst = edge.dst
                remaining = indeg[dst] - 1
                indeg[dst] = remaining
                if remaining == 0:
                    frontier.append(dst)
    if len(order) != graph.num_nodes:
        cycle = find_zero_delay_cycle(graph)
        raise GraphValidationError(
            [f"zero-delay cycle detected: {' -> '.join(map(str, cycle))}"]
        )
    return order


def kahn_order(
    rows: Sequence[Sequence[int]], indeg: Sequence[int]
) -> list[int]:
    """The LIFO Kahn walk of :func:`topological_order_zero_delay` over
    integer-indexed nodes.

    ``rows[i]`` lists node ``i``'s zero-delay successors and ``indeg``
    their in-degrees (left unchanged).  Over :func:`zero_delay_rows` the
    result is that function's order.  It is shorter than ``rows`` when a
    zero-delay cycle leaves nodes out.
    """
    left = list(indeg)
    stack = [i for i, k in enumerate(left) if k == 0]
    pop, push = stack.pop, stack.append
    order: list[int] = []
    append = order.append
    while stack:
        u = pop()
        append(u)
        for w in rows[u]:
            k = left[w] - 1
            left[w] = k
            if k == 0:
                push(w)
    return order


def zero_delay_row(
    adjacency: Mapping[Node, Edge], index: Mapping[Node, int]
) -> list[int]:
    """Indices of the zero-delay successors in one ``graph._succ``
    entry, in adjacency order."""
    return [index[dst] for dst, e in adjacency.items() if e.delay == 0]


def zero_delay_rows(graph: CSDFG) -> tuple[list[Node], list[list[int]]]:
    """``(nodes, rows)``: node ``i`` is the ``i``-th of
    ``graph.nodes()`` and ``rows[i]`` its :func:`zero_delay_row`."""
    nodes = list(graph._time)
    index = {v: i for i, v in enumerate(nodes)}
    succ = graph._succ
    return nodes, [zero_delay_row(succ[v], index) for v in nodes]


def zero_delay_order(
    graph: CSDFG,
) -> tuple[list[Node], list[list[int]], list[int]]:
    """``(nodes, rows, order)``: :func:`zero_delay_rows` and the
    :func:`kahn_order` over them, which indexes
    :func:`topological_order_zero_delay`.

    Raises that function's :class:`GraphValidationError` on a
    zero-delay cycle.
    """
    nodes, rows = zero_delay_rows(graph)
    indeg = [0] * len(rows)
    for w in chain.from_iterable(rows):
        indeg[w] += 1
    order = kahn_order(rows, indeg)
    if len(order) != len(nodes):
        # a zero-delay cycle: the dict walk names it in its error
        topological_order_zero_delay(graph)
        raise GraphError(  # pragma: no cover - defensive
            "zero-delay adjacency out of sync"
        )
    return nodes, rows, order


def find_zero_delay_cycle(graph: CSDFG) -> list[Node]:
    """Return the node sequence of one zero-delay cycle, or ``[]``.

    Iterative DFS with colouring; the returned list repeats the first
    node at the end (``[a, b, c, a]``).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[Node, int] = {v: WHITE for v in graph.nodes()}
    parent: dict[Node, Node] = {}

    for start in graph.nodes():
        if colour[start] != WHITE:
            continue
        stack = [(start, _zero_succ(graph, start))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, _zero_succ(graph, nxt)))
                    advanced = True
                    break
                if colour[nxt] == GREY:
                    # reconstruct the cycle nxt ... node -> nxt
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(nxt)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return []


def _zero_succ(graph: CSDFG, node: Node):
    return iter([e.dst for e in graph.out_edges(node) if e.delay == 0])


def collect_issues(
    graph: CSDFG,
    *,
    require_nonempty: bool = True,
    require_weakly_connected: bool = False,
) -> list[str]:
    """Gather every structural problem without raising.

    Parameters
    ----------
    require_nonempty:
        Flag an empty node set.
    require_weakly_connected:
        Flag a graph whose underlying undirected graph is disconnected
        (benchmark graphs are expected to be connected).
    """
    issues: list[str] = []
    if require_nonempty and graph.num_nodes == 0:
        issues.append("graph has no nodes")

    cycle = find_zero_delay_cycle(graph)
    if cycle:
        issues.append(
            "zero-delay cycle (illegal CSDFG): " + " -> ".join(map(str, cycle))
        )

    if require_weakly_connected and graph.num_nodes > 1:
        seen: set[Node] = set()
        start = next(graph.nodes())
        frontier = [start]
        seen.add(start)
        while frontier:
            node = frontier.pop()
            for nxt in list(graph.successors(node)) + list(graph.predecessors(node)):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != graph.num_nodes:
            missing = sorted(str(v) for v in graph.nodes() if v not in seen)
            issues.append("graph is not weakly connected; unreached: " + ", ".join(missing))
    return issues


def validate_csdfg(
    graph: CSDFG,
    *,
    require_nonempty: bool = True,
    require_weakly_connected: bool = False,
) -> None:
    """Raise :class:`GraphValidationError` when the graph is malformed."""
    issues = collect_issues(
        graph,
        require_nonempty=require_nonempty,
        require_weakly_connected=require_weakly_connected,
    )
    if issues:
        raise GraphValidationError(issues)


def is_legal(graph: CSDFG) -> bool:
    """True when every cycle carries strictly positive total delay."""
    return not find_zero_delay_cycle(graph)
