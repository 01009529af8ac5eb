"""Cycle structure analysis: SCC decomposition.

Complements :mod:`repro.graph.properties` with the classical machinery
for recursive data flow graphs:

* :func:`strongly_connected_components` — Tarjan's algorithm (iterative),
* :func:`recursive_core` — the non-trivial SCCs, whose cycles bound the
  throughput; the feed-forward rest can be pipelined arbitrarily by
  retiming.  :func:`repro.graph.properties.iteration_bound` runs
  Howard's policy iteration on each of them.
"""

from __future__ import annotations

from repro.graph.csdfg import CSDFG, Node

__all__ = [
    "strongly_connected_components",
    "recursive_core",
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


def recursive_core(graph: CSDFG) -> list[list[Node]]:
    """Non-trivial SCCs (size > 1 or a self-loop): the recursion that
    bounds the achievable initiation interval."""
    return [
        comp
        for comp in strongly_connected_components(graph)
        if len(comp) > 1 or graph.has_edge(comp[0], comp[0])
    ]
