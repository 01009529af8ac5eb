"""Leiserson–Saxe clock-period-minimising retiming.

The paper's rotation phase applies retiming *implicitly*; the classic
explicit algorithm [Leiserson & Saxe, Algorithmica 1991] is implemented
here both as a baseline (what pure retiming achieves with unlimited
processors and free communication) and as a lower-bound oracle for the
tests: no schedule of one loop iteration can beat the minimum
achievable clock period when processors are unlimited.

Terminology mapped onto CSDFGs: the *clock period* of ``G`` is the
maximum total execution time along a zero-delay path —
:func:`repro.graph.properties.critical_path_length`.  The algorithm:

1. ``W(u,v)`` = minimum delay count over all ``u -> v`` paths and
   ``D(u,v)`` = maximum total node time over the minimum-delay paths
   (computed by an all-pairs shortest path over lexicographic weights
   ``(d(e), -t(u))``).
2. A period ``c`` is feasible iff the difference constraints
   ``r(u) - r(v) <= d(e)`` (legality) and ``r(u) - r(v) <= W(u,v) - 1``
   for every pair with ``D(u,v) > c`` admit a solution (Bellman–Ford).
3. Binary-search ``c`` over the sorted distinct values of ``D``.
"""

from __future__ import annotations

from repro.errors import RetimingError
from repro.graph.csdfg import CSDFG, Node

__all__ = ["wd_matrices", "feasible_retiming_for_period", "min_period_retiming"]

#: "unreachable" sentinel; sums of two entries stay exact in 63 bits
_INF = (2**63 - 1) // 4


def wd_matrices(graph: CSDFG) -> tuple[dict, list, list]:
    """The W and D matrices of Leiserson–Saxe.

    Returns ``(index, W, D)`` where ``index`` maps nodes to matrix rows
    and ``W`` and ``D`` are lists of int rows.  ``W[i][j]`` is the
    minimum path delay from node i to node j (``_INF``-like sentinel
    when unreachable) and ``D[i][j]`` the maximum total computation
    time over those minimum-delay paths (including both endpoints).
    """
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    times = [graph.time(v) for v in nodes]

    # lexicographic weights: minimise (delay, -time-excluding-endpoint)
    w = [[_INF] * n for _ in range(n)]
    # second component: for a path p, sum of t over nodes of p except dst;
    # stored negated so smaller == more computation
    neg_t = [[_INF] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = 0
        neg_t[i][i] = 0  # empty path: no delay, no time before the endpoint
    for e in graph.edges():
        i, j = index[e.src], index[e.dst]
        if i == j:
            continue  # a self-loop never lies on a simple u->v path
        cand_w, cand_t = e.delay, -times[i]
        if (cand_w, cand_t) < (w[i][j], neg_t[i][j]):
            w[i][j], neg_t[i][j] = cand_w, cand_t
    # Floyd–Warshall on lexicographic pairs.  The invariant is
    # neg_t[i][j] == -(max time over min-delay i->j paths, excluding j),
    # so concatenating i->k (excl. k) with k->j (incl. k, excl. j) is a
    # plain sum of both components.  Only columns k reaches can
    # improve, and relaxing through k never changes which those are.
    for k in range(n):
        wk, tk = w[k], neg_t[k]
        reach = [j for j in range(n) if wk[j] < _INF]
        for i in range(n):
            wik = w[i][k]
            if wik >= _INF:
                continue
            tik = neg_t[i][k]
            wi, ti = w[i], neg_t[i]
            for j in reach:
                cw = wik + wk[j]
                if cw < wi[j]:
                    wi[j], ti[j] = cw, tik + tk[j]
                elif cw == wi[j]:
                    ct = tik + tk[j]
                    if ct < ti[j]:
                        ti[j] = ct
    # D includes both endpoints: path time = -neg_t + t(dst)
    D = [
        [tj - t if wij < _INF else -_INF for wij, t, tj in zip(wi, ti, times)]
        for wi, ti in zip(w, neg_t)
    ]
    return index, w, D


def feasible_retiming_for_period(
    graph: CSDFG, period: int
) -> dict[Node, int] | None:
    """A legal retiming achieving clock period <= ``period``, or None.

    Solves the Leiserson–Saxe difference constraints with Bellman–Ford
    over a constraint graph with a virtual source.
    """
    return _feasible(graph, *wd_matrices(graph), period)


def _feasible(
    graph: CSDFG, index: dict, w: list, D: list, period: int
) -> dict[Node, int] | None:
    """:func:`feasible_retiming_for_period` on precomputed W and D."""
    nodes = list(index)
    n = len(nodes)
    # constraints r(u) - r(v) <= bound  =>  edge v -> u with weight bound
    constraints: dict[tuple[int, int], int] = {}

    def add(u: int, v: int, bound: int) -> None:
        key = (v, u)
        if key not in constraints or bound < constraints[key]:
            constraints[key] = bound

    for e in graph.edges():
        add(index[e.src], index[e.dst], e.delay)
    for i, (wi, Di) in enumerate(zip(w, D)):
        for j, (wij, dij) in enumerate(zip(wi, Di)):
            if dij > period and wij < _INF:
                add(i, j, wij - 1)

    dist = [0] * n  # virtual source at distance 0 to all nodes
    edges = [(a, b, bound) for (a, b), bound in constraints.items()]
    for _ in range(n):
        changed = False
        for a, b, bound in edges:
            if dist[a] + bound < dist[b]:
                dist[b] = dist[a] + bound
                changed = True
        if not changed:
            break
    else:
        # n relaxations without fixpoint: check for a negative cycle
        for a, b, bound in edges:
            if dist[a] + bound < dist[b]:
                return None
    # Bellman–Ford solves the Leiserson–Saxe convention
    # (d_r = d + r(v) - r(u)); negate to this library's paper
    # convention (d_r = d + r(u) - r(v), see repro.retiming.basic)
    return {nodes[i]: -dist[i] for i in range(n)}


def min_period_retiming(graph: CSDFG) -> tuple[int, dict[Node, int]]:
    """Minimum achievable clock period and a retiming realising it.

    Binary-searches the sorted distinct entries of ``D``; every probe
    shares one computation of W and D.  Raises :class:`RetimingError`
    for empty graphs.
    """
    if graph.num_nodes == 0:
        raise RetimingError("cannot retime an empty graph")
    wd = wd_matrices(graph)
    candidates = sorted({d for row in wd[2] for d in row if d > -_INF})
    lo, hi = 0, len(candidates) - 1
    best: tuple[int, dict[Node, int]] | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        period = candidates[mid]
        retiming = _feasible(graph, *wd, period)
        if retiming is not None:
            best = (period, retiming)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RetimingError(
            "no feasible period found (graph has a zero-delay cycle?)"
        )
    return best
