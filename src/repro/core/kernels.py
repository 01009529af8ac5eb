"""Array-at-a-time kernels of the scheduling engine.

Profiles of thousand-node compactions show three python-level loops
dominating: communication-cost row construction
(:mod:`repro.arch.cache`), the batch PSL edge-bound evaluation
(:class:`repro.core.psl.PSLTracker.refresh`) and the per-PE
anticipation folds of the remapping slot search
(:func:`repro.core.remapping._find_spot`).  This module holds each of
them as one plain-python function over flat sequences.

All arithmetic is integer-exact: ceil division is ``-(-a // b)``.

Callers reach the kernels through the module (``kernels.fold_max(...)``)
so a tracer can wrap them by patching these attributes.  Kernels take
flat sequences; callers do the (single) gather over the graph.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["comm_cost_row", "edge_bounds", "fold_max", "fold_min"]


def comm_cost_row(
    hops_row: Sequence[int],
    alive: Sequence[int],
    cost_of: Callable[[int], int],
    n: int,
) -> list:
    """One communication-cost cache row from a distance-matrix row.

    ``out[p] = cost_of(hops_row[p])`` for every ``p`` in ``alive``,
    ``None`` elsewhere (failed PEs).  ``cost_of`` is consulted at most
    once per distinct hop count.
    """
    by_hops: dict[int, int] = {}
    out: list = [None] * n
    for p in alive:
        hops = int(hops_row[p])
        cost = by_hops.get(hops)
        if cost is None:
            cost = cost_of(hops)
            by_hops[hops] = cost
        out[p] = cost
    return out


def edge_bounds(
    finishes: Sequence[int],
    comms: Sequence[int],
    starts: Sequence[int],
    delays: Sequence[int],
) -> tuple[list[int], int | None]:
    """Per-edge PSL bounds: ``ceil((CE + M + 1 - CB) / delay)``.

    A zero-delay edge contributes bound 0 when satisfied; the first
    violated zero-delay edge short-circuits to ``([], index)`` so the
    caller can name the offending edge.
    """
    bounds: list[int] = []
    for i, delay in enumerate(delays):
        slack = finishes[i] + comms[i] + 1 - starts[i]
        if delay == 0:
            if slack > 0:
                return [], i
            bounds.append(0)
        else:
            bounds.append(-(-slack // delay))
    return bounds, None


def fold_max(
    rows_consts: Sequence[tuple[Sequence, int]],
    pes: Sequence[int],
    base: int,
) -> list[int]:
    """``out[j] = max(base, max_i(rows[i][pes[j]] + consts[i]))``.

    The anticipation floor of the remapping slot search, evaluated for
    every candidate PE at once (one entry per element of ``pes``).
    """
    out = [base] * len(pes)
    for row, const in rows_consts:
        for j, p in enumerate(pes):
            v = row[p] + const
            if v > out[j]:
                out[j] = v
    return out


def fold_min(
    rows_consts: Sequence[tuple[Sequence, int]],
    pes: Sequence[int],
) -> list[int]:
    """``out[j] = min_i(consts[i] - rows[i][pes[j]])`` — the zero-delay
    consumer ceiling, per candidate PE.  ``rows_consts`` must be
    non-empty (an empty constraint set means "no ceiling")."""
    first_row, first_const = rows_consts[0]
    out = [first_const - first_row[p] for p in pes]
    for row, const in rows_consts[1:]:
        for j, p in enumerate(pes):
            v = const - row[p]
            if v < out[j]:
                out[j] = v
    return out
