"""Precomputed communication-cost tables (the fast-path ``M`` lookup).

The scheduling inner loops evaluate ``M(p_u, p_v; c(e))`` millions of
times, and :meth:`Architecture.comm_cost` pays for two PE bound checks,
a hop-table index and a cost-model call on every one of them.  A
:class:`CommCostCache` collapses all of that into a nested-list lookup
keyed ``volume -> src PE -> dst PE``.

Rows are built **lazily, one (source PE, volume) band at a time**: the
cache starts empty and materialises a row the first time any lookup
touches it, using the batched row kernel
(:func:`repro.core.kernels.comm_cost_row`) over one python-int row of
the architecture's ``distance_matrix``.  On large machines this avoids the
``O(volumes * n^2)`` cold-start the old eager build paid before the
first pass could run — a 10k-node graph on a 64-PE machine touches a
few dozen rows, not all of them.  The cost model is still consulted at
most once per distinct (hop count, volume) combination, shared across
the rows of one volume.

Degraded topologies are handled by construction: only PEs reported by
``arch.processors`` get entries, so a lookup touching a failed PE falls
back to ``arch.comm_cost`` — which raises the same typed
``DeadProcessorError`` the uncached path would.

The cache is *read-only* in effect (row materialisation is invisible to
callers) and keyed to the architecture instance it was built from;
build a fresh one after any topology change (e.g. after injecting
faults).

Contention-aware pricing is an optional dimension on the same tables:
give the constructor a :class:`~repro.arch.comm.ContentionModel` and a
frozen :class:`~repro.arch.contention.LinkOccupancy` snapshot and every
banded row is surcharged ``price(base, load_between(src, dst))`` as it
materialises.  Because the snapshot is frozen, prices remain a pure
function of ``(src, dst, volume)`` — the start-up scheduler, the remap
inner loop and the validator consume the same cache and therefore agree
on every ``M`` by construction.  The default (no model) prices
bit-identically to ``arch.comm_cost``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.arch.comm import ContentionModel
from repro.arch.contention import LinkOccupancy
from repro.arch.topology import Architecture
from repro.errors import ArchitectureError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.csdfg import CSDFG

__all__ = ["CommCostCache"]


class CommCostCache:
    """Lazy ``volume -> src PE -> dst PE -> cost`` lookup tables.

    Parameters
    ----------
    arch:
        The architecture to tabulate.  Kept as the fallback for
        volumes or PEs outside the cached tables.
    volumes:
        The edge volumes the tables cover (typically the distinct
        volumes of one graph; see :meth:`for_graph`).  Lookups for
        other volumes miss to ``arch.comm_cost``.
    contention:
        Optional :class:`~repro.arch.comm.ContentionModel`.  When set,
        every tabulated (and fallback) price is surcharged against the
        frozen ``occupancy`` snapshot:
        ``price(base, occupancy.load_between(src, dst))``.  The
        default ``None`` keeps prices bit-identical to
        ``arch.comm_cost``.
    occupancy:
        The frozen :class:`~repro.arch.contention.LinkOccupancy` the
        surcharge is computed against; required with ``contention``
        (:class:`~repro.errors.ArchitectureError` otherwise).  The
        snapshot must belong to ``arch`` and must not be mutated after
        rows materialise — freeze-then-reprice keeps the price a pure
        function of ``(src, dst, volume)`` for the whole run.
    """

    __slots__ = (
        "arch",
        "_tables",
        "_tables_t",
        "_by_hops",
        "_alive",
        "_contention",
        "_occupancy",
        "hits",
        "misses",
        "entries",
    )

    def __init__(
        self,
        arch: Architecture,
        volumes: Iterable[int],
        *,
        contention: ContentionModel | None = None,
        occupancy: LinkOccupancy | None = None,
    ):
        self.arch = arch
        if contention is None:
            occupancy = None
        elif occupancy is None:
            raise ArchitectureError(
                "a contended cache needs a frozen occupancy= snapshot"
            )
        elif occupancy.arch is not arch:
            raise ArchitectureError(
                "occupancy snapshot belongs to a different architecture "
                "than the cache"
            )
        self._contention = contention
        self._occupancy = occupancy
        # plain-int tallies (a few thousand increments per run — far
        # cheaper than conditional metric calls on the hot path); the
        # engine publishes them to the metrics registry once per run
        # via :meth:`publish_stats`.  Row materialisation is neither a
        # hit nor a miss: the tallies count lookups, not builds.
        self.hits = 0
        self.misses = 0
        self.entries = 0
        self._alive = tuple(arch.processors)
        n = arch.num_pes
        # rows start unmaterialised (None); _tables holds src -> dst
        # rows, _tables_t holds the column view (dst -> src) built
        # independently so a consumer-side scan does not force the full
        # transpose.  _by_hops memoises the cost model per volume,
        # shared by both orientations.
        self._tables: dict[int, list[list[int | None] | None]] = {
            vol: [None] * n for vol in set(volumes)
        }
        self._tables_t: dict[int, list[list[int | None] | None]] = {
            vol: [None] * n for vol in self._tables
        }
        self._by_hops: dict[int, dict[int, int]] = {
            vol: {} for vol in self._tables
        }

    @classmethod
    def for_graph(
        cls,
        arch: Architecture,
        graph: "CSDFG",
        *,
        contention: ContentionModel | None = None,
        occupancy: LinkOccupancy | None = None,
    ) -> "CommCostCache":
        """Cache covering every edge volume of ``graph`` on ``arch``."""
        return cls(
            arch,
            {e.volume for e in graph.edges()},
            contention=contention,
            occupancy=occupancy,
        )

    @property
    def volumes(self) -> frozenset[int]:
        """The edge volumes covered by the tables."""
        return frozenset(self._tables)

    @property
    def contended(self) -> bool:
        """Whether prices carry a contention surcharge."""
        return self._contention is not None

    @property
    def contention(self) -> ContentionModel | None:
        """The contention model pricing this cache, if any."""
        return self._contention

    @property
    def occupancy(self) -> LinkOccupancy | None:
        """The frozen link-occupancy snapshot, if contended."""
        return self._occupancy

    # ------------------------------------------------------------------
    def _build_row(
        self, table: list, volume: int, pe: int, *, transposed: bool
    ) -> list[int | None] | None:
        """Materialise one (PE, volume) band; ``None`` for dead PEs."""
        arch = self.arch
        if pe not in self._alive:
            return None
        by_hops = self._by_hops[volume]
        model_cost = arch.comm_model.cost

        def cost_of(hops: int) -> int:
            cost = by_hops.get(hops)
            if cost is None:
                cost = model_cost(hops, volume)
                by_hops[hops] = cost
            return cost

        from repro.core.kernels import comm_cost_row

        # hop counts are symmetric: row ``pe`` serves both orientations
        hops_row = arch.distance_matrix[pe]
        row = comm_cost_row(hops_row, self._alive, cost_of, arch.num_pes)
        if self._contention is not None:
            # surcharge the banded row against the frozen occupancy:
            # rows stay plain ints, so the hot-path lookup is unchanged
            price = self._contention.price
            load = self._occupancy.load_between
            row = [
                base if base is None or base == 0
                else price(base, load(p, pe) if transposed else load(pe, p))
                for p, base in enumerate(row)
            ]
        table[pe] = row
        self.entries += len(self._alive)
        return row

    # ------------------------------------------------------------------
    def cost(self, src: int, dst: int, volume: int) -> int:
        """The paper's ``M(p_src, p_dst; volume)``.

        One nested-list lookup on the hot path; any miss (uncached
        volume, out-of-range or failed PE) defers to
        ``arch.comm_cost`` so errors and semantics match the uncached
        path exactly.
        """
        try:
            row = self._tables[volume][src]
            if row is None:
                row = self._build_row(
                    self._tables[volume], volume, src, transposed=False
                )
                if row is None:  # dead source PE
                    self.misses += 1
                    return self._fallback(src, dst, volume)
            cached = row[dst]
        except (KeyError, IndexError):
            self.misses += 1
            return self._fallback(src, dst, volume)
        if cached is None or src < 0 or dst < 0:
            self.misses += 1
            return self._fallback(src, dst, volume)
        self.hits += 1
        return cached

    def _fallback(self, src: int, dst: int, volume: int) -> int:
        """Uncached pricing, contention surcharge included.

        ``arch.comm_cost`` runs first so bound checks and
        ``DeadProcessorError`` semantics match the uncached path."""
        base = self.arch.comm_cost(src, dst, volume)
        if self._contention is None or base == 0:
            return base
        return self._contention.price(
            base, self._occupancy.load_between(src, dst)
        )

    def max_cost(self, volume: int) -> int:
        """The dearest price a ``volume`` transfer can have here.

        The cost model's price at some hop count up to the (surviving)
        diameter, surcharged against the frozen snapshot's heaviest link
        load when contended: every route's load is at most that, and
        prices never fall as load grows.  Priced from the models
        directly, so no row is built."""
        model_cost = self.arch.comm_model.cost
        hop_counts = range(self.arch.diameter + 1)
        prices = [model_cost(hops, volume) for hops in hop_counts]
        if self._contention is not None:
            load = self._occupancy.max_load
            prices = [self._contention.price(price, load) for price in prices]
        return max(prices)

    def row_from(self, src: int, volume: int) -> list[int | None] | None:
        """Costs ``src -> p`` for every PE id ``p`` (``None`` entries
        for failed PEs), or ``None`` when the volume or source is not
        tabulated.  The returned list must not be mutated."""
        table = self._tables.get(volume)
        if table is None or not (0 <= src < self.arch.num_pes):
            return None
        row = table[src]
        if row is None:
            row = self._build_row(table, volume, src, transposed=False)
        return row

    def row_to(self, dst: int, volume: int) -> list[int | None] | None:
        """Costs ``p -> dst`` for every PE id ``p`` — the column view
        of :meth:`row_from` (materialised per band from the distance
        column, sharing the per-volume cost-model memo)."""
        table = self._tables_t.get(volume)
        if table is None or not (0 <= dst < self.arch.num_pes):
            return None
        row = table[dst]
        if row is None:
            row = self._build_row(table, volume, dst, transposed=True)
        return row

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`cost` lookups served from the tables."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Plain-data view of the lookup tallies.  ``entries`` counts
        the cache cells actually materialised (grows as bands are
        touched), not the eager full-matrix size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }

    def publish_stats(self) -> None:
        """Push the tallies into the metrics registry (no-op while
        observability is off).  Called once per run by the engine —
        counter deltas are not meaningful across publishes, so callers
        publish exactly once, at the end of a run."""
        from repro.obs import metrics

        metrics.inc("arch.cache.hits", self.hits)
        metrics.inc("arch.cache.misses", self.misses)
        metrics.set_gauge("arch.cache.entries", self.entries)
        metrics.set_gauge("arch.cache.hit_rate", round(self.hit_rate, 6))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommCostCache(arch={self.arch.name!r}, "
            f"volumes={sorted(self._tables)})"
        )
