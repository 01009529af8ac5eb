"""The rule catalogue: every stable diagnostic code, in one place.

Codes are grouped by what they analyze:

* ``RA1xx`` — CSDFG structure and annotations,
* ``RA2xx`` — architecture/topology,
* ``RA3xx`` — optimiser configuration (including the statically proven
  schedule-length lower bound),
* ``RA4xx`` — serialized-schedule certification (the DESIGN §1
  two-clause criterion re-derived from ``arch.hops`` + the cost model),
* ``RL1xx`` — codebase lint (repo invariants enforced over the source
  tree with :mod:`ast`),
* ``RD1xx`` — interprocedural determinism flow (unseeded randomness,
  iteration order or the wall clock reaching result-bearing paths,
  checked over the module-level call graph by
  :mod:`repro.analyze.flow`),
* ``RC2xx`` — interprocedural engine contracts (the freeze-then-certify
  contention pricing protocol, cache construction discipline).

Codes are *stable*: tests, CI annotations, suppression comments and
``docs/analysis.md`` all refer to them, so a code is never renumbered
or reused.  New rules take the next free number in their band; a
retired code stays unused (``docs/analysis.md`` lists them).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.diagnostics import SEVERITIES, Diagnostic, Severity
from repro.errors import AnalysisError

__all__ = ["Rule", "RULES", "rule", "make"]


@dataclass(frozen=True)
class Rule:
    """Catalogue entry for one diagnostic code."""

    code: str
    severity: Severity
    title: str
    description: str
    hint: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise AnalysisError(
                f"rule {self.code}: severity must be one of {SEVERITIES}"
            )


def _catalogue(entries: list[Rule]) -> dict[str, Rule]:
    out: dict[str, Rule] = {}
    for entry in entries:
        if entry.code in out:
            raise AnalysisError(f"duplicate rule code {entry.code}")
        out[entry.code] = entry
    return out


#: Every registered rule, keyed by code.
RULES: dict[str, Rule] = _catalogue([
    # ------------------------------------------------------------- RA1xx
    Rule(
        "RA101", "error", "zero-delay-cycle",
        "A directed cycle carries no loop delay: the iteration can never "
        "start (deadlock).  A CSDFG is live iff every cycle's total delay "
        "is strictly positive (paper §2).",
        "add a delay (d >= 1) to at least one edge of the cycle",
    ),
    Rule(
        "RA102", "error", "empty-graph",
        "The graph has no nodes; there is nothing to schedule.",
        "add at least one task node",
    ),
    Rule(
        "RA103", "warning", "dead-node",
        "A node has no incident edges: it constrains nothing and nothing "
        "constrains it, which usually means a benchmark-construction typo.",
        "connect the node or remove it",
    ),
    Rule(
        "RA104", "warning", "disconnected-graph",
        "The underlying undirected graph has more than one component; "
        "benchmark CSDFGs are expected to be weakly connected.",
        "check for missing dependence edges between the components",
    ),
    Rule(
        "RA105", "error", "bad-node-time",
        "A node's execution time is outside the model's domain "
        "(t(v) >= 1 control steps).",
        "set the node's time to a positive integer",
    ),
    Rule(
        "RA106", "error", "bad-edge-delay",
        "An edge's delay count is negative (d(e) >= 0 is required).",
        "set the edge's delay to a non-negative integer",
    ),
    Rule(
        "RA107", "error", "bad-edge-volume",
        "An edge's data volume is outside the model's domain "
        "(c(e) >= 1 units).",
        "set the edge's volume to a positive integer",
    ),
    Rule(
        "RA108", "error", "malformed-graph",
        "The graph payload is structurally broken: an edge references an "
        "unknown node, the same ordered pair carries two edges, or a "
        "required field is missing.",
        "regenerate the graph JSON with repro.graph.io.save_json",
    ),
    # ------------------------------------------------------------- RA2xx
    Rule(
        "RA201", "error", "disconnected-topology",
        "The surviving processors of a degraded topology are split into "
        "multiple components: no static schedule can route all traffic.",
        "revive a PE/link or drop one component from the machine",
    ),
    Rule(
        "RA202", "error", "invalid-architecture",
        "The architecture description cannot be built (unknown kind, or a "
        "PE count the kind does not support, e.g. a 6-PE hypercube).",
        "pick a kind from repro.arch.ARCHITECTURE_KINDS with a valid size",
    ),
    Rule(
        "RA203", "warning", "comm-blowup",
        "A single worst-case message (hop diameter x the heaviest edge "
        "volume, priced by the cost model) costs at least as much as the "
        "entire iteration's compute: communication will dominate any "
        "cross-PE placement on this pair.",
        "use a denser topology, reduce edge volumes, or expect the "
        "optimiser to cluster tasks on few PEs",
    ),
    Rule(
        "RA204", "info", "idle-processors",
        "The machine has more usable processors than the graph has tasks; "
        "the surplus PEs can never be busy.",
        "a smaller machine gives identical schedules faster",
    ),
    Rule(
        "RA205", "warning", "degraded-reroute-blowup",
        "Rerouting around failed hardware increased the hop diameter of "
        "the surviving network: communication costs are inflated relative "
        "to the healthy machine.",
        "re-optimise schedules produced for the healthy machine",
    ),
    Rule(
        "RA206", "warning", "contention-bottleneck-bridge",
        "The usable topology contains bridge links: every transfer "
        "between the two sides of a bridge crosses that one link, so "
        "under contention-aware pricing (serialised links) the bridge "
        "serialises all cross-partition traffic.",
        "add redundant links, or schedule with a contention model so "
        "the optimiser is charged for the bottleneck",
    ),
    Rule(
        "RA207", "warning", "contention-hotspot",
        "Deterministic routing concentrates traffic: under uniform "
        "all-pairs communication one link carries several times the "
        "mean per-link load, so contended prices on routes through it "
        "will dwarf the contention-free estimate.",
        "balance the topology, or enable contention-aware scheduling "
        "to steer traffic off the hot link",
    ),
    # ------------------------------------------------------------- RA3xx
    Rule(
        "RA301", "error", "infeasible-target",
        "The requested target length is below the statically provable "
        "lower bound B = max(iteration bound, processor work bound, "
        "longest task): every legal schedule has length >= B, so the "
        "target cannot be met by any scheduler.",
        "raise the target to the reported bound or shrink the workload",
    ),
    Rule(
        "RA302", "warning", "no-compaction-passes",
        "max_iterations is 0: only the start-up schedule will be "
        "produced; cyclo-compaction never runs.",
        "set max_iterations >= 1 (or None for the 3*|V| default)",
    ),
    Rule(
        "RA303", "warning", "zero-deadline",
        "deadline_seconds is 0: the optimiser will stop after at most one "
        "pass boundary, keeping the start-up schedule.",
        "remove the deadline or give it a positive budget",
    ),
    Rule(
        "RA304", "error", "malformed-config",
        "The optimiser configuration payload is rejected by CycloConfig "
        "(unknown key, out-of-domain value).",
        "regenerate the config JSON with CycloConfig.to_dict",
    ),
    Rule(
        "RA305", "info", "length-lower-bound",
        "The statically proven schedule-length lower bound for this "
        "(graph, architecture, config) triple.",
        "",
    ),
    # ------------------------------------------------------------- RA4xx
    Rule(
        "RA401", "error", "incomplete-schedule",
        "The schedule does not place exactly the graph's node set: a "
        "graph node is missing, or a scheduled node is not in the graph.",
        "re-schedule, or fix the node relabelling that desynced them",
    ),
    Rule(
        "RA402", "error", "resource-conflict",
        "Two tasks occupy the same processor during the same control step "
        "(DESIGN §1 clause 1: exclusive occupancy of PE(v) over "
        "[CB(v), CE(v)]).",
        "move one of the tasks to a free slot",
    ),
    Rule(
        "RA403", "error", "precedence-violation",
        "A dependence edge breaks DESIGN §1 clause 2: "
        "CB(v) + d(e)*L < CE(u) + M(PE(u), PE(v); c(e)) + 1 with M "
        "re-derived from arch.hops and the communication cost model.",
        "delay the consumer, co-locate the endpoints, or grow L",
    ),
    Rule(
        "RA404", "error", "unroutable-placement",
        "A task is placed on a processor that is outside the "
        "architecture, failed, or executes it with the wrong duration.",
        "re-schedule against the current (possibly degraded) machine",
    ),
    Rule(
        "RA405", "info", "certified-length-slack",
        "The schedule is legal but longer than necessary: these exact "
        "placements stay legal at a smaller schedule length.",
        "set the table length to the reported minimum",
    ),
    # ------------------------------------------------------------- RL1xx
    Rule(
        "RL101", "error", "unseeded-random",
        "A call draws from Python's (or numpy's) global random state, or "
        "constructs an unseeded Random().  Everything in this repository "
        "must be deterministic given explicit seeds; only repro.qa may "
        "own randomness, and even there it must be seeded.",
        "thread a seeded random.Random through the call",
    ),
    Rule(
        "RL102", "error", "wall-clock-in-core",
        "Core scheduling code (repro.core, repro.graph, repro.retiming) "
        "reads the wall clock (time.time/perf_counter/monotonic, "
        "datetime.now): results could depend on machine speed.  "
        "Observability, perf drivers and qa are allowlisted.",
        "move the timing to repro.obs/repro.perf, or suppress a "
        "deliberate budget check with a disable comment",
    ),
    Rule(
        "RL103", "error", "comm-cost-bypass",
        "Hop-cost arithmetic composed by hand (cost-model call fed from "
        "arch.hops, or a direct comm_model.cost access) outside "
        "repro.arch: every other layer must price communication through "
        "Architecture.comm_cost or a CommCostCache so the semantics stay "
        "in one place.",
        "call arch.comm_cost / CommCostCache.cost instead",
    ),
    Rule(
        "RL104", "error", "bare-except",
        "A bare `except:` swallows SystemExit/KeyboardInterrupt and hides "
        "real failures.",
        "catch a concrete exception type (ReproError for library errors)",
    ),
    Rule(
        "RL105", "error", "broad-except-in-core",
        "`except Exception` in a core package (repro.core, repro.graph, "
        "repro.retiming, repro.arch, repro.schedule) can mask invariant "
        "violations the fuzzer is meant to surface.",
        "catch the typed ReproError subclass, or suppress a deliberate "
        "recovery boundary with a disable comment",
    ),
    Rule(
        "RL106", "error", "untyped-raise",
        "A core package raises a builtin exception (Exception, "
        "RuntimeError, ValueError, TypeError, KeyError) instead of a "
        "typed ReproError subclass; callers cannot catch it by contract.",
        "raise the matching repro.errors type",
    ),
    Rule(
        "RL107", "error", "print-in-instrumented-code",
        "A print() call in an instrumented package (repro.core, "
        "repro.perf) or in repro.obs.runtime: diagnostics there must "
        "flow through the observability sinks (spans, counters, "
        "events), not stdout — stray prints corrupt machine-read CLI "
        "output and bypass the run-history/trace record.",
        "record a span/counter/event via repro.obs, or return the text "
        "to the CLI layer; suppress a deliberate user-facing print "
        "with a disable comment",
    ),
    Rule(
        "RL108", "error", "scalar-loop-in-kernel-module",
        "A python-level loop (for statement or comprehension) iterates "
        "over graph.nodes()/graph.edges() inside a batched-kernel "
        "module: these modules exist to keep the per-node work "
        "array-at-a-time, so per-element graph walks belong in the "
        "caller, which gathers once and passes flat sequences.",
        "hoist the gather to the caller and pass flat sequences, or "
        "suppress a deliberate scalar path with a disable comment",
    ),
    Rule(
        "RL109", "warning", "useless-suppression",
        "A `# repro-lint: disable=` comment names a code that is not in "
        "the rule catalogue, or suppresses nothing on its line (or, for "
        "a file-level disable-file=, nothing in its file): stale "
        "suppressions hide the moment a rule would start firing again.",
        "delete the suppression, or fix the code it names",
    ),
    # ------------------------------------------------------------- RD1xx
    Rule(
        "RD101", "error", "unseeded-rng-reaches-parallel-work",
        "A function dispatched as parallel work (a run_parallel payload, "
        "an executor-submitted worker) or passed as a scheduling "
        "priority transitively draws from unseeded randomness — global "
        "random state, an unseeded Random(), or the per-process-salted "
        "builtin hash().  Restart shards and worker results would then "
        "differ run to run, breaking the engine's "
        "same-seed-same-schedule guarantee.",
        "thread a seeded random.Random (or a crc32-style keyed hash, "
        "as repro.perf.restarts.JitteredPriority does) through the path",
    ),
    Rule(
        "RD102", "error", "set-order-crosses-merge-boundary",
        "A worker-merge boundary function (one that merges worker "
        "metric snapshots, publishes per-run stats, or runs as a "
        "parallel payload) iterates a set or a set-returning helper "
        "without sorting: set iteration order varies with "
        "PYTHONHASHSEED, so merged tallies, published stats or worker "
        "results pick up hash-order dependence.",
        "wrap the iteration in sorted(...), or iterate a list/dict "
        "built in deterministic order",
    ),
    Rule(
        "RD103", "error", "clock-or-env-flows-into-schedule",
        "A wall-clock or os.environ read flows into a scheduling entry "
        "point — either a clock/env-derived value is passed as an "
        "argument to the optimiser, or a function transitively callable "
        "from a core entry point reads the clock/environment.  Schedule "
        "lengths and placements would then depend on machine speed or "
        "ambient environment, not just (graph, arch, config, seed).",
        "keep clock reads in repro.obs/repro.perf drivers; pass "
        "budgets and knobs as explicit config values",
    ),
    Rule(
        "RD104", "error", "completion-order-accumulation",
        "Results are consumed in worker *completion* order "
        "(as_completed, imap_unordered): float accumulation and "
        "first-wins merges then depend on thread timing.  The engine's "
        "parallel driver must collect in submission (item) order, as "
        "repro.perf.parallel.run_parallel does.",
        "iterate futures in submission order (deque + popleft) and "
        "reduce in item order",
    ),
    # ------------------------------------------------------------- RC2xx
    Rule(
        "RC201", "error", "contended-pricing-without-frozen-snapshot",
        "A CommCostCache is constructed with a contention model but "
        "without a frozen LinkOccupancy snapshot (missing, or a bare "
        "empty ledger) outside repro.arch.  The freeze-then-certify "
        "protocol requires pricing against occupancy frozen from a "
        "concrete assignment, so that cost(src, dst, volume) stays a "
        "pure function during the certification that follows.",
        "freeze first: occ = LinkOccupancy.from_assignment(graph, arch, "
        "assignment), then CommCostCache.for_graph(..., contention=m, "
        "occupancy=occ)",
    ),
    Rule(
        "RC202", "error", "stale-occupancy-freeze-across-remap",
        "A contended cache is used for a remap/compaction call without "
        "re-freezing after an earlier remap (or a loop re-uses a "
        "snapshot frozen outside it): the second remap prices against "
        "occupancy the first one already invalidated, so the certified "
        "costs drift from the placements actually produced.",
        "rebuild the frozen cache from the current assignment "
        "immediately before each contended remap round",
    ),
    Rule(
        "RC203", "error", "cache-construction-in-hot-loop",
        "A CommCostCache or LinkOccupancy ledger is constructed inside "
        "a for/while loop: construction walks every edge/link, so "
        "per-iteration rebuilds turn O(passes) algorithms into "
        "O(passes * edges).  Deliberate per-round repricing (the "
        "contention fixpoint) is the documented exception.",
        "hoist the construction out of the loop, or suppress a "
        "deliberate per-round reprice with a disable comment",
    ),
])


def rule(code: str) -> Rule:
    """Look up a catalogue entry; unknown codes are a caller bug."""
    try:
        return RULES[code]
    except KeyError:
        raise AnalysisError(
            f"unknown rule code {code!r}; known: {sorted(RULES)}"
        ) from None


def make(
    code: str,
    message: str,
    *,
    severity: Severity | None = None,
    hint: str | None = None,
    **locus,
) -> Diagnostic:
    """Build a :class:`Diagnostic` with catalogue defaults.

    ``severity`` and ``hint`` default to the rule's catalogue values;
    ``locus`` keywords (``node=``, ``edge=``, ``pe=``, ``file=``,
    ``line=``, ``col=``) pass through.
    """
    entry = rule(code)
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else entry.severity,
        message=message,
        hint=hint if hint is not None else entry.hint,
        **locus,
    )
