"""The interprocedural half of the source analyzer (``repro lint``).

Where the per-statement rules of :mod:`repro.analyze.lint` look at one
call at a time, this half builds a *module-level call graph* over the
parsed tree and per-function summaries — wall-clock/env reads,
set-iteration-order sensitivity, cache constructions — then
propagates them to a fixpoint.  :func:`repro.analyze.lint.lint_paths`
runs it on the same parsed modules as the per-statement rules, so
every file is parsed once.  Two rule families come out:

**RD1xx — determinism flow.**  The engine promises
same-seed-same-schedule across ``--jobs`` and ``PYTHONHASHSEED``:

* RD102 — a worker-merge boundary (a function that merges metric
  snapshots, publishes stats, or runs as a parallel payload) iterates
  a set, or a helper summarized as *returning* set-ordered data,
  without sorting;
* RD103 — a wall-clock/``os.environ`` read flows into scheduling: as
  an argument to an entry point (positionally or by keyword), or as a
  read inside :data:`WALLCLOCK_BANNED` code or a function transitively
  callable from it or from the core entry points (``repro.obs``
  instrumentation is allowlisted).

Unseeded randomness is RL101's: every draw is convicted at the draw
itself, wherever it flows.

**RC2xx — engine contracts.**  The cost of the comm caches:

* RC203 — a cache/ledger *construction* (``CommCostCache``,
  ``for_graph``, ``from_assignment``) inside a ``for``/``while``
  loop — O(edges) work per iteration; the contention fixpoint's
  deliberate per-round reprice carries a documented suppression.

The freeze-then-certify contention protocol itself is checked at run
time: :class:`~repro.arch.cache.CommCostCache` refuses a contention
model without an ``occupancy=`` snapshot, and the pipeline's tests pin
that each round prices the previous round's placements.

The resolver is deliberately *syntactic*: import aliases, module-level
defs, nested defs and straight-line local assignments are followed;
attribute lookups through ``self`` or arbitrary objects are not.  That
keeps the analysis fast and zero-false-positive on the shipped tree —
the contract is "everything flagged is real", with the dynamic
sanitizer (:mod:`repro.analyze.sanitize`) as the runtime backstop for
what the resolver cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.diagnostics import Diagnostic
from repro.analyze.rules import make
from repro.errors import AnalysisError

__all__ = ["FlowProgram", "FunctionSummary"]

#: Packages whose results must not depend on the wall clock: every
#: function and module body here roots RD103's reachability closure.
WALLCLOCK_BANNED = ("repro.core", "repro.graph", "repro.retiming")

#: Wall-clock reads (the last two links of the call chain).
_CLOCK_FUNCS = frozenset({
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "time_ns"),
    ("time", "perf_counter_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})

#: Callables whose first positional argument is dispatched as parallel
#: work (the payload crosses a process/thread boundary).
PARALLEL_DISPATCH = frozenset({"run_parallel", "submit"})

#: Entry points whose arguments must not carry clock/env taint (RD103a).
SCHEDULE_ENTRY_POINTS = frozenset({
    "start_up_schedule", "cyclo_compact", "remap_nodes", "optimize",
    "best_of_restarts", "contention_aware_schedule",
    "CycloConfig",
})

#: Roots of the RD103(b) reachability closure besides the
#: :data:`WALLCLOCK_BANNED` bodies: the core optimiser entry points,
#: anywhere under a ``repro`` tree.
CORE_ENTRY_POINTS = frozenset({
    "cyclo_compact", "start_up_schedule", "remap_nodes", "optimize",
})

#: Instrumentation may read the clock; the closure does not descend
#: into it (spans/counters are result-neutral by design).
CLOCK_EXEMPT_PACKAGES = ("repro.obs",)

#: Calls that mark a function as a worker-merge boundary (RD102).
MERGE_BOUNDARY_CALLS = frozenset({"merge_snapshot", "publish_stats"})


def _in(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def _dotted(node: ast.expr) -> list[str]:
    """The attribute chain of an expression: ``np.random.rand`` ->
    ``["np", "random", "rand"]`` (empty when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


# --------------------------------------------------------------------------
# summaries


@dataclass
class FunctionSummary:
    """Everything the propagation needs to know about one function.

    ``name`` is fully qualified (``repro.perf.restarts._run_restart``);
    the module-level statements of each file get a ``<module>``
    pseudo-function.
    """

    name: str
    module: str
    path: str
    lineno: int
    is_class: bool = False
    #: resolved call/reference edges to other known definitions
    targets: set[str] = field(default_factory=set)
    #: (line, what) wall-clock / os.environ reads in this body
    clock_sites: list[tuple[int, str]] = field(default_factory=list)
    #: return value derived from a clock/env read
    returns_clock: bool = False
    #: return value carries set iteration order
    returns_set: bool = False
    #: lines iterating a set-ordered expression without sorting
    set_iterations: list[int] = field(default_factory=list)
    #: calls merge_snapshot / publish_stats (worker-merge boundary)
    merges: bool = False
    #: (line, what) cache constructions inside a loop (RC203)
    hot_ctors: list[tuple[int, str]] = field(default_factory=list)
    #: (line, message) clock-tainted argument into an entry point (RD103a)
    clock_into_entry: list[tuple[int, str]] = field(default_factory=list)
    #: definitions this body dispatches as parallel payloads (RD102)
    payloads: set[str] = field(default_factory=set)


@dataclass
class _Knowledge:
    """Interprocedural facts re-fed into the scan until stable."""

    clock_returners: frozenset[str] = frozenset()
    set_returners: frozenset[str] = frozenset()


class _SourceModule:
    """One parsed file plus its resolution tables."""

    def __init__(self, path: str, source: str, module: str) -> None:
        self.path = path
        self.source = source
        self.module = module
        try:
            self.tree = ast.parse(source, filename=self.path)
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        self.is_package = Path(path).name == "__init__.py"
        self.imports: dict[str, str] = {}
        self.top_defs: dict[str, str] = {}
        self._collect_imports(self.tree)
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.top_defs[stmt.name] = f"{self.module}.{stmt.name}"

    def _collect_imports(self, tree: ast.AST) -> None:
        # function-local imports resolve module-wide: an approximation,
        # but a safe one (it only ever *adds* resolvable names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else name
                    self.imports[name] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.imports[name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _from_base(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = self.module.split(".")
        if not self.is_package:
            parts = parts[:-1]
        if node.level > 1:
            parts = parts[: len(parts) - (node.level - 1)]
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base


# --------------------------------------------------------------------------
# the per-function scanner


class _Scope:
    """Mutable scan state of one function (or ``<module>``) body."""

    def __init__(self, summary: FunctionSummary,
                 local_defs: dict[str, str]) -> None:
        self.summary = summary
        self.local_defs = local_defs          # nested def name -> fullname
        self.clock_vars: set[str] = set()     # locals carrying clock taint
        self.set_vars: set[str] = set()       # locals carrying set order
        self.def_refs: dict[str, set[str]] = {}   # locals -> known defs
        self.loop_stack: list[int] = []       # open loop headers (lines)


class _Scanner:
    """Scans one module, producing a summary per function."""

    def __init__(self, mod: _SourceModule, know: _Knowledge,
                 all_defs: dict[str, bool]) -> None:
        self.mod = mod
        self.know = know
        self.all_defs = all_defs  # fullname -> is_class
        self.summaries: dict[str, FunctionSummary] = {}

    # -- resolution --------------------------------------------------------

    def _resolve(self, chain: list[str],
                 scope: _Scope | None) -> str | None:
        if not chain:
            return None
        head, rest = chain[0], chain[1:]
        base: str | None = None
        if scope is not None and head in scope.local_defs:
            base = scope.local_defs[head]
        elif head in self.mod.top_defs:
            base = self.mod.top_defs[head]
        elif head in self.mod.imports:
            base = self.mod.imports[head]
        if base is None:
            return None
        return ".".join([base, *rest]) if rest else base

    def _known(self, fullname: str | None) -> str | None:
        if fullname is not None and fullname in self.all_defs:
            return fullname
        return None

    def _candidates(self, expr: ast.expr, scope: _Scope) -> set[str]:
        """Known definitions an expression's value may denote: names,
        attribute chains, calls (the callee — covers ``Cls(args)``
        instances), and both arms of a conditional."""
        out: set[str] = set()
        if isinstance(expr, ast.IfExp):
            return (self._candidates(expr.body, scope)
                    | self._candidates(expr.orelse, scope))
        if isinstance(expr, ast.Call):
            return self._candidates(expr.func, scope)
        chain = _dotted(expr)
        if chain:
            hit = self._known(self._resolve(chain, scope))
            if hit:
                out.add(hit)
            elif len(chain) == 1 and chain[0] in scope.def_refs:
                out |= scope.def_refs[chain[0]]
        return out

    # -- expression classification ----------------------------------------

    def _is_clock_call(self, chain: list[str]) -> tuple[bool, str]:
        if len(chain) >= 2 and tuple(chain[-2:]) in _CLOCK_FUNCS:
            return True, f"{'.'.join(chain)}() reads the wall clock"
        if chain == ["getenv"] or chain[-2:] == ["os", "getenv"]:
            return True, "os.getenv() reads the environment"
        if len(chain) >= 2 and chain[-2:] == ["environ", "get"]:
            return True, "os.environ.get() reads the environment"
        return False, ""

    def _is_env_subscript(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Subscript)
                and _dotted(node.value)[-1:] == ["environ"])

    def _clock_tainted(self, expr: ast.expr, scope: _Scope) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if self._is_clock_call(chain)[0]:
                    return True
                target = self._known(self._resolve(chain, scope))
                if target in self.know.clock_returners:
                    return True
            elif self._is_env_subscript(node):
                return True
            elif (isinstance(node, ast.Name)
                  and node.id in scope.clock_vars):
                return True
        return False

    def _set_ordered(self, expr: ast.expr, scope: _Scope) -> bool:
        """Does the expression's *iteration order* come from a hash
        table?  ``sorted(...)`` launders; ``list()``/``tuple()``
        preserve the underlying order."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.IfExp):
            return (self._set_ordered(expr.body, scope)
                    or self._set_ordered(expr.orelse, scope))
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._set_ordered(expr.left, scope)
                    or self._set_ordered(expr.right, scope))
        if isinstance(expr, ast.Name):
            return expr.id in scope.set_vars
        if isinstance(expr, ast.Call):
            chain = _dotted(expr.func)
            if chain in (["sorted"], ["min"], ["max"], ["sum"], ["len"]):
                return False
            if chain in (["set"], ["frozenset"]):
                return True
            if chain in (["list"], ["tuple"], ["iter"], ["reversed"],
                         ["enumerate"]):
                return bool(expr.args) and self._set_ordered(
                    expr.args[0], scope)
            target = self._known(self._resolve(chain, scope))
            return target in self.know.set_returners
        return False

    # -- call-site checks --------------------------------------------------

    def _check_call(self, node: ast.Call, scope: _Scope) -> None:
        s = scope.summary
        chain = _dotted(node.func)
        if not chain:
            return
        line = node.lineno
        name = chain[-1]
        dotted = ".".join(chain)
        resolved = self._resolve(chain, scope)

        # clock/env sources ---------------------------------------------
        is_clock, what = self._is_clock_call(chain)
        if is_clock:
            s.clock_sites.append((line, what))

        # merge boundaries ----------------------------------------------
        if name in MERGE_BOUNDARY_CALLS:
            s.merges = True

        # parallel payloads: RD102's worker boundaries -----------------
        if name in PARALLEL_DISPATCH and node.args:
            s.payloads |= self._candidates(node.args[0], scope)

        # RD103(a): clock-tainted arguments into entry points ------------
        basename = (resolved or dotted).split(".")[-1]
        if basename in SCHEDULE_ENTRY_POINTS:
            for arg in node.args:
                if self._clock_tainted(arg, scope):
                    s.clock_into_entry.append((line, (
                        f"clock/env-derived value passed to {basename}()"
                    )))
                    break
            else:
                for kw in node.keywords:
                    if self._clock_tainted(kw.value, scope):
                        s.clock_into_entry.append((line, (
                            f"clock/env-derived value passed to "
                            f"{basename}({kw.arg}=...)"
                        )))
                        break

        # RC203: construction cost inside loops --------------------------
        is_cache_ctor = (
            name == "CommCostCache"
            or (name == "for_graph" and "CommCostCache" in chain)
        )
        is_hot_ctor = is_cache_ctor or (
            name == "from_assignment" and "LinkOccupancy" in chain
        )
        if is_hot_ctor and scope.loop_stack:
            s.hot_ctors.append(
                (line, f"{dotted}(...) constructed inside a loop"))

    # -- statement walk ----------------------------------------------------

    def _scan_expr(self, expr: ast.expr | None, scope: _Scope) -> None:
        """Depth-first over an expression: call-site checks, reference
        edges, comprehension iteration order, env subscripts."""
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._check_call(node, scope)
            elif self._is_env_subscript(node):
                chain = _dotted(node.value)
                scope.summary.clock_sites.append((
                    node.lineno,
                    f"{'.'.join(chain)}[...] reads the environment",
                ))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                chain = _dotted(node)
                if chain:
                    target = self._known(self._resolve(chain, scope))
                    if target:
                        scope.summary.targets.add(target)
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for gen in node.generators:
                    self._check_iteration(gen.iter, node.lineno, scope)

    def _check_iteration(self, iter_expr: ast.expr, line: int,
                         scope: _Scope) -> None:
        if self._set_ordered(iter_expr, scope):
            scope.summary.set_iterations.append(line)

    def _assign_targets(self, stmt: ast.stmt) -> list[str]:
        names: list[str] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name):
                names.append(t.id)
            elif isinstance(t, ast.Tuple):
                names.extend(e.id for e in t.elts
                             if isinstance(e, ast.Name))
        return names

    def _scan_assign(self, stmt: ast.stmt, value: ast.expr,
                     scope: _Scope) -> None:
        self._scan_expr(value, scope)
        names = self._assign_targets(stmt)
        if not names:
            return
        clock = self._clock_tainted(value, scope)
        setish = self._set_ordered(value, scope)
        cands = self._candidates(value, scope)
        for n in names:
            if clock:
                scope.clock_vars.add(n)
            if setish:
                scope.set_vars.add(n)
            if cands:
                scope.def_refs.setdefault(n, set()).update(cands)

    def _scan_stmts(self, stmts: list[ast.stmt], scope: _Scope) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, scope)

    def _scan_stmt(self, stmt: ast.stmt, scope: _Scope) -> None:
        s = scope.summary
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan_function(stmt, scope)
            return
        if isinstance(stmt, ast.ClassDef):
            self._scan_class(stmt, scope)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_assign(stmt, stmt.value, scope)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_assign(stmt, stmt.value, scope)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_assign(stmt, stmt.value, scope)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value, scope)
                if self._clock_tainted(stmt.value, scope):
                    s.returns_clock = True
                if self._set_ordered(stmt.value, scope):
                    s.returns_set = True
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, scope)
            self._check_iteration(stmt.iter, stmt.lineno, scope)
            scope.loop_stack.append(stmt.lineno)
            self._scan_stmts(stmt.body, scope)
            scope.loop_stack.pop()
            self._scan_stmts(stmt.orelse, scope)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, scope)
            scope.loop_stack.append(stmt.lineno)
            self._scan_stmts(stmt.body, scope)
            scope.loop_stack.pop()
            self._scan_stmts(stmt.orelse, scope)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, scope)
            self._scan_stmts(stmt.body, scope)
            self._scan_stmts(stmt.orelse, scope)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, scope)
            self._scan_stmts(stmt.body, scope)
            return
        if isinstance(stmt, ast.Try):
            self._scan_stmts(stmt.body, scope)
            for handler in stmt.handlers:
                self._scan_stmts(handler.body, scope)
            self._scan_stmts(stmt.orelse, scope)
            self._scan_stmts(stmt.finalbody, scope)
            return
        # expression statements, asserts, raises, deletes, ...
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, scope)

    # -- scope orchestration ----------------------------------------------

    def _nested_defs(self, body: list[ast.stmt],
                     prefix: str) -> dict[str, str]:
        return {
            stmt.name: f"{prefix}.{stmt.name}"
            for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }

    def _scan_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                       parent: _Scope) -> None:
        fullname = parent.local_defs.get(
            node.name, f"{parent.summary.name}.{node.name}")
        summary = FunctionSummary(
            name=fullname, module=self.mod.module,
            path=self.mod.path, lineno=node.lineno,
        )
        parent.summary.targets.add(fullname)
        scope = _Scope(summary, self._nested_defs(node.body, fullname))
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None:
                self._scan_expr(default, scope)
        for decorator in node.decorator_list:
            self._scan_expr(decorator, parent)
        self._scan_stmts(node.body, scope)
        self.summaries[fullname] = summary

    def _scan_class(self, node: ast.ClassDef, parent: _Scope) -> None:
        fullname = parent.local_defs.get(
            node.name, f"{parent.summary.name}.{node.name}")
        summary = FunctionSummary(
            name=fullname, module=self.mod.module,
            path=self.mod.path, lineno=node.lineno, is_class=True,
        )
        parent.summary.targets.add(fullname)
        scope = _Scope(summary, self._nested_defs(node.body, fullname))
        for decorator in node.decorator_list:
            self._scan_expr(decorator, parent)
        self._scan_stmts(node.body, scope)
        # an instance is as tainted as its construction + call paths
        for method in ("__init__", "__call__", "__post_init__"):
            name = f"{fullname}.{method}"
            if name in self.summaries:
                summary.targets.add(name)
        self.summaries[fullname] = summary

    def scan(self) -> dict[str, FunctionSummary]:
        summary = FunctionSummary(
            name=f"{self.mod.module}.<module>", module=self.mod.module,
            path=self.mod.path, lineno=1,
        )
        scope = _Scope(summary, dict(self.mod.top_defs))
        self._scan_stmts(self.mod.tree.body, scope)
        self.summaries[summary.name] = summary
        return self.summaries


# --------------------------------------------------------------------------
# the program-level fixpoint + rule emission


class FlowProgram:
    """The scanned tree: summaries, call graph, propagated facts."""

    def __init__(self, modules: list[_SourceModule]) -> None:
        self.modules = modules
        self.all_defs: dict[str, bool] = {}
        for mod in modules:
            self._register_defs(mod)
        self.summaries: dict[str, FunctionSummary] = {}
        self._fixpoint()
        self.payloads = {
            t for s in self.summaries.values() for t in s.payloads}
        self.reachable = self._core_reachable()

    # definitions must be known before the first scan so references
    # resolve; collect them with a lightweight pre-pass
    def _register_defs(self, mod: _SourceModule) -> None:
        def walk(body: list[ast.stmt], prefix: str) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self.all_defs[f"{prefix}.{stmt.name}"] = False
                    walk(stmt.body, f"{prefix}.{stmt.name}")
                elif isinstance(stmt, ast.ClassDef):
                    self.all_defs[f"{prefix}.{stmt.name}"] = True
                    walk(stmt.body, f"{prefix}.{stmt.name}")
        walk(mod.tree.body, mod.module)

    def _fixpoint(self) -> None:
        know = _Knowledge()
        for _ in range(5):
            summaries: dict[str, FunctionSummary] = {}
            for mod in self.modules:
                summaries.update(
                    _Scanner(mod, know, self.all_defs).scan())
            nxt = _Knowledge(
                clock_returners=frozenset(
                    n for n, s in summaries.items() if s.returns_clock),
                set_returners=frozenset(
                    n for n, s in summaries.items() if s.returns_set),
            )
            self.summaries = summaries
            if nxt == know:
                break
            know = nxt

    def _core_reachable(self) -> set[str]:
        stack = [
            n for n, s in self.summaries.items()
            if n.split(".")[-1] in CORE_ENTRY_POINTS
            or _in(s.module, WALLCLOCK_BANNED)
        ]
        seen: set[str] = set()
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            s = self.summaries.get(name)
            if s is None:
                continue
            for t in s.targets:
                ts = self.summaries.get(t)
                if ts is not None and _in(ts.module,
                                          CLOCK_EXEMPT_PACKAGES):
                    continue
                if t not in seen:
                    stack.append(t)
        return seen

    # -- emission ----------------------------------------------------------

    def diagnostics(self) -> list[Diagnostic]:
        found: list[Diagnostic] = []

        def emit(code: str, s: FunctionSummary, line: int,
                 message: str) -> None:
            found.append(make(code, message, file=s.path, line=line, col=0))

        for s in self.summaries.values():
            boundary = s.merges or s.name in self.payloads
            if boundary:
                role = ("worker-merge boundary" if s.merges
                        else "parallel payload")
                for line in sorted(set(s.set_iterations)):
                    emit("RD102", s, line, (
                        f"{s.name.split('.')[-1]}() is a {role} but "
                        "iterates a hash-ordered set here: order varies "
                        "with PYTHONHASHSEED"
                    ))
            for line, msg in s.clock_into_entry:
                emit("RD103", s, line, msg)
            if s.name in self.reachable and not _in(
                    s.module, CLOCK_EXEMPT_PACKAGES):
                where = (
                    f"in {s.module}, whose results must not depend on it"
                    if _in(s.module, WALLCLOCK_BANNED) else
                    f"inside {s.name.split('.')[-1]}(), which is "
                    "reachable from a core scheduling entry point"
                )
                for line, what in s.clock_sites:
                    emit("RD103", s, line, f"{what} {where}")
            for line, what in s.hot_ctors:
                emit("RC203", s, line, what)

        # one finding per (code, file, line)
        seen: set[tuple[str, str, int]] = set()
        unique: list[Diagnostic] = []
        for d in found:
            key = (d.code, d.file or "", d.line or 0)
            if key not in seen:
                seen.add(key)
                unique.append(d)
        return unique
