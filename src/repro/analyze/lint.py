"""Head 2 — the codebase lint (``repro lint``).

A small :mod:`ast`-based linter enforcing the repository's own
invariants (rules ``RL101``–``RL107`` in the catalogue):

* determinism — no draws from global random state and no unseeded
  ``Random()`` outside :mod:`repro.qa` (RL101), no wall-clock reads in
  the core scheduling packages (RL102);
* one pricing authority — no hand-composed hop-cost arithmetic outside
  :mod:`repro.arch` (RL103);
* typed failure — no bare ``except:`` anywhere (RL104), no
  ``except Exception`` (RL105) and no raising builtin exception types
  (RL106) in the core packages, where the fuzzer relies on typed
  :class:`~repro.errors.ReproError` contracts;
* sinks over stdout — no ``print()`` in the instrumented packages
  (:mod:`repro.core`, :mod:`repro.perf`) or in
  :mod:`repro.obs.runtime` (RL107): diagnostics there belong in the
  observability sinks, not on stdout.

A finding on a line carrying ``# repro-lint: disable=CODE`` (several
codes comma-separated, or ``disable=all``) is suppressed and counted in
:attr:`~repro.analyze.diagnostics.AnalysisReport.suppressed`; a
``# repro-lint: disable-file=CODE`` comment suppresses for the whole
file.  Suppressions that name unknown codes or silence nothing are
themselves flagged (RL109) — see :mod:`repro.analyze.suppress`, which
this head shares with the flow analyzer.

The linter needs only the source text: files are never imported, so it
is safe to run over trees that do not import (and over the mutation
fixtures the test suite plants in temporary directories).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analyze.diagnostics import AnalysisReport, Diagnostic
from repro.analyze.rules import make
from repro.analyze.suppress import apply_suppressions
from repro.errors import AnalysisError

__all__ = ["infer_module", "lint_source", "lint_paths"]

#: Packages whose results must not depend on the wall clock (RL102).
WALLCLOCK_BANNED = ("repro.core", "repro.graph", "repro.retiming")

#: Packages held to the typed-exception contract (RL105, RL106).
CORE_PACKAGES = WALLCLOCK_BANNED + ("repro.arch", "repro.schedule")

#: Modules where print() must give way to the obs sinks (RL107):
#: the instrumented packages plus the observability runtime itself.
PRINT_BANNED_PACKAGES = ("repro.core", "repro.perf")
PRINT_BANNED_MODULES = ("repro.obs.runtime",)

#: Functions that read or mutate a module-global random state.
_RAND_FUNCS = frozenset({
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
    "seed", "rand", "randn",
})

#: Wall-clock reads banned from the core packages.
_CLOCK_FUNCS = frozenset({
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "time_ns"),
    ("time", "perf_counter_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})

#: Builtin exception types core packages must not raise (RL106).
#: NotImplementedError is conventional Python and stays allowed.
_BUILTIN_RAISES = frozenset({
    "Exception", "BaseException", "RuntimeError", "ValueError",
    "TypeError", "KeyError", "IndexError", "ArithmeticError",
    "ZeroDivisionError", "AttributeError", "OSError", "IOError",
})

def infer_module(path: str | Path) -> str:
    """Dotted module name of a source file, anchored at ``repro``.

    Works on any path that contains a ``repro`` directory component —
    including copies planted under a temporary directory, which is how
    the mutation tests exercise the linter without touching the real
    tree.  Paths outside any ``repro`` package fall back to their stem.
    """
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


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


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.found: list[Diagnostic] = []

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.found.append(make(
            code, message,
            file=self.path,
            line=getattr(node, "lineno", None),
            col=getattr(node, "col_offset", None),
        ))

    # -- RL101 / RL102 / RL103(call form) ------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if not _in(self.module, ("repro.qa",)):
            self._check_random(node, chain)
        if _in(self.module, WALLCLOCK_BANNED) and len(chain) >= 2:
            if tuple(chain[-2:]) in _CLOCK_FUNCS:
                self._emit(
                    "RL102",
                    f"{'.'.join(chain)}() reads the wall clock inside "
                    f"{self.module}",
                    node,
                )
        if (
            not _in(self.module, ("repro.arch",))
            and chain
            and chain[-1] == "cost"
            and any(
                isinstance(arg, ast.Call)
                and _dotted(arg.func)[-1:] == ["hops"]
                for arg in node.args
            )
        ):
            self._emit(
                "RL103",
                "cost model fed directly from .hops(...): hop-cost "
                f"arithmetic composed by hand in {self.module}",
                node,
            )
        if chain == ["print"] and (
            _in(self.module, PRINT_BANNED_PACKAGES)
            or self.module in PRINT_BANNED_MODULES
        ):
            self._emit(
                "RL107",
                f"print() in instrumented module {self.module}: route "
                "diagnostics through the obs sinks",
                node,
            )
        self.generic_visit(node)

    def _check_random(self, node: ast.Call, chain: list[str]) -> None:
        if (
            len(chain) >= 2
            and chain[-1] in _RAND_FUNCS
            and "random" in chain[:-1]
        ):
            self._emit(
                "RL101",
                f"{'.'.join(chain)}() draws from global random state in "
                f"{self.module}",
                node,
            )
        elif chain[-1:] == ["Random"] and not node.args and not node.keywords:
            self._emit(
                "RL101",
                f"unseeded Random() constructed in {self.module}",
                node,
            )

    # -- RL103 (attribute form) ----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "cost"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "comm_model"
            and not _in(self.module, ("repro.arch",))
        ):
            self._emit(
                "RL103",
                f"direct comm_model.cost access in {self.module} bypasses "
                "Architecture.comm_cost / CommCostCache",
                node,
            )
        self.generic_visit(node)

    # -- RL104 / RL105 -------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit("RL104", f"bare except: in {self.module}", node)
        elif _in(self.module, CORE_PACKAGES):
            names = (
                [n for e in node.type.elts for n in _dotted(e)[-1:]]
                if isinstance(node.type, ast.Tuple)
                else _dotted(node.type)[-1:]
            )
            if any(n in ("Exception", "BaseException") for n in names):
                self._emit(
                    "RL105",
                    f"except {'/'.join(names)} in core package "
                    f"{self.module}",
                    node,
                )
        self.generic_visit(node)

    # -- RL106 ---------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        if node.exc is not None and _in(self.module, CORE_PACKAGES):
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = (_dotted(target) or [""])[-1]
            if name in _BUILTIN_RAISES:
                self._emit(
                    "RL106",
                    f"raise {name} in core package {self.module}: callers "
                    "cannot catch it by contract",
                    node,
                )
        self.generic_visit(node)


def lint_source(
    source: str,
    *,
    module: str | None = None,
    path: str = "<string>",
) -> tuple[list[Diagnostic], int]:
    """Lint one source text.  Returns ``(findings, suppressed_count)``.

    Syntax errors are reported as an RL104-free, code-less concern:
    they surface as an :class:`AnalysisError` because an unparsable
    file is a misuse of the linter, not a lint finding.
    """
    if module is None:
        module = infer_module(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    visitor = _Visitor(module, path)
    visitor.visit(tree)
    return apply_suppressions(
        visitor.found, source, path=path, owned_prefixes=("RL",)
    )


def lint_paths(paths: list[str | Path]) -> AnalysisReport:
    """Lint files and/or directories (recursively, ``*.py``)."""
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            raise AnalysisError(f"no such file or directory: {entry}")
    report = AnalysisReport(subject=", ".join(str(p) for p in paths))
    for f in files:
        found, suppressed = lint_source(f.read_text(), path=str(f))
        report.extend(found)
        report.suppressed += suppressed
    return report
