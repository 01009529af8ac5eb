"""Lazy package exports: what an import loads, that every public
name still resolves where it did, and that the runtime needs no
third-party package.

Each check that depends on what is already imported runs in a fresh
interpreter, since the test process has loaded most of the package.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)

#: Packages and modules the scheduling engine never needs.
ENGINE_EXCLUDED = (
    "repro.qa", "repro.perf", "repro.analyze", "repro.analysis",
    "repro.codegen", "repro.sim", "repro.resilience",
    "repro.obs.aggregate", "repro.obs.history", "repro.obs.export",
    "repro.obs.profile", "repro.obs.collapse",
    "multiprocessing", "concurrent.futures",
)

#: Packages and modules only some CLI commands need; each command
#: imports them itself.
CLI_EXCLUDED = (
    "repro.analysis", "repro.codegen", "repro.sim", "repro.baselines",
    "repro.obs.export", "repro.obs.profile",
)


#: Third-party packages only the tests use (the ``test`` extra); no
#: module under ``src/repro`` may import them.
TEST_ONLY = ("networkx",)


def fresh(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a new interpreter; return its
    stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement: str) -> list[str]:
    out = fresh(f"import sys\n{statement}\nprint(*sorted(sys.modules))")
    return out.split()


def test_import_repro_loads_only_the_package_and_helper():
    mods = [m for m in loaded_after("import repro") if m.startswith("repro")]
    assert mods == ["repro", "repro._exports"]


def test_engine_entry_points_stay_within_budget():
    mods = loaded_after("import repro.core.cyclo, repro.core.pipeline")
    excluded = [
        m for m in mods
        if any(m == x or m.startswith(x + ".") for x in ENGINE_EXCLUDED)
    ]
    assert excluded == []
    # 40 today: the engine, its substrate packages and their inits
    assert len([m for m in mods if m.startswith("repro")]) <= 40


def test_cli_imports_each_commands_modules_inside_it():
    mods = loaded_after("import repro.cli")
    excluded = [
        m for m in mods
        if any(m == x or m.startswith(x + ".") for x in CLI_EXCLUDED)
    ]
    assert excluded == []
    # 59 today: the engine plus the workloads, renderers and parser
    assert len([m for m in mods if m.startswith("repro")]) <= 60


def test_shadowed_names_stay_functions():
    # importing the submodules first must not rebind the package names
    out = fresh(
        "import repro.core.mobility, repro.workloads.random_suite\n"
        "from repro.core import mobility\n"
        "from repro.workloads import random_suite\n"
        "print(type(mobility).__name__, type(random_suite).__name__)"
    )
    assert out.split() == ["function", "function"]


def test_submodules_resolve_as_attributes():
    out = fresh(
        "import repro\n"
        "print(repro.core.cyclo.__name__, repro.core.cyclo_compact.__name__)"
    )
    assert out.split() == ["repro.core.cyclo", "cyclo_compact"]


CHECK_EXPORTS = """
import importlib, pkgutil, sys
name = sys.argv[1]
pkg = importlib.import_module(name)
values = {n: getattr(pkg, n) for n in pkg.__all__}
missing = sorted(set(pkg.__all__) - set(dir(pkg)))
assert not missing, f"not in dir(): {missing}"
star = {}
exec(f"from {name} import *", star)
assert set(pkg.__all__) <= star.keys()
# every module of the subtree, loaded: a name a submodule import could
# rebind must still be the object first resolved
subtree = [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(pkg.__path__, name + ".")
]
for n, value in values.items():
    assert getattr(pkg, n) is value, n
    defined = [m for m in subtree if vars(m).get(n) is value]
    # a submodule export is the module; __version__ lives in repro itself
    assert defined or value is sys.modules.get(f"{name}.{n}") or (
        n == "__version__"
    ), f"{n} is not the object its defining module binds"
print(len(values))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_definition(package):
    count = int(fresh(CHECK_EXPORTS, package))
    assert count == len(importlib.import_module(package).__all__) > 0


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.core.no_such_name
    assert not hasattr(repro.graph, "no_such_name")


def test_missing_dependency_inside_a_submodule_is_not_masked(
    tmp_path, monkeypatch
):
    pkg = tmp_path / "lazypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro._exports import lazy_exports\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, "
        "{'broken': ('thing',)})\n"
    )
    (pkg / "broken.py").write_text("import no_such_dependency\nthing = 1\n")
    (pkg / "other.py").write_text("import no_such_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        mod = importlib.import_module("lazypkg")
        for attr in ("thing", "other"):
            with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
                getattr(mod, attr)
    finally:
        for name in [m for m in sys.modules if m.startswith("lazypkg")]:
            del sys.modules[name]


def test_helper_caches_the_first_resolution(tmp_path, monkeypatch):
    pkg = tmp_path / "cachepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro._exports import lazy_exports\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, "
        "{'impl': ('value',)})\n"
    )
    (pkg / "impl.py").write_text("value = object()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        mod = importlib.import_module("cachepkg")
        assert mod.__all__ == ["value"] and "value" in dir(mod)
        assert "value" not in vars(mod) and "cachepkg.impl" not in sys.modules
        first = mod.value
        assert vars(mod)["value"] is first is sys.modules["cachepkg.impl"].value
    finally:
        for name in [m for m in sys.modules if m.startswith("cachepkg")]:
            del sys.modules[name]



def imports_test_only(node: ast.AST) -> bool:
    """Whether ``node`` imports a :data:`TEST_ONLY` package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] in TEST_ONLY for name in names)


def third_party_imports(root: Path) -> list[str]:
    """``file:line`` of every import of a :data:`TEST_ONLY` package in
    the ``.py`` files under ``root``, lazy imports inside functions
    included."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = sorted(n.lineno for n in ast.walk(tree) if imports_test_only(n))
        found += [f"{path.relative_to(root)}:{line}" for line in lines]
    return found


def test_no_module_imports_a_test_only_package():
    assert third_party_imports(Path(SRC) / "repro") == []


def test_scan_convicts_a_lazy_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f():\n    import networkx as nx\n    return nx\n"
        "from networkx.algorithms import cycles\n"
    )
    assert third_party_imports(tmp_path) == ["mod.py:2", "mod.py:4"]


BLOCK_NETWORKX = """
import runpy, sys
sys.modules["networkx"] = None
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ["schedule", "figure7", "--arch", "mesh", "--pes", "8"],
    ["fuzz", "--trials", "20", "--seed", "1"],
])
def test_cli_runs_with_networkx_blocked(argv):
    fresh(BLOCK_NETWORKX, *argv)
