"""RD103's root lists name real code.

:data:`~repro.analyze.flow.SCHEDULE_ENTRY_POINTS` and
:data:`~repro.analyze.flow.CORE_ENTRY_POINTS` match call and function
names by spelling alone, so an entry point that is deleted or renamed
would stay listed without any error and protect nothing.  These tests
scan the ``repro`` source tree and require a ``def`` or ``class`` for
every listed name.
"""

import ast
from pathlib import Path

import repro
from repro.analyze.flow import CORE_ENTRY_POINTS, SCHEDULE_ENTRY_POINTS

SRC = Path(repro.__file__).resolve().parent


def defined_names(root: Path) -> set[str]:
    """Every function and class name defined anywhere under ``root``."""
    names: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
    return names


def test_schedule_entry_points_are_defined():
    assert sorted(SCHEDULE_ENTRY_POINTS - defined_names(SRC)) == []


def test_core_entry_points_are_defined():
    assert sorted(CORE_ENTRY_POINTS - defined_names(SRC)) == []


def test_scan_sees_nested_defs_and_misses_deleted_ones(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Outer:\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            pass\n"
        "async def fetch():\n"
        "    pass\n"
        "gone = None\n"
    )
    assert defined_names(tmp_path) == {"Outer", "method", "inner", "fetch"}
