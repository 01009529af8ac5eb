"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` lists its public names once, by defining
submodule, and binds what :func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "cyclo": ("CycloResult", "cyclo_compact"),
        "startup": ("start_up_schedule",),
    })

Importing the package then runs only its own ``__init__``.  A listed
name is imported from its submodule on first access and cached in the
package's globals, so later reads are plain attribute lookups.  Any
other attribute that names a submodule or subpackage imports it, so
``import repro; repro.core.cyclo`` works as it did when every package
imported its whole subtree.  ``__all__`` and ``dir()`` list every
exported name before any of them is loaded.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``table``'s values, each defined in the submodule named by
    its key."""
    origin = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name in origin:
            module = importlib.import_module(f"{package}.{origin[name]}")
            value = getattr(module, name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, sorted(origin)
