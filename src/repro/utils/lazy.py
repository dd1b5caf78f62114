"""Lazy package exports (PEP 562): a package's public names load on first use.

A package ``__init__`` that re-exports names from heavy submodules makes
every importer pay for all of them -- ``import repro`` used to load numpy
and the whole simulation stack just so ``repro --help`` could print.
With :func:`lazy_exports` the package keeps one table of its exports and
imports a defining module only when one of its names is first read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.bus": ("BusDesign", "CharacterizedBus"),
    })

The package keeps an ``if TYPE_CHECKING:`` import block with the same names
so static type checkers see the real types.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module (a full dotted name) to the names
    the package re-exports from it, in ``__all__`` order.  A name whose
    module is the submodule ``<package>.<name>`` exports that submodule
    itself.  A resolved name is stored in the package namespace, so only
    its first lookup goes through ``__getattr__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module_name = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__
