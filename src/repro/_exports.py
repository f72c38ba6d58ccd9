"""Export tables: package inits that import on use (PEP 562).

A package init hands :func:`export_table` one table, keyed by submodule
(relative to the package), of the names each submodule defines::

    __getattr__, __dir__, __all__ = export_table(__name__, {
        "reduce": ("Reduction", "reduce_machine"),
        "machine": ("MachineBuilder", "MachineDescription"),
    })

The init imports nothing else, so importing it is free.  The first
access to a name imports its submodule and caches the object in the
package, so ``from repro.core import reduce_machine`` returns the very
function :mod:`repro.core.reduce` defines.  The key ``""`` lists
submodules exported as themselves.

Several exported names are also submodules (``repro.machines.cydra5``
the function and ``repro.machines.cydra5`` the module).  Python binds a
submodule on its package the first time it is imported, by any route,
which would replace the function.  The package therefore ignores that
binding for every name its table exports: the table decides.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


class _ExportingPackage(types.ModuleType):
    """A package whose exported names outrank its submodules."""

    def __setattr__(self, name: str, value: object) -> None:
        exported = self.__dict__.get("__all__", ())
        if name in exported and value is sys.modules.get(
            self.__name__ + "." + name
        ):
            return  # the import system binding a same-named submodule
        super().__setattr__(name, value)


def export_table(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` serving ``table`` from
    ``package``, whose module becomes an exporting package; the init
    binds all three, and ``__all__`` is the table's names in order."""
    module = sys.modules[package]
    namespace = module.__dict__
    owner: Dict[str, str] = {
        name: key for key, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        key = owner.get(name)
        if key is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        if key:
            value = getattr(
                importlib.import_module(package + "." + key), name
            )
        else:
            value = importlib.import_module(package + "." + name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    module.__class__ = _ExportingPackage
    return __getattr__, __dir__, list(owner)
