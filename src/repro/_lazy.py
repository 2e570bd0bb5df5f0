"""Lazy package exports: a package imports a submodule on first use.

Every package ``__init__`` under :mod:`repro` declares its public
names in one table, ``_EXPORTS``, mapping each name to the submodule
that defines it, and hands the table to :func:`lazy_exports`.  From
:mod:`repro.sim`::

    _EXPORTS = {
        "Engine": "engine",
        ...
    }
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``repro.sim.Engine`` and ``from repro.sim import Engine`` then import
:mod:`repro.sim.engine` the first time the name is asked for (PEP 562),
so ``import repro`` loads no subpackage and a process loads only the
modules it runs.  ``"submodule:attr"`` re-exports under a new name
(``"select_multichain": "pam:select"`` in :mod:`repro.multichain`), and
a name equal to its submodule stands for the submodule
(``"catalog": "catalog"`` in :mod:`repro.chain`).

The table must stay a module-level dict literal of string constants:
the whole-program lint (:mod:`repro.analysis.lint.project.loader`)
reads it without importing anything to resolve re-exports.  Code under
:mod:`repro` imports from the defining module, never through a table.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps each public name to ``"submodule"`` (the attribute of
    that name) or ``"submodule:attr"`` (a re-export under a new name).
    A resolved name is stored on the package, so each one costs one
    import and one lookup.
    """

    def __getattr__(name: str) -> object:
        target = table.get(name)
        if target is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        submodule, _, attr = target.partition(":")
        module = importlib.import_module(f"{package}.{submodule}")
        if attr:
            value = getattr(module, attr)
        elif submodule == name:
            value = module
        else:
            value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
