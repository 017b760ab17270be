"""Lazy package exports (PEP 562), in the style of Scientific Python SPEC 1.

A package ``__init__`` names the module that provides each public name::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "repro.core.celia": ["Celia", "Prediction"],
    })

so ``import repro`` (or any subpackage) loads no module its caller does
not use.  A name's module is imported on first access and the value is
cached in the package namespace; ``dir()`` lists every exported name, and
``from pkg import *`` binds them all.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["attach"]


def attach(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s re-exports."""
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, list(origin)
