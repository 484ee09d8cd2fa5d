"""Lazy package exports (PEP 562): a package names its public API
without importing it, so a process pays only for what it runs."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __all__)`` for ``package``, whose ``exports`` map
    each defining module to the space-separated names re-exported from
    it.  A name is imported on first access, then bound on the package
    as an eager import would bind it."""
    where = {name: module for module, names in exports.items()
             for name in names.split()}

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(where)
