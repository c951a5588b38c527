"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule up front, so ``campaign report`` would pay for the
simulator it never runs.  :func:`lazy_exports` instead resolves each name
on first attribute access: ``from repro import ExperimentRunner`` still
works, but only imports :mod:`repro.sim.runner` when that line runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".runner"``) to the
    public names it provides.  A resolved name is stored in the package
    namespace, so each one is looked up once.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__, list(source)
