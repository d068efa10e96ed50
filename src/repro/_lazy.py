"""Lazy package namespaces: re-exported names resolve on first use.

A package ``__init__`` declares, per defining module, the names it
re-exports and turns that table into its PEP 562 ``__getattr__`` and
``__dir__``::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.engine.engine": ("ExperimentEngine", "default_engine"),
    })

Importing the package then imports none of those modules.  The first
access to a name imports its defining module and stores the value in
the package's globals, so later lookups are plain attribute reads and
``from package import Name`` returns the defining module's object.
The library itself imports names from their defining modules, never
through a namespace, so mypy and ``repro lint`` need not read the
tables.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose globals
    are ``namespace``; ``table`` maps each defining module to the names
    the package re-exports from it."""
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            # PEP 562: hasattr() and `from package import submodule`
            # rely on AttributeError for a name the table does not hold.
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
