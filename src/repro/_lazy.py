"""Packages whose public names are imported on first use.

A package that sets ``_EXPORTS`` (public name -> the submodule defining
it) and switches its module class to :class:`LazyPackage` imports a
submodule only when one of its names is first read, so importing the
package, or one light submodule of it, does not load the heavy ones.
"""

import importlib
import types


class LazyPackage(types.ModuleType):
    """Resolves ``_EXPORTS`` names on first read and keeps each one
    naming what it exports.  Importing a submodule binds it on its
    package under its own name, and a submodule may share its name with
    the function it defines (``repro.clustering.hac`` and ``hac``); such
    a binding is replaced by the function."""

    def __getattr__(self, name):
        module = self.__dict__.get("_EXPORTS", {}).get(name)
        if module is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name, value):
        if (
            isinstance(value, types.ModuleType)
            and self.__dict__.get("_EXPORTS", {}).get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)
