"""Deferred imports for the heavy dependencies (scipy.special, mpmath).

Most commands never reach the code that needs them, so a module-level
``lazy_module`` stands in for ``import``: the real import runs on the first
attribute access, after which the object is an ordinary module and costs
nothing extra per call.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_module(name: str) -> ModuleType:
    """Return module ``name``, imported on first attribute access unless already loaded.

    Raises ``ModuleNotFoundError`` at once when the module is not installed.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
