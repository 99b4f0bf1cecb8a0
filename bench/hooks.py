"""Tracing from outside: wrap the public functions of the qibench modules.

A hook replaces a function under every name that refers to it in a loaded
qibench module (``williamson``, for instance, is imported into chernoff,
relent and validation), and the original is put back on exit. Each call
records its self time: its duration minus the time of the hooked calls
nested inside it, hook bookkeeping included, so a caller is not charged for
the hooks of its callees. A function missing from its module is reported as
absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

# (module, function, stat key); None as the function hooks every public
# function defined in the module under one key
TARGETS = (
    ("protocols", "hypothesis_pair", "protocols.hypothesis_pair"),
    ("gaussian", "williamson", "gaussian.williamson"),
    ("chernoff", "s_overlap", "chernoff.s_overlap"),
    ("chernoff", "qcb", "chernoff.qcb"),
    ("chernoff", "qbb", "chernoff.qbb"),
    ("relent", "relative_entropy", "relent.relative_entropy"),
    ("relent", "roc_from_rates", "relent.roc_from_rates"),
    ("closed_forms", None, "closed_forms"),
    ("homodyne", "roc_homodyne", "homodyne.roc_homodyne"),
    ("homodyne", "monte_carlo_roc", "homodyne.monte_carlo_roc"),
    ("special", "erfc_inv", "special.erfc_inv"),
    ("validation", "check_qcb_equivalence", "validation.check_qcb_equivalence"),
    ("validation", "check_qre_equivalence", "validation.check_qre_equivalence"),
    ("validation", "check_homodyne_monte_carlo", "validation.check_homodyne_monte_carlo"),
    ("validation", "check_structural", "validation.check_structural"),
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    parents: dict = field(default_factory=dict)


def _relent_key(args: tuple, kwargs: dict) -> str:
    # the relative entropy has two paths: f64 by default, mpmath with dps
    dps = kwargs.get("dps", args[3] if len(args) > 3 else None)
    return "relent.relative_entropy" + (".mp" if dps is not None else ".f64")


class Tracer:
    """Self-time and call-count accounting for hooked functions.

    ``observe`` maps a stat key to a callable (args, kwargs, result) that the
    hook calls after the function returns, outside the timed interval.
    """

    def __init__(self, observe: dict | None = None):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.observe = observe or {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stack, stats, observe = self._stack, self.stats, self.observe
        split = key == "relent.relative_entropy"

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            entered = perf_counter()
            try:
                k = _relent_key(args, kwargs) if split else key
                parent = stack[-1][0] if stack else None
                frame = [k, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    stat = stats.get(k)
                    if stat is None:
                        stat = stats[k] = Stat()
                    stat.calls += 1
                    stat.self_s += elapsed - frame[1]
                    if parent is not None:
                        stat.parents[parent] = stat.parents.get(parent, 0) + 1
                observer = observe.get(k)
                if observer is not None:
                    observer(args, kwargs, result)
                return result
            finally:
                # the caller's self time excludes this call and the hook's own bookkeeping
                if stack:
                    stack[-1][1] += perf_counter() - entered

        return hooked

    def __enter__(self) -> "Tracer":
        self.absent = []
        modules = {}
        for mod_name, _, _ in TARGETS:
            try:
                modules[mod_name] = importlib.import_module(f"qibench.{mod_name}")
            except ImportError:
                pass
        loaded = [m for name, m in list(sys.modules.items()) if name == "qibench" or name.startswith("qibench.")]
        for mod_name, fn_name, key in TARGETS:
            module = modules.get(mod_name)
            if module is None:
                fns = []
            elif fn_name is None:
                fns = [
                    f
                    for name, f in vars(module).items()
                    if inspect.isfunction(f) and not name.startswith("_") and f.__module__ == module.__name__
                ]
            else:
                fns = [f for f in (getattr(module, fn_name, None),) if f is not None]
            if not fns:
                self.absent.append(key)
                continue
            for fn in fns:
                hooked = self._wrap(key, fn)
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, hooked)
                            self._patched.append((mod, name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def snapshot(self) -> dict[str, Stat]:
        return {k: Stat(s.calls, s.self_s, dict(s.parents)) for k, s in self.stats.items()}


def diff(after: dict[str, Stat], before: dict[str, Stat]) -> dict[str, Stat]:
    """Stats accumulated between two snapshots."""
    out = {}
    for k, s in after.items():
        b = before.get(k, Stat())
        if s.calls > b.calls:
            parents = {p: n - b.parents.get(p, 0) for p, n in s.parents.items()}
            out[k] = Stat(s.calls - b.calls, s.self_s - b.self_s, {p: n for p, n in parents.items() if n})
    return out
