"""Outside-in layer tracing: call counts and self time of public functions.

The tracer wraps the public functions and public-class methods of a set of
modules from the outside; the program under test is not modified.  Each
distinct function object is wrapped once, and that one wrapper is installed
under every module-level name that refers to the function, so a function
imported by name into other modules (``from .composite import
partial_trace``) or reached through a module alias (``cli.comp_mod``) is
counted once per call.

Spans are accumulated in memory per function and read once, when the
traced process is done.  The span stack is shared by the whole process, so
trace only single-threaded runs.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from types import ModuleType

import numpy as np


def _arrays(obj, seen: set[int]) -> list[np.ndarray]:
    """NumPy arrays reachable from ``obj`` through dataclass fields and containers."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (tuple, list)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    else:
        return []
    return [a for c in children for a in _arrays(c, seen)]


def out_bytes(result, args, kwargs) -> int:
    """nbytes of the arrays in ``result`` that are not reachable from the arguments."""
    seen: set[int] = set()
    _arrays((args, kwargs), seen)
    return sum(a.nbytes for a in _arrays(result, seen))


class Tracer:
    """Per-function call counts, self time and total time, kept in memory.

    ``stats[name]`` is ``[calls, self_s, total_s, out_bytes]`` with
    ``name = "<module>.<qualname>"``, the module being the last component of
    the defining module's name.
    """

    def __init__(self, measure_out_bytes: frozenset[str] = frozenset()):
        self.stats: dict[str, list[float]] = {}
        self._open: list[float] = []  # time covered by child spans of each open span
        self._measure_out_bytes = measure_out_bytes

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records its spans under ``name``."""
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter
        measure = name in self._measure_out_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                rec[0] += 1
                rec[1] += elapsed - children
                rec[2] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if measure:
                rec[3] += out_bytes(result, args, kwargs)
            return result

        return traced

    def install(self, layers: list[ModuleType], namespaces: list[ModuleType]) -> None:
        """Wrap the public functions of ``layers`` and rebind them everywhere.

        Every attribute of every module in ``namespaces`` that refers to a
        wrapped function is replaced by that function's single wrapper.
        """
        wrappers: dict[int, object] = {}
        for mod in layers:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            traced = self.wrap(f"{layer}.{fn.__qualname__}", fn)
                            setattr(obj, meth, traced)
                elif inspect.isfunction(inspect.unwrap(obj)) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{obj.__qualname__}", obj)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def table(self) -> dict[str, dict[str, float]]:
        """Stats by function name, for the functions called at least once."""
        return {
            name: {"calls": rec[0], "self_s": rec[1], "total_s": rec[2], "out_bytes": rec[3]}
            for name, rec in self.stats.items()
            if rec[0]
        }
