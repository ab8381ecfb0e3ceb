"""Outside-in tracer for the enthier package.

The tracer changes no file of the package. It wraps, from the benchmark
side, every function named in a submodule's ``__all__`` and every public
method of a class named there (``report.ReportDocument.to_json`` and
``render``). Then it rebinds every reference the package holds to the
original function objects:

* the defining module's attribute;
* names imported into other modules (``locc.hierarchy``,
  ``cli.conversion_class``) and into the package namespace;
* function objects held as values of module-level dicts
  (``cli._HIERARCHY_PATHS``), without which the ``measure --path``
  routes would go untraced.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory until the run ends. A span's self time is its duration
minus the durations of its child spans; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder shared by every wrapper it creates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._open = -1

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records one span named ``name`` per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(self._open)
            ends.append(0.0)
            self._open = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                self._open = parents[index]

        return traced

    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Calls per name, self seconds per name, and the summed root-span duration."""
        durations = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        name_ids = np.frombuffer(self.name_ids, dtype=np.int64)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=durations.size
        )
        self_time = durations - child_time
        width = len(self.names)
        calls = np.bincount(name_ids, minlength=width)
        self_by_name = np.bincount(name_ids, weights=self_time, minlength=width)
        return (
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            {name: float(self_by_name[i]) for i, name in enumerate(self.names)},
            float(durations[~has_parent].sum()),
        )


def _public_functions(module):
    """(qualified name, owner, attribute, function) for everything the tracer wraps."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for method, fn in vars(obj).items():
                if inspect.isfunction(fn) and not method.startswith("_"):
                    yield f"{short}.{attr}.{method}", obj, method, fn


def package_modules(package_name: str) -> list:
    """The package and every submodule, imported (``__main__`` excluded)."""
    package = importlib.import_module(package_name)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"{package_name}.{info.name}"))
    return modules


def _references(modules, targets):
    """Every (container, key) in the package's namespaces that holds a target function."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in targets:
                yield module, key
            elif isinstance(value, dict):
                for inner_key, inner in value.items():
                    if inspect.isfunction(inner) and inner in targets:
                        yield value, inner_key
            elif isinstance(value, (list, tuple)):
                for inner in value:
                    if inspect.isfunction(inner) and inner in targets:
                        raise RuntimeError(
                            f"{module.__name__}.{key} holds {inner.__qualname__} in a sequence the tracer cannot rebind"
                        )


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


@contextmanager
def installed(tracer: Tracer, package_name: str = "enthier"):
    """Wrap the package's public functions for the duration of the block.

    Yields the qualified names of the wrapped functions. Every reference
    is restored on exit, also when the block raises.
    """
    modules = package_modules(package_name)
    wrappers = {}
    undo = []
    try:
        for module in modules[1:]:
            for name, owner, attr, fn in _public_functions(module):
                wrappers[fn] = (name, tracer.wrap(name, fn))
                if inspect.isclass(owner):
                    setattr(owner, attr, wrappers[fn][1])
                    undo.append((owner, attr, fn))
        for container, key in list(_references(modules, wrappers)):
            original = container[key] if isinstance(container, dict) else getattr(container, key)
            _set(container, key, wrappers[original][1])
            undo.append((container, key, original))
        left = list(_references(modules, wrappers))
        if left:
            raise RuntimeError(f"untraced references remain: {left}")
        yield sorted(name for name, _ in wrappers.values())
    finally:
        for container, key, original in reversed(undo):
            _set(container, key, original)


__all__ = ["Tracer", "installed", "package_modules"]
