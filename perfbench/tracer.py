"""Span tracer that wraps the public functions of the mclr modules.

Every public module-level function of a traced module is replaced by a
wrapper that records one span (name, parent span, start, end) per call.  The
wrapper is bound under every name that refers to the original function in any
loaded ``mclr`` module, so calls through ``from .x import f`` aliases and
through module attributes are both seen.  Spans nest: the parent of a span is
the span that was open when the call began, so a layer's self time is its
duration minus the durations of its direct children.

Spans are kept in flat typed arrays while tracing runs and are written out
once, at the end, with :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np


class _ModuleProxy:
    """Stands in for a module attribute so that one of its functions is traced
    only as seen from the namespace that holds the proxy."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records nested spans around the public functions of ``modules``.

    ``modules`` maps a layer name to a module object.  ``foreign`` lists
    ``(module, attribute, {function_name: span_name})`` entries: the attribute
    (a third-party module such as ``scipy.linalg``) is replaced in that one
    namespace by a proxy whose listed functions are traced.  Entries the
    module does not have are skipped, so the tracer outlives refactors.
    """

    def __init__(self, modules, foreign=()):
        self.modules = dict(modules)
        self.foreign = tuple(foreign)
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = -1
        self._wrappers = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name):
        self.names.append(name)
        nid = len(self.names) - 1
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(self._open)
            ends.append(0.0)
            self._open = sid
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                self._open = parents[sid]

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _build(self):
        """Create one wrapper per traced function (once per tracer)."""
        self._wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        self._proxies = []
        for mod, attr, spans in self.foreign:
            target = getattr(mod, attr, None)
            overrides = {fn: self._wrap(getattr(target, fn), span)
                         for fn, span in spans.items() if hasattr(target, fn)}
            if overrides:
                self._proxies.append(
                    (mod, attr, _ModuleProxy(target, overrides)))

    def install(self):
        """Rebind every traced function to its wrapper under all its names."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        if self._wrappers is None:
            self._build()
        package = next(iter(self.modules.values())).__name__.split(".")[0]
        for key, mod in sorted(sys.modules.items()):
            if mod is None or not (key == package
                                   or key.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in self._wrappers:
                    self._set(mod, name, self._wrappers[id(obj)])
        for mod, attr, proxy in self._proxies:
            self._set(mod, attr, proxy)

    def uninstall(self):
        """Restore every binding changed by :meth:`install`."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    def arrays(self):
        """(name ids, parent ids, durations, self times) of all spans."""
        name = np.frombuffer(self.span_name, dtype=np.intc).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.intc).copy()
        dur = (np.frombuffer(self.span_end, dtype=float)
               - np.frombuffer(self.span_start, dtype=float))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name))
        return name, parent, dur, dur - child

    def aggregate(self, lo=0, hi=None):
        """Per span name over spans ``lo:hi``: self seconds, total (inclusive)
        seconds and calls."""
        name, _, dur, self_t = self.arrays()
        hi = len(name) if hi is None else hi
        name = name[lo:hi]
        k = len(self.names)

        def per_name(values):
            out = {}
            for i, v in enumerate(np.bincount(name, weights=values,
                                              minlength=k)):
                out[self.names[i]] = out.get(self.names[i], 0) + v.item()
            return out

        return (per_name(self_t[lo:hi]), per_name(dur[lo:hi]),
                per_name(np.ones(len(name), dtype=int)))

    def save(self, path):
        """Write all spans (name ids, parents, start and end times)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.intc),
                 parent=np.frombuffer(self.span_parent, dtype=np.intc),
                 start=np.frombuffer(self.span_start, dtype=float),
                 end=np.frombuffer(self.span_end, dtype=float))
