"""Span tracing from the benchmark's own files.

The tracer wraps every public function of a package's modules, plus the
constructor and public methods of every public class, so that each call
records a span: name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the part
of it that its child spans cover.

``from .x import y`` copies the function object into the importing module,
so wrapping ``x.y`` alone would miss calls made through that copy.
``install`` therefore rebinds every module attribute that holds an original
function to its wrapper, and ``uninstall`` restores them all.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None


@dataclass
class Tracer:
    """In-memory span recorder; not thread-safe (the benchmark runs --jobs 1)."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    op: str | None = None
    clock: object = time.perf_counter

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)

        traced.__bench_original__ = fn
        return traced


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list, groups: dict | None = None) -> dict:
    """{layer: (calls, self_s)} over all spans.

    ``groups`` maps span names to a shared layer name.  A call counts once
    per entry into its layer: a span whose parent belongs to the same layer
    (say max_mean_cycle delegating to min_mean_cycle) is not a new call.
    """
    groups = groups or {}
    layer = [groups.get(s.name, s.name) for s in spans]
    calls = defaultdict(int)
    selfs = defaultdict(float)
    for i, (s, t) in enumerate(zip(spans, self_times(spans))):
        selfs[layer[i]] += t
        if s.parent is None or layer[s.parent] != layer[i]:
            calls[layer[i]] += 1
    return {name: (calls[name], selfs[name]) for name in selfs}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(tracer: Tracer, package: str) -> list:
    """Wrap the public callables of every loaded module of ``package``.

    Returns the undo log for :func:`uninstall`.
    """
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    undo = []
    wrappers = {}  # id(original function) -> wrapper
    for mod in modules:
        if mod.__name__ == package:
            continue
        for name, obj in list(vars(mod).items()):
            if not _public(name) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            label = f"{_short(mod.__name__)}.{name}"
            if inspect.isfunction(obj):
                wrappers[id(obj)] = tracer.wrap(label, obj)
            elif inspect.isclass(obj):
                undo.extend(_wrap_class(tracer, label, obj))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
            if wrapper is not None and wrapper.__bench_original__ is obj:
                undo.append((mod, name, obj))
                setattr(mod, name, wrapper)
    return undo


def _wrap_class(tracer: Tracer, label: str, cls) -> list:
    undo = []
    for name, attr in list(vars(cls).items()):
        if name == "__init__" and inspect.isfunction(attr):
            new = tracer.wrap(label, attr)
        elif not _public(name):
            continue
        elif inspect.isfunction(attr):
            new = tracer.wrap(f"{label}.{name}", attr)
        elif isinstance(attr, (classmethod, staticmethod)):
            new = type(attr)(tracer.wrap(f"{label}.{name}", attr.__func__))
        else:
            continue  # properties and data stay untouched
        undo.append((cls, name, attr))
        setattr(cls, name, new)
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
