"""Nested spans and counters recorded around the package's functions.

The package itself carries no instrumentation. ``install`` wraps, from
outside, every public function of each ``singcov`` module and every
private one that another module imports, plus the methods in
``METHODS``. A function imported with ``from .linalg import name`` has
one binding per importing module; every binding is replaced, so a call
is traced whichever module makes it.

A span's self time is its duration minus the durations of the spans
nested directly inside it. The tracer keeps one stack and is meant for
single-threaded runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

MODULES = ("linalg", "combinatorics", "haar", "ewens", "toeplitz", "bench", "cli")

# methods traced in addition to module-level functions: (module, class, method)
METHODS = (
    ("linalg", "WelfordAccumulator", "add_batch"),
    ("bench", "MetricReport", "write"),
)


class Tracer:
    """Self time per span name, counters, and the spans of recorded calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        # [name, start, end, parent index]; appended only while recording
        self.spans = []
        self.recording = False
        self._stack = []  # [start, seconds spent in child spans, span index]

    def reset(self):
        """Forget totals and spans, e.g. those of the workload's set-up."""
        self.self_s.clear()
        self.counts.clear()
        self.spans.clear()

    def enter(self, name: str):
        index = -1
        if self.recording:
            index = len(self.spans)
            parent = self._stack[-1][2] if self._stack else -1
            self.spans.append([name, None, None, parent])
        self._stack.append([self.clock(), 0.0, index])

    def exit(self, name: str):
        end = self.clock()
        start, child, index = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if index >= 0:
            self.spans[index][1:3] = [start, end]

    def wrap(self, name: str, fn, observe=None):
        """Traced stand-in for ``fn``; ``observe(tracer, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced


def _count_draws(tracer, args, result):
    tracer.counts["linalg.sample_haar_stiefel_batch.draws"] += result.shape[0]


def _count_bytes(tracer, args, result):
    # args[0] is the accumulator, args[1] the batch; bytes computed from the array
    tracer.counts["linalg.WelfordAccumulator.add_batch.bytes"] += args[1].nbytes


def _count_accepts(tracer, args, result):
    tracer.counts["haar.invcov_p_mc.accepted"] += result.samples
    tracer.counts["haar.invcov_p_mc.drawn"] += result.samples + result.rejected


def _alloc_peak(tracer, name, fn):
    """Record the tracemalloc peak, in MiB, over each call of ``fn``."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            key = name + ".alloc_peak_mb"
            tracer.counts[key] = max(tracer.counts[key], peak)

    return measured


OBSERVERS = {
    "linalg.sample_haar_stiefel_batch": _count_draws,
    "linalg.WelfordAccumulator.add_batch": _count_bytes,
    "haar.invcov_p_mc": _count_accepts,
}
ALLOC_PEAK = ("haar.invcov_spectrum",)


def modules(package) -> dict:
    """The package's modules by short name, imported if need be."""
    return {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}


def rebind(namespaces, original, replacement) -> list:
    """Point every attribute of ``namespaces`` bound to ``original`` at
    ``replacement``; returns ``(namespace, attribute, original)`` for undo."""
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                undo.append((ns, attr, original))
    return undo


def traced_functions(package) -> list:
    """``(qualified name, function)`` for every module function to trace."""
    mods = modules(package)
    imported = set()
    for mod in mods.values():
        for value in vars(mod).values():
            if inspect.isfunction(value) and value.__module__ != mod.__name__:
                imported.add(id(value))
    out = []
    for short, mod in mods.items():
        public = getattr(mod, "__all__", None)
        for attr, value in vars(mod).items():
            if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                continue
            is_public = attr in public if public is not None else not attr.startswith("_")
            if is_public or id(value) in imported:
                out.append((f"{short}.{attr}", value))
    return out


def install(tracer: Tracer, package) -> list:
    """Trace the package's functions; returns the undo list of ``rebind``."""
    mods = modules(package)
    namespaces = [package, *mods.values()]
    undo = []
    for name, fn in traced_functions(package):
        wrapped = fn
        if name in ALLOC_PEAK:
            wrapped = _alloc_peak(tracer, name, wrapped)
        wrapped = tracer.wrap(name, wrapped, OBSERVERS.get(name))
        undo += rebind(namespaces, fn, wrapped)
    for short, cls_name, method in METHODS:
        cls = getattr(mods[short], cls_name)
        name = f"{short}.{cls_name}.{method}"
        original = vars(cls)[method]
        setattr(cls, method, tracer.wrap(name, original, OBSERVERS.get(name)))
        undo.append((cls, method, original))
    return undo


def uninstall(undo: list):
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)
