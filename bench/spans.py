"""Span recorder for the traced benchmark run, installed from outside the package.

Each wrapped function records one span per call: name, start, end, the index
of the enclosing span (-1 at top level), an optional work count taken from
the return value and an optional hash of the arguments.  Spans stay in memory
until the job ends; `layer_totals` turns them into per-layer calls, self time
(span minus its child spans) and summed counts.
"""

import functools
import importlib
import sys
import time

# Work counts taken from a layer's return value, by metric field name.
COUNTERS = {
    "vectors": len,
    "terms": lambda result: result.terms,
}


class Tracer:
    """Collects spans of wrapped calls in one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None, keyed=False):
        """A wrapper of fn that records a span named name around each call.

        count maps the return value to a work count; keyed stores a hash of
        the positional arguments so distinct argument tuples can be counted.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None,
                    self._stack[-1] if self._stack else -1, None,
                    hash(args) if keyed else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            if count is not None:
                span[4] = count(result)
            return result
        return traced


def install(tracer, layers, package="quatperiods"):
    """Wrap every layer function and rebind each module name bound to it.

    The wrapper replaces the original in every module namespace of the
    package, so `from .orders import f` bindings and call-time local imports
    both reach it.  The wrapper calls an `lru_cache` object itself, so the
    cache keeps working; returns {name: cached function} for `cache_info`.
    """
    importlib.import_module(f"{package}.cli")
    namespaces = [mod for key, mod in list(sys.modules.items())
                  if key == package or key.startswith(package + ".")]
    caches = {}
    for layer in layers:
        module, attr = layer.function.split(".")
        original = getattr(importlib.import_module(f"{package}.{module}"),
                           attr)
        counted = [f for f in layer.fields if f in COUNTERS]
        wrapper = tracer.wrap(
            layer.function, original,
            count=COUNTERS[counted[0]] if counted else None,
            keyed="distinct" in layer.fields)
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        if hasattr(original, "cache_info"):
            caches[layer.function] = original
    return caches


def layer_totals(spans):
    """{name: {"calls", "self_s", "count", "distinct"}} from one job's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, count, key in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    keys = {}
    for (name, start, end, parent, count, key), inner in zip(spans,
                                                             child_time):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0,
                                     "distinct": 0})
        t["calls"] += 1
        t["self_s"] += end - start - inner
        t["count"] += count or 0
        if key is not None:
            keys.setdefault(name, set()).add(key)
    for name, seen in keys.items():
        totals[name]["distinct"] = len(seen)
    return totals
