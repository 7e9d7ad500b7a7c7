"""Span tracer that wraps qkdnet's public functions from outside the package.

Every public function of the traced modules is replaced, in every qkdnet
namespace that holds a reference to it, by a wrapper that records a span:
name, start, end and the index of the span that was open when it was called.
The package imports names (``from .mathkit import solve_bounded_lp``), so
wrapping only the defining module would miss the calls that ``decoy`` makes;
rebinding each name where it is imported catches them.  Calls made inside
the package look module globals up at call time, so nested calls are traced
as well.  :meth:`Tracer.uninstall` restores the original bindings.

Only the standard library is imported here, so importing this module does
not count towards the benchmark's set-up time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

PACKAGE = "qkdnet"

#: Modules whose public functions (their ``__all__``) are traced.
TRACED_MODULES = ("mathkit", "channel", "decoy", "keyrate", "netsim", "qds", "experiments", "cli")

#: Library functions imported into a traced module and traced there.
FOREIGN = {"mathkit": ("linprog",)}


def _estimate_bounds_mode(args, kwargs):
    mode = kwargs["mode"] if "mode" in kwargs else args[3]
    return str(mode).lower()


#: Span variants, used to split one function's timings by an argument.
VARIANTS = {"decoy.estimate_bounds": _estimate_bounds_mode}

#: Spans around which tracemalloc records the peak memory allocated inside
#: the call.  The simulator is vectorised, so tracemalloc costs little there.
MEMORY_TRACKED = frozenset({"netsim.run_plan"})


class Span:
    __slots__ = ("name", "variant", "parent", "start", "end", "peak_bytes")

    def __init__(self, name, variant, parent):
        self.name = name
        self.variant = variant
        self.parent = parent
        self.start = 0
        self.end = 0
        self.peak_bytes = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


def traced_functions() -> dict:
    """Map ``id(function)`` to ``(function, span name)`` for every traced function."""
    found = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        names = [
            name
            for name in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, name, None))
            and getattr(module, name).__module__ == module.__name__
        ]
        names += FOREIGN.get(short, ())
        for name in names:
            func = getattr(module, name)
            found[id(func)] = (func, f"{short}.{name}")
    return found


class Tracer:
    """Records spans while installed; holds them in memory until read."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {
            key: self._wrap(func, name) for key, (func, name) in traced_functions().items()
        }
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        variant_of = VARIANTS.get(name)
        track = name in MEMORY_TRACKED
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, variant_of(args, kwargs) if variant_of else None,
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if track:
                tracemalloc.start()
            span.start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span.end = clock()
                if track:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return traced


class LayerStats:
    """Aggregate of every span with one name (or one name and variant)."""

    __slots__ = ("calls", "ns", "self_ns", "durations_ns", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.durations_ns = []
        self.peak_bytes = 0

    @property
    def ms(self) -> float:
        return self.ns / 1e6

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    @property
    def ms_p50(self) -> float:
        return statistics.median(self.durations_ns) / 1e6 if self.durations_ns else 0.0


def summarize(spans) -> dict:
    """Per-name statistics; a span with a variant also counts under ``name.variant``.

    Self time is a span's duration minus the durations of its direct
    children, i.e. the part of its interval no child span covers.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.ns
    stats: dict[str, LayerStats] = {}
    for span, children in zip(spans, child_ns):
        keys = [span.name] if span.variant is None else [span.name, f"{span.name}.{span.variant}"]
        for key in keys:
            entry = stats.setdefault(key, LayerStats())
            entry.calls += 1
            entry.ns += span.ns
            entry.self_ns += span.ns - children
            entry.durations_ns.append(span.ns)
            entry.peak_bytes = max(entry.peak_bytes, span.peak_bytes)
    return stats
