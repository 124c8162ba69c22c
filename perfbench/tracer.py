"""Span tracing from outside the program: wrap public functions, keep spans in memory.

A wrapper replaces a function under every module attribute through which a
caller can look it up. ``reaction`` imports ``index_from_uniform`` from
``teleport`` by name, for example, so wrapping only
``teleport.index_from_uniform`` would miss the calls ``reaction.simulate``
makes. A span is a ``(name, start_ns, end_ns, parent)`` tuple, where
``parent`` is the index of the enclosing span or -1. Spans stay in a list
until the run reads them; nothing is written while tracing.

This module imports nothing from spinport, so its self-test runs on its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

#: The five modules of the package, one layer each, in dependency order.
LAYERS = ("spinalg", "bellkit", "teleport", "reaction", "cli")

#: Validators called once per simulated event: counted, since one span per
#: event would hold millions of tuples.
COUNTED = ("reaction.EventRecord",)


class Tracer:
    """Installs span-recording and counting wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, namespaces, original, name: str) -> None:
        """Record one span named ``name`` per call of ``original``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        self._replace(namespaces, original, traced)

    def count(self, namespaces, original, name: str) -> None:
        """Count calls of ``original`` without spans, for calls made once per event."""
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(namespaces, original, counted)

    def _replace(self, namespaces, original, replacement) -> None:
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, replacement)
                    self._installed.append((namespace, attr, original))

    def restore(self) -> None:
        """Put every original function back where it was found."""
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def instrument(tracer: Tracer) -> None:
    """Wrap every public function and dataclass validator of the five layers.

    A function is wrapped under its own module and under every other layer
    module, and the package itself, that holds it by name. A class defined
    in a layer that validates in ``__post_init__`` gets that method wrapped,
    so each construction (``Ket`` for example) is a span of its layer. Names
    in ``COUNTED`` are counted instead.
    """
    modules = {layer: importlib.import_module(f"spinport.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("spinport"), *modules.values()]
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(value):
                tracer.wrap(namespaces, value, name)
            elif inspect.isclass(value) and "__post_init__" in vars(value):
                install = tracer.count if name in COUNTED else tracer.wrap
                install([value], vars(value)["__post_init__"], name)


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    The program runs on one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_s(spans) -> dict[str, float]:
    """Self time in seconds summed per layer (the part of a span name before the dot)."""
    totals = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, self_times_ns(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + own
    return {layer: ns / 1e9 for layer, ns in totals.items()}
