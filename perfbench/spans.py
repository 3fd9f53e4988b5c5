"""Spans around the benchmark's own calls into curvperm.

A span records its name, start, end and parent; spans stay in memory
until the run writes them out.  Leaf spans (the library calls) also
record the ``tracemalloc`` peak above the memory in use when they began.
With tracing off, ``call`` is a plain call and ``span`` records nothing.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

MB = float(2**20)


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, memory: bool = False):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "peak_mb": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        measure_memory = memory and tracemalloc.is_tracing()
        if measure_memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if measure_memory:
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a leaf span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, memory=True):
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their union
    is their sum.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def totals_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def counts_by_name(spans: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
    return out


def peaks_by_layer(spans: list[dict]) -> dict[str, float]:
    """Largest leaf-span allocation peak per layer (the name's prefix)."""
    out: dict[str, float] = {}
    for s in spans:
        if s["peak_mb"] is not None:
            layer = s["name"].split(".", 1)[0]
            out[layer] = max(out.get(layer, 0.0), s["peak_mb"])
    return out
