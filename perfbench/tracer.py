"""Outside-in span tracer for the traced repetition.

perfbench wraps the calls that cross each layer boundary of the
simulator (instance attributes on the objects a run is built from) and
records one span per call: layer, start, end and the span that was open
when it began.  A layer's *self* time is its spans' durations minus the
time their direct children cover, so the self times of all layers sum
to the root span — the ``run_stream``/``run`` call.

Spans live in flat ``array`` columns (a 300 k-request replay records
~2 M of them); they are reduced and written out after the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Callable, Dict, Iterator, List

import numpy as np

#: Layers, outermost first.  The root span belongs to ``sim_controller``
#: (engine + controller cannot be told apart from outside).
LAYERS = ("sim_controller", "traces", "tenancy", "ftl", "flash", "metrics", "sanitizer")


class Tracer:
    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._current = -1
        #: spans are recorded only while the root call is running
        self.active = False

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` recorded around every call."""
        layer_id = LAYERS.index(layer)
        layers, starts, ends, parents = self.layer, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(layers)
            layers.append(layer_id)
            parents.append(self._current)
            ends.append(0.0)
            self._current = index
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                self._current = parents[index]

        return traced

    def wrap_iter(self, layer: str, iterator: Iterator) -> Iterator:
        """An iterator whose every ``__next__`` is a span of ``layer``."""
        return _TracedIterator(self.wrap(layer, iterator.__next__))

    def root(self, fn: Callable):
        """Run ``fn()`` as the root span and return its result."""
        call = self.wrap(LAYERS[0], fn)
        self.active = True
        try:
            return call()
        finally:
            self.active = False

    # ---- reduction ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total and self seconds."""
        layer = np.frombuffer(self.layer, dtype=np.int8)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_s = duration.copy()
        if len(layer) > 1:
            parent = np.frombuffer(self.parent, dtype=np.intc)
            np.subtract.at(self_s, parent[1:], duration[1:])
        spans = np.bincount(layer, minlength=len(LAYERS))
        total = np.bincount(layer, weights=duration, minlength=len(LAYERS))
        own = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        return {
            name: {"spans": int(spans[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(LAYERS)
        }

    def misnested(self) -> int:
        """Spans that do not lie inside their parent's span (must be 0)."""
        if len(self.layer) < 2:
            return 0
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.intc)[1:]
        inside = (parent >= 0) & (start[1:] >= start[parent]) & (end[1:] <= end[parent])
        return int(len(parent) - np.count_nonzero(inside))

    def head(self, limit: int) -> List[dict]:
        """The first ``limit`` spans verbatim, times relative to the root."""
        t0 = self.start[0] if len(self.start) else 0.0
        return [
            {
                "id": i,
                "layer": LAYERS[self.layer[i]],
                "start_us": (self.start[i] - t0) * 1e6,
                "end_us": (self.end[i] - t0) * 1e6,
                "parent": self.parent[i],
            }
            for i in range(min(limit, len(self.layer)))
        ]


class _TracedIterator:
    __slots__ = ("_next",)

    def __init__(self, traced_next: Callable) -> None:
        self._next = traced_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()
