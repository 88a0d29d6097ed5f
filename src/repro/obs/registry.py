"""MetricsRegistry: counters, gauges and fixed-bucket histograms.

A minimal, dependency-free metrics surface in the Prometheus style,
keyed by name.  The snapshot sampler (``repro.obs.sampler``) publishes
live run statistics through a registry; anything else in the simulator
can register its own instruments::

    reg = MetricsRegistry()
    reg.counter("gc_passes").inc()
    reg.gauge("queue_depth").set(controller.outstanding)
    reg.histogram("response_us", (100, 500, 1000, 5000)).observe(latency)
    reg.snapshot()  # plain-python dict, JSON-serialisable

Instruments are get-or-create: asking twice for the same name returns
the same object (with a type check), so producers and consumers only
need to agree on names.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, free blocks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative-friendly summary.

    ``buckets`` are the finite upper bounds; an implicit +inf bucket
    catches the overflow.  ``counts[i]`` is the number of observations
    ``<= buckets[i]`` exclusive of earlier buckets (i.e. per-bucket, not
    cumulative); ``counts[-1]`` is the +inf bucket.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total")

    def __init__(self, name: str, buckets: Sequence[float]):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.buckets: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Named instruments, get-or-create, snapshot-able."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        if name not in self._instruments and buckets is None:
            raise ValueError(f"first request for histogram {name!r} must supply buckets")
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """Every instrument's current value as JSON-friendly python."""
        out: dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value  # type: ignore[attr-defined]
        return out
