"""Latency distribution tooling: a log-bucketed histogram.

The paper reports only mean response time; real evaluations also need
tails.  The histogram is pure-Python/numpy and stream-friendly (O(1)
per sample).
"""

from __future__ import annotations

import math

import numpy as np


class LatencyHistogram:
    """Logarithmically bucketed latency histogram (microseconds).

    Buckets span ``[min_us, max_us)`` with ``buckets_per_decade``
    geometric buckets per decade; out-of-range samples clamp to the
    edge buckets.  Percentiles are estimated by linear interpolation
    within a bucket.
    """

    def __init__(self, min_us: float = 1.0, max_us: float = 1e7, buckets_per_decade: int = 10):
        if min_us <= 0 or max_us <= min_us:
            raise ValueError("need 0 < min_us < max_us")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.min_us = min_us
        self.max_us = max_us
        decades = math.log10(max_us / min_us)
        self.num_buckets = max(1, math.ceil(decades * buckets_per_decade))
        self._log_min = math.log10(min_us)
        self._scale = self.num_buckets / decades
        self.counts = np.zeros(self.num_buckets, dtype=np.int64)
        self.total = 0
        self.sum_us = 0.0
        self.max_seen = 0.0

    def _bucket_of(self, value_us: float) -> int:
        if value_us < self.min_us:
            return 0
        index = int((math.log10(value_us) - self._log_min) * self._scale)
        return min(index, self.num_buckets - 1)

    def bucket_bounds(self, index: int) -> tuple:
        lo = 10 ** (self._log_min + index / self._scale)
        hi = 10 ** (self._log_min + (index + 1) / self._scale)
        return lo, hi

    def record(self, value_us: float) -> None:
        if value_us < 0:
            raise ValueError("latency cannot be negative")
        self.counts[self._bucket_of(value_us)] += 1
        self.total += 1
        self.sum_us += value_us
        self.max_seen = max(self.max_seen, value_us)

    @property
    def mean_us(self) -> float:
        return self.sum_us / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0 < q <= 100)."""
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        if self.total == 0:
            return 0.0
        target = q / 100.0 * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            if cumulative + count >= target:
                lo, hi = self.bucket_bounds(index)
                if count == 0:
                    return lo
                frac = (target - cumulative) / count
                return lo + frac * (hi - lo)
            cumulative += count
        return self.max_seen

    def summary(self) -> dict:
        return {
            "count": self.total,
            "mean_us": self.mean_us,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
            "max_us": self.max_seen,
        }
