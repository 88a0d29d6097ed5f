"""Bounded-memory streaming sketches for the conformance probes.

Contract probes run against multi-million-request streams, so anything
they accumulate must be O(1)/bounded.  Moments and percentiles reuse
:mod:`repro.metrics.streaming`; this module adds the one missing
primitive: a deterministic distinct-count estimator.

:class:`KmvDistinctCounter` is a k-minimum-values sketch: hash every
item to a uniform 64-bit value and keep the ``k`` smallest distinct
hashes.  While fewer than ``k`` distinct items have been seen the count
is exact; afterwards the k-th smallest hash estimates the density of
the hashed set (estimate ``(k - 1) / kth_normalized``).  The hash is an
explicit splitmix64 finalizer — no dependence on Python's ``hash()``
randomisation, so two runs of the same stream produce the same estimate
(determinism lint DL102 holds by construction).
"""

from __future__ import annotations

import heapq

from repro.seeding import splitmix64

_MASK64 = (1 << 64) - 1


class KmvDistinctCounter:
    """Deterministic distinct-count estimate in O(k) memory.

    ``add()`` accepts non-negative integers (LPNs).  ``estimate()`` is
    exact below ``k`` distinct items and a k-minimum-values estimate
    beyond; the relative error is about ``1/sqrt(k - 2)`` (~3% at the
    default ``k``).
    """

    def __init__(self, k: int = 1024, salt: int = 0):
        if k < 8:
            raise ValueError("k must be >= 8")
        self.k = k
        self.salt = salt & _MASK64
        # Max-heap (negated) of the k smallest distinct hashes, plus a
        # membership set over exactly the heap contents for dedup.
        self._heap: list = []
        self._members: set = set()

    def add(self, item: int) -> None:
        h = splitmix64((item & _MASK64) ^ self.salt)
        if h in self._members:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, -h)
            self._members.add(h)
            return
        largest = -self._heap[0]
        if h < largest:
            heapq.heapreplace(self._heap, -h)
            self._members.discard(largest)
            self._members.add(h)

    @property
    def exact(self) -> bool:
        """True while the sketch still holds every distinct hash seen."""
        return len(self._heap) < self.k

    def estimate(self) -> float:
        if not self._heap:
            return 0.0
        if self.exact:
            return float(len(self._heap))
        kth = -self._heap[0]  # largest of the k smallest hashes
        return (self.k - 1) / (kth / float(1 << 64))
