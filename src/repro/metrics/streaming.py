"""Response-time accounting in O(1) memory.

The controller's one request-stats type, for every way a trace is
handed over (``run(list)``, ``run_stream``, tenancy, torture): a
multi-million-request trace must not cost O(trace) RAM just for
latencies.

* :class:`RunningMoments` — exact running count/mean/variance/min/max
  via Welford's algorithm (numerically stable single pass);
* :class:`DeterministicReservoir` — fixed-size uniform sample of the
  response-time distribution (Vitter's Algorithm R) driven by a seeded
  RNG, so two replays of the same trace report identical percentiles;
* :class:`StreamingRequestStats` — what the controller feeds through
  ``observe()`` and the reporting layer reads through
  ``mean_response_ms()`` / ``percentile_us()``; memory stays fixed no
  matter how long the trace is.

Until its first eviction (count <= capacity, 4 096 by default) the
reservoir holds every successful response time in completion order, so
percentiles and the steady-state series are exact; afterwards they are
a uniform-sample estimate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class RunningMoments:
    """Exact single-pass moments (Welford) plus min/max."""

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    min: float = math.inf
    max: float = -math.inf

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class DeterministicReservoir:
    """Fixed-size uniform sample (Algorithm R) with a seeded RNG.

    Deterministic by construction: the eviction decisions depend only
    on the seed and the number of items offered, never on wall clock or
    hash order — the determinism linter's DL102 rule holds.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0x5EED):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.seen = 0
        self.values: list = []
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits

    def push(self, x: float) -> None:
        seen = self.seen + 1
        self.seen = seen
        if len(self.values) < self.capacity:
            self.values.append(x)
            return
        # ``Random.randrange(seen)``, less its two forwarding frames:
        # the rejection loop of ``_randbelow_with_getrandbits`` draws
        # the same bits from the same stream on CPython 3.11 and 3.12.
        getrandbits = self._getrandbits
        k = seen.bit_length()
        j = getrandbits(k)
        while j >= seen:
            j = getrandbits(k)
        if j < self.capacity:
            self.values[j] = x

    @property
    def exact(self) -> bool:
        """True while nothing has been evicted (percentiles are exact)."""
        return self.seen <= self.capacity

    def percentile(self, q: float) -> float:
        if not self.values:
            return 0.0
        return float(np.percentile(np.asarray(self.values, dtype=np.float64), q))


class StreamingRequestStats:
    """Response-time accumulator for completed host requests.

    The controller mutates the page/failure/retry counters and calls
    ``observe(response_us, is_write)`` once per successful completion;
    response times flow into running moments (exact means, overall and
    per lane) and one shared reservoir (percentiles).
    """

    def __init__(self, reservoir_size: int = 4096, reservoir_seed: int = 0x5EED):
        self.overall = RunningMoments()
        self.reads = RunningMoments()
        self.writes = RunningMoments()
        #: error-status completions (end-of-life ENOSPC), bucketed apart
        #: so the moments and the reservoir describe successful service.
        self.errors = RunningMoments()
        self.reservoir = DeterministicReservoir(reservoir_size, reservoir_seed)
        self.pages_read = 0
        self.pages_written = 0
        self.pages_trimmed = 0
        self.failed_requests = 0
        self.retried_requests = 0
        self.total_retries = 0
        self.lost_pages = 0

    # ---- accumulation (controller hot path) -------------------------------

    def observe(self, response_us: float, is_write: bool) -> None:
        # One call per completed request: ``overall.push``, the lane's
        # ``push`` and ``reservoir.push`` written out in that order
        # (same arithmetic, same draws — the moments and the reservoir
        # stay bit-identical to the method-call form).
        x = response_us
        m = self.overall
        count = m.count + 1
        m.count = count
        delta = x - m.mean
        mean = m.mean + delta / count
        m.mean = mean
        m._m2 += delta * (x - mean)
        if x < m.min:
            m.min = x
        if x > m.max:
            m.max = x
        m = self.writes if is_write else self.reads
        count = m.count + 1
        m.count = count
        delta = x - m.mean
        mean = m.mean + delta / count
        m.mean = mean
        m._m2 += delta * (x - mean)
        if x < m.min:
            m.min = x
        if x > m.max:
            m.max = x
        r = self.reservoir
        seen = r.seen + 1
        r.seen = seen
        values = r.values
        if len(values) < r.capacity:
            values.append(x)
        else:
            getrandbits = r._getrandbits
            k = seen.bit_length()
            j = getrandbits(k)
            while j >= seen:
                j = getrandbits(k)
            if j < r.capacity:
                values[j] = x

    def observe_error(self, response_us: float, is_write: bool) -> None:
        """Record an error-status completion (kept out of the moments
        and the percentile reservoir — the reservoir's eviction stream
        must match a fault-free replay of the successful requests)."""
        self.errors.push(response_us)

    # ---- reporting surface ------------------------------------------------

    @property
    def count(self) -> int:
        return self.overall.count

    def mean_response_us(self) -> float:
        return self.overall.mean if self.overall.count else 0.0

    def mean_response_ms(self) -> float:
        return self.mean_response_us() / 1000.0

    def percentile_us(self, q: float) -> float:
        return self.reservoir.percentile(q)

    def summary(self) -> dict:
        """Scalar digest for reports / CLI tables."""
        return {
            "requests": self.count,
            "mean_us": self.overall.mean,
            "std_us": self.overall.std,
            "min_us": self.overall.min if self.count else 0.0,
            "max_us": self.overall.max if self.count else 0.0,
            "p50_us": self.percentile_us(50),
            "p99_us": self.percentile_us(99),
            "reservoir_exact": self.reservoir.exact,
        }
