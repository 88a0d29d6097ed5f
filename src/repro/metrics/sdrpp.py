"""SDRPP: standard deviation of requests per plane (Section V.A).

"A lower SDRPP indicates that requests are distributed more evenly
across planes, which leads to a better wear-leveling."  The paper
plots it on a natural-log scale because the raw values are huge; we do
the same, using ``ln(std + 1)`` so an exactly-even distribution maps
to 0 instead of -inf.
"""

from __future__ import annotations

import math

import numpy as np

from repro.flash.counters import FlashCounters


def sdrpp(counters_or_counts) -> float:
    """Natural log of the std-dev of per-plane request counts."""
    if isinstance(counters_or_counts, FlashCounters):
        counts = np.asarray(counters_or_counts.plane_ops)
    else:
        counts = np.asarray(counters_or_counts)
    std = float(np.std(counts))
    return math.log(std + 1.0)
