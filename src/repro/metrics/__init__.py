"""Evaluation metrics (Section V.A) and reporting tools."""

from repro.metrics.sdrpp import sdrpp
from repro.metrics.wear import WearStats, wear_stats
from repro.metrics.report import format_table
from repro.metrics.latency import LatencyHistogram
from repro.metrics.amplification import AmplificationReport, amplification
from repro.metrics.ascii_chart import hbar_chart, series_chart, sparkline
from repro.metrics.utilization import UtilizationReport, utilization
from repro.metrics.endurance import EnduranceEstimate, estimate_endurance
from repro.metrics.streaming import (
    DeterministicReservoir,
    RunningMoments,
    StreamingRequestStats,
)

__all__ = [
    "sdrpp",
    "WearStats",
    "wear_stats",
    "format_table",
    "LatencyHistogram",
    "AmplificationReport",
    "amplification",
    "hbar_chart",
    "series_chart",
    "sparkline",
    "UtilizationReport",
    "utilization",
    "EnduranceEstimate",
    "estimate_endurance",
    "DeterministicReservoir",
    "RunningMoments",
    "StreamingRequestStats",
]
