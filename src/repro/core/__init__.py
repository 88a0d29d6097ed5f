"""The paper's contribution: the DLOOP flash translation layer.

DLOOP (Data Log On One Plane) stripes data and translation pages
across all planes by logical address and keeps every update on the
plane of its original data, so garbage collection moves valid pages
with intra-plane copy-back operations that never touch the I/O bus.
"""

from repro.core.dloop import DloopFtl
from repro.core.hotdloop import HotPlaneDloopFtl
from repro.core.hcdloop import HotColdDloopFtl

__all__ = ["DloopFtl", "HotPlaneDloopFtl", "HotColdDloopFtl"]
