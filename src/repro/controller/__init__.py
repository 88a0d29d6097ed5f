"""SSD controller layer: request admission, page splitting, statistics."""

from repro.controller.controller import Controller
from repro.controller.device import SimulatedSSD
from repro.controller.writebuffer import WriteBuffer
from repro.controller.background import BackgroundGc
from repro.controller.closedloop import ClosedLoopDriver, ClosedLoopResult

__all__ = [
    "Controller",
    "SimulatedSSD",
    "WriteBuffer",
    "BackgroundGc",
    "ClosedLoopDriver",
    "ClosedLoopResult",
]
