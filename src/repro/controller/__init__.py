"""SSD controller layer: request admission, page splitting, statistics."""

from repro.controller.controller import Controller
from repro.controller.device import SimulatedSSD
from repro.controller.writebuffer import WriteBuffer
from repro.controller.background import BackgroundGc

__all__ = [
    "Controller",
    "SimulatedSSD",
    "WriteBuffer",
    "BackgroundGc",
]
