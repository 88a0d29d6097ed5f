"""Discrete-event simulation engine — the DiskSim-equivalent substrate.

The engine delivers events (request arrivals, completions) in simulated
time order.  All simulated times are in microseconds (float).
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.request import IoOp, IoRequest

__all__ = ["Engine", "EventHandle", "IoOp", "IoRequest"]
