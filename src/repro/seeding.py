"""Seed derivation and integer hashing shared by every seeded subsystem.

Fault plans, grid scenarios, torture cells and tenant streams
all derive their randomness from explicit integer hashes — no wall
clock, no stateful RNG, no dependence on Python's ``hash()`` — so the
same seed replays the same decisions on any machine (lint rules DL101
and DL102 hold by construction).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit integer mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fold_seed(base_seed: int, label: str) -> int:
    """Seed for the stream named ``label``: FNV-1a over the label, mixed
    with ``base_seed`` through splitmix64 (31 bits, numpy-seedable)."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return splitmix64(h ^ (base_seed & _MASK64)) & 0x7FFFFFFF
