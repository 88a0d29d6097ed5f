"""Device endurance estimation (TBW / DWPD arithmetic).

The paper motivates FTL quality by durability: write amplification
directly divides device lifetime.  These helpers turn a measured WA
into the standard endurance figures so FTLs can be compared on
lifetime, not just latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.geometry import SSDGeometry

GB = 1024 ** 3
TB = 1024 ** 4


@dataclass(frozen=True)
class EnduranceEstimate:
    capacity_bytes: int
    rated_cycles: int
    write_amplification: float
    total_bytes_writable: float

    @property
    def tbw(self) -> float:
        """Terabytes writable by the host before rated wear-out."""
        return self.total_bytes_writable / TB

    def dwpd(self, lifetime_years: float = 5.0) -> float:
        """Drive-writes-per-day sustainable over ``lifetime_years``."""
        if lifetime_years <= 0:
            raise ValueError("lifetime_years must be > 0")
        days = lifetime_years * 365.0
        return self.total_bytes_writable / (days * self.capacity_bytes)

    def row(self) -> dict:
        return {
            "WA": round(self.write_amplification, 2),
            "TBW": round(self.tbw, 1),
            "DWPD@5y": round(self.dwpd(), 2),
        }


def estimate_endurance(
    geometry: SSDGeometry,
    write_amplification: float,
    *,
    rated_cycles: int = 3000,
) -> EnduranceEstimate:
    """How much host data the device absorbs before rated wear-out.

    total raw program budget = physical pages x rated cycles; the host
    sees that budget divided by the FTL's write amplification.
    """
    if write_amplification < 1.0:
        raise ValueError("write amplification cannot be below 1.0")
    if rated_cycles < 1:
        raise ValueError("rated_cycles must be >= 1")
    raw_budget = geometry.num_physical_pages * geometry.page_size * float(rated_cycles)
    return EnduranceEstimate(
        capacity_bytes=geometry.capacity_bytes,
        rated_cycles=rated_cycles,
        write_amplification=write_amplification,
        total_bytes_writable=raw_budget / write_amplification,
    )
