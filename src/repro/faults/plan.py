"""Seeded, deterministic fault plans.

A :class:`FaultPlan` decides, per flash operation, whether that
operation fails — program failure, erase failure, or a read error
(correctable with bounded retries, or uncorrectable page loss).  The
design constraints, in order:

1. **Determinism** — same seed + same config + same operation sequence
   ⇒ the *same* operations fail.  Decisions are a pure function of
   ``(seed, operation kind, per-kind operation index)`` through a
   splitmix64-style integer hash: no wall clock (lint rule DL101), no
   stateful RNG object whose draw order could drift between runs
   (DL102), no floats until the final rate comparison — which is done
   in integer space anyway.
2. **Zero cost when off** — a plan with all rates zero reports
   ``enabled == False`` and is never attached; instrumented sites guard
   with one ``is None`` check, so fault-free runs stay bit-identical.
3. **Reproducibility of a single failure** — the decision index of
   every injected fault is reported in trace events and
   :class:`FaultStats`, so a failure seen once can be replayed exactly
   from ``(seed, config)`` (see ``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.seeding import splitmix64

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64

# Distinct salts per operation kind so the per-kind decision streams are
# independent even though they share one seed.
_PROGRAM_SALT = 0x9E3779B97F4A7C15
_ERASE_SALT = 0xC2B2AE3D27D4EB4F
_READ_SALT = 0x165667B19E3779F9


def _threshold(rate: float) -> int:
    """Map a probability to a 64-bit integer comparison threshold."""
    if rate <= 0.0:
        return 0
    if rate >= 1.0:
        return _TWO64
    return int(rate * _TWO64)


@dataclass(frozen=True)
class FaultConfig:
    """Rates and knobs for a :class:`FaultPlan`.

    Rates are per-operation probabilities.  ``read_error_rate`` is the
    chance a host data read needs retries (correctable ECC error);
    ``read_uncorrectable_rate`` is the chance the page is lost outright
    (surfaced to the controller as data loss).  A program failure marks
    the block; after ``program_fails_to_retire`` failures the block is
    queued for runtime retirement (valid pages relocated, block leaves
    circulation).  An erase failure retires the block immediately via
    the array's release-time retirement path.
    """

    seed: int = 0
    program_fail_rate: float = 0.0
    erase_fail_rate: float = 0.0
    read_error_rate: float = 0.0
    read_uncorrectable_rate: float = 0.0
    max_read_retries: int = 3
    program_fails_to_retire: int = 1

    def __post_init__(self) -> None:
        for name in ("program_fail_rate", "erase_fail_rate",
                     "read_error_rate", "read_uncorrectable_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_read_retries < 1:
            raise ValueError("max_read_retries must be >= 1")
        if self.program_fails_to_retire < 1:
            raise ValueError("program_fails_to_retire must be >= 1")

    @classmethod
    def moderate(cls, seed: int = 0) -> "FaultConfig":
        """A preset that exercises every fault path without drowning the run.

        Retirement needs two lifetime program failures in the *same*
        block: at these rates single failures are common, but a block
        that fails twice is genuinely suspect — retiring on the first
        one would burn through a small device's spare blocks.
        """
        return cls(
            seed=seed,
            program_fail_rate=0.002,
            erase_fail_rate=0.002,
            read_error_rate=0.01,
            read_uncorrectable_rate=0.0005,
            program_fails_to_retire=2,
        )


#: Read decision sentinel: the page is lost (uncorrectable ECC error).
READ_LOST = -1


class FaultPlan:
    """Per-operation fault decisions, derived purely from (seed, index).

    Each operation kind keeps its own monotonically increasing counter;
    the n-th decision of a kind hashes ``(seed ^ kind_salt, n)`` and
    compares against the configured rate in 64-bit integer space.
    """

    __slots__ = (
        "config",
        "_program_state", "_erase_state", "_read_state",
        "_program_threshold", "_erase_threshold",
        "_uncorrectable_threshold", "_correctable_threshold",
        "program_decisions", "erase_decisions", "read_decisions",
    )

    def __init__(self, config: FaultConfig):
        self.config = config
        seed = config.seed & _MASK64
        self._program_state = splitmix64(seed ^ _PROGRAM_SALT)
        self._erase_state = splitmix64(seed ^ _ERASE_SALT)
        self._read_state = splitmix64(seed ^ _READ_SALT)
        self._program_threshold = _threshold(config.program_fail_rate)
        self._erase_threshold = _threshold(config.erase_fail_rate)
        # Read decisions share one hash draw: the lowest band is an
        # uncorrectable loss, the next band a correctable error.
        self._uncorrectable_threshold = _threshold(config.read_uncorrectable_rate)
        self._correctable_threshold = (
            self._uncorrectable_threshold + _threshold(config.read_error_rate)
        )
        # Decision counters (also the replay coordinates of each fault).
        self.program_decisions = 0
        self.erase_decisions = 0
        self.read_decisions = 0

    @property
    def enabled(self) -> bool:
        """True when any fault can ever fire."""
        return bool(
            self._program_threshold
            or self._erase_threshold
            or self._correctable_threshold
        )

    # ---- decisions -------------------------------------------------------

    def next_program_fails(self) -> bool:
        n = self.program_decisions
        self.program_decisions = n + 1
        if not self._program_threshold:
            return False
        return splitmix64(self._program_state ^ n) < self._program_threshold

    def next_erase_fails(self) -> bool:
        n = self.erase_decisions
        self.erase_decisions = n + 1
        if not self._erase_threshold:
            return False
        return splitmix64(self._erase_state ^ n) < self._erase_threshold

    def next_read_outcome(self) -> int:
        """0 = clean, k>0 = correctable after k retries, READ_LOST = lost."""
        n = self.read_decisions
        self.read_decisions = n + 1
        if not self._correctable_threshold:
            return 0
        h = splitmix64(self._read_state ^ n)
        if h < self._uncorrectable_threshold:
            return READ_LOST
        if h < self._correctable_threshold:
            # Retry count derived from the same draw's high bits, so it
            # is deterministic and independent of the band comparison.
            return 1 + ((h >> 32) % self.config.max_read_retries)
        return 0


@dataclass
class FaultStats:
    """Cumulative injected-fault accounting (one per injector)."""

    program_failures: int = 0
    erase_failures: int = 0
    read_retries: int = 0
    correctable_reads: int = 0
    uncorrectable_reads: int = 0
    blocks_retired: int = 0
    relocated_pages: int = 0
    #: replay coordinates: (kind, decision index) of every injected fault
    sites: list = field(default_factory=list)

    def reset(self) -> None:
        """Zero the counters and site log (measurement boundary).

        Only *accounting* is cleared — injector state that models the
        physical device (pending retirements, per-block failure counts,
        decision-stream positions) must survive a measurement reset, so
        it lives on the injector/plan, not here.
        """
        self.program_failures = 0
        self.erase_failures = 0
        self.read_retries = 0
        self.correctable_reads = 0
        self.uncorrectable_reads = 0
        self.blocks_retired = 0
        self.relocated_pages = 0
        self.sites.clear()

    def as_dict(self) -> dict:
        return {
            "program_failures": self.program_failures,
            "erase_failures": self.erase_failures,
            "read_retries": self.read_retries,
            "correctable_reads": self.correctable_reads,
            "uncorrectable_reads": self.uncorrectable_reads,
            "blocks_retired": self.blocks_retired,
            "relocated_pages": self.relocated_pages,
        }
