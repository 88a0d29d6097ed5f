"""Crash-consistency torture campaigns (systematic crash-point sweeps).

The package that answers "does an acknowledged write ever disappear?"
by brute force: replay a workload once to *discover* every interesting
crash point (flash programs/erases, GC relocation steps, write-buffer
flushes, map-journal commits), then deterministically re-run the trace
power-failing at each one, recover, and interrogate a durability
oracle backed by per-page content generations in the modeled OOB area.

Entry points:

* :class:`repro.torture.campaign.TortureCampaign` — the sweep engine
  (``repro-sim torture`` on the command line); its
  :class:`~repro.torture.campaign.CampaignConfig` declares the axes,
  which expand into :class:`repro.experiments.scenario.Scenario` cells
  exactly as the conformance matrix's do;
* :class:`repro.torture.arm.TortureArm` — arms one crash point on the
  TraceBus and raises :class:`repro.torture.arm.TortureCrash` when it
  fires;
* :class:`repro.torture.ledger.AckLedger` — tracks what the host was
  told is durable;
* :func:`repro.torture.oracle.check_durability` — the post-recovery
  verdict.
"""

from repro.torture.arm import CRASH_KINDS, TortureArm, TortureCrash
from repro.torture.campaign import CampaignConfig, TortureCampaign
from repro.torture.ledger import AckLedger
from repro.torture.oracle import Violation, check_durability

__all__ = [
    "AckLedger",
    "CRASH_KINDS",
    "CampaignConfig",
    "TortureArm",
    "TortureCampaign",
    "TortureCrash",
    "Violation",
    "check_durability",
]
