"""Named FTL cases for tests that sweep the registry.

A case is a registry entry, or a registry entry with constructor knobs.
``dloop-nocb`` is DLOOP with intra-plane copy-back off (the knob A1
sweeps): every GC move takes the controller path across the bus.  The
tests that sweep the registry keep it as an explicit case, so that path
stays covered by name in their ids and in the recorded fixture cells.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ftl.registry import available_ftls

#: case name -> (registry entry, constructor kwargs)
KNOB_CASES: Dict[str, Tuple[str, Dict[str, object]]] = {
    "dloop-nocb": ("dloop", {"use_copyback": False}),
}


def ftl_cases() -> List[str]:
    """Every registry entry and every knob case, sorted by name."""
    return sorted(available_ftls() + list(KNOB_CASES))


def resolve(case: str) -> Tuple[str, Dict[str, object]]:
    """``(registry entry, kwargs)`` that build ``case``."""
    return KNOB_CASES.get(case, (case, {}))
