"""Mapping-coherence invariants, written once.

Three invariant families tie the logical-to-physical map to the flash
array's per-page state and out-of-band owner:

* **forward** — ``pt[l] != -1  =>  state[pt[l]] is VALID and
  owner[pt[l]] == l``;
* **reverse** — ``state[p] is VALID and owner[p] >= 0  =>
  pt[owner[p]] == p``;
* **GTD round-trip** — ``state[p] is VALID and owner[p] < 0  =>
  gtd[tvpn(owner[p])] == p`` (FTLs without a GTD own no such page).

:func:`coherence_findings` evaluates them over *candidate* index arrays,
so the same body serves :meth:`repro.ftl.base.Ftl.verify_integrity`
(every index), the sanitizer's full sweep (every index) and its delta
sweep (only the instances that read a changed cell).  "Every index" is
walked in fixed slices, so a full check of a paper-scale device holds
temporaries for one slice, not for the device.  It raises nothing:
callers turn findings into their own exception types.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.flash.address import PageState

#: ``pt[l]`` is not a VALID page.
FORWARD_STATE = "forward-state"
#: ``pt[l]`` is VALID but owned by someone else.
FORWARD_OWNER = "forward-owner"
#: a VALID data page its owner's map entry does not point at.
REVERSE = "reverse"
#: a VALID non-data page the GTD does not point at (with no GTD: any
#: VALID non-data page).
TRANSLATION = "translation"

#: Indices per slice of a full check, which therefore allocates
#: temporaries proportional to a slice, not to the device.
FULL_CHECK_SLICE = 1 << 20

_VALID = int(PageState.VALID)

#: Candidates: an index array, or one slice of a full check.
_Candidates = Union[np.ndarray, slice]


def mapping_stores(ftl) -> List[np.ndarray]:
    """The live stores the invariants read, as zero-copy views:
    ``[page_table, page_state, page_owner]``, plus the GTD's flat
    ``tvpn -> ppn`` store when the FTL has one."""
    stores = [ftl.page_table_np, ftl.array.page_state_np, ftl.array.page_owner_np]
    gtd = getattr(ftl, "gtd", None)
    if gtd is not None:
        stores.append(np.frombuffer(gtd.tpage_ppn, dtype=np.int32))
    return stores


def translation_tvpn(owner):
    """``encode_translation_owner``'s inverse for scalars and arrays,
    unchecked: an ownerless page (``OWNER_NONE``) decodes to -1."""
    return -owner - 2


def coherence_findings(
    stores: Sequence[np.ndarray],
    lpns: Optional[np.ndarray] = None,
    ppns: Optional[np.ndarray] = None,
) -> Iterator[Tuple[str, np.ndarray]]:
    """Yield ``(kind, offenders)`` per broken invariant family.

    ``stores`` is :func:`mapping_stores`' list (or same-shaped copies).
    ``lpns`` / ``ppns`` restrict the forward / reverse+GTD instances to
    those candidates; ``None`` means every index, walked in
    :data:`FULL_CHECK_SLICE`-index slices whose offenders are gathered
    per kind before the first is yielded.  ``offenders`` is the
    non-empty array of LPNs (forward kinds) or PPNs (reverse,
    translation) breaking the invariant.  Kinds come in the order
    listed above, and a full check yields the same arrays whatever the
    slice size.
    """
    found: Dict[str, List[np.ndarray]] = {
        FORWARD_STATE: [], FORWARD_OWNER: [], REVERSE: [], TRANSLATION: []
    }
    for kind, bad in chain(
        *(_forward_findings(stores, part) for part in _parts(lpns, len(stores[0]))),
        *(_reverse_findings(stores, part) for part in _parts(ppns, len(stores[1]))),
    ):
        found[kind].append(bad)
    for kind, parts in found.items():
        if parts:
            yield kind, parts[0] if len(parts) == 1 else np.concatenate(parts)


def _parts(candidates: Optional[np.ndarray], size: int) -> List[_Candidates]:
    """``candidates`` whole, or all ``size`` indices as fixed slices."""
    if candidates is not None:
        return [candidates]
    return [slice(start, start + FULL_CHECK_SLICE) for start in range(0, size, FULL_CHECK_SLICE)]


def _forward_findings(stores, lpns: _Candidates) -> Iterator[Tuple[str, np.ndarray]]:
    """The forward kinds over ``lpns`` (an index array or a slice)."""
    page_table, page_state, page_owner = stores[:3]
    if isinstance(lpns, slice):
        mapped = np.flatnonzero(page_table[lpns] != -1)
        if lpns.start:
            mapped += lpns.start
    else:
        mapped = lpns[page_table[lpns] != -1]
    if len(mapped):
        targets = page_table[mapped]
        bad = mapped[page_state[targets] != _VALID]
        if len(bad):
            yield FORWARD_STATE, bad
        bad = mapped[page_owner[targets] != mapped]
        if len(bad):
            yield FORWARD_OWNER, bad


def _reverse_findings(stores, ppns: _Candidates) -> Iterator[Tuple[str, np.ndarray]]:
    """The reverse and GTD kinds over ``ppns`` (an index array or a slice)."""
    page_table, page_state, page_owner = stores[:3]
    if isinstance(ppns, slice):
        valid = np.flatnonzero(page_state[ppns] == _VALID)
        if ppns.start:
            valid += ppns.start
    else:
        valid = ppns[page_state[ppns] == _VALID]
    owners = page_owner[valid]
    data = owners >= 0
    data_ppns = valid[data]
    bad = data_ppns[page_table[owners[data]] != data_ppns]
    if len(bad):
        yield REVERSE, bad
    bad = valid[~data]
    if len(stores) > 3:
        tvpns = translation_tvpn(owners[~data])
        # tvpn -1 (ownerless) is never coherent, whatever gtd[-1] holds.
        bad = bad[(tvpns < 0) | (stores[3][tvpns] != bad)]
    if len(bad):
        yield TRANSLATION, bad
