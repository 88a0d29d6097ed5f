"""NVMe-style namespaces: tenant partitions of the logical page space.

A namespace is a contiguous LPN extent carved out of the device's
logical space, owned by exactly one tenant.  Translation happens above
the FTL (namespace-local LPN -> device LPN by adding the base), so the
FTL keeps a single flat map — the sharding question FMMU raises is
answered here at the front door, not inside the translation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


class NamespaceError(ValueError):
    """Invalid namespace layout or an out-of-extent access."""


@dataclass(frozen=True)
class Namespace:
    """One tenant's contiguous slice of the logical page space."""

    nsid: int
    name: str
    base_lpn: int
    num_lpns: int

    def __post_init__(self) -> None:
        if self.nsid < 0:
            raise NamespaceError(f"nsid must be >= 0, got {self.nsid}")
        if self.base_lpn < 0:
            raise NamespaceError(f"base_lpn must be >= 0, got {self.base_lpn}")
        if self.num_lpns < 1:
            raise NamespaceError(f"num_lpns must be >= 1, got {self.num_lpns}")

    def translate(self, local_lpn: int, page_count: int = 1) -> int:
        """Map a namespace-local LPN run to its device LPN.

        Raises :class:`NamespaceError` when the run does not fit the
        extent — the tenancy layer's equivalent of an NVMe LBA-out-of-
        range status.
        """
        if local_lpn < 0 or local_lpn + page_count > self.num_lpns:
            raise NamespaceError(
                f"namespace {self.name!r} (nsid {self.nsid}): local run "
                f"[{local_lpn}, {local_lpn + page_count}) exceeds extent "
                f"of {self.num_lpns} pages"
            )
        return self.base_lpn + local_lpn


def build_namespaces(
    num_lpns: int,
    names: Sequence[str],
    shares: Sequence[float] | None = None,
) -> Tuple[Namespace, ...]:
    """Partition ``num_lpns`` logical pages into back-to-back extents.

    ``shares`` weights the split (default: equal).  Extents are floored
    to whole pages, laid out in declaration order, and validated against
    device capacity; every tenant gets at least one page.
    """
    if not names:
        raise NamespaceError("at least one namespace name is required")
    n = len(names)
    if shares is None:
        weights = [1.0] * n
    else:
        if len(shares) != n:
            raise NamespaceError(
                f"{len(shares)} shares for {n} namespaces"
            )
        weights = [float(s) for s in shares]
        for w in weights:
            if w <= 0.0:
                raise NamespaceError(f"shares must be positive, got {w}")
    if num_lpns < n:
        raise NamespaceError(
            f"{num_lpns} logical pages cannot host {n} namespaces"
        )
    total = sum(weights)
    extents = [max(1, int(num_lpns * w / total)) for w in weights]
    overshoot = sum(extents) - num_lpns
    # Floor rounding can overshoot only via the max(1,...) bumps; shave
    # the largest extents (deterministic: index order breaks ties).
    while overshoot > 0:
        widest = max(range(n), key=lambda i: (extents[i], -i))
        if extents[widest] <= 1:
            raise NamespaceError(
                f"{num_lpns} logical pages cannot host {n} namespaces"
            )
        extents[widest] -= 1
        overshoot -= 1
    namespaces = []
    base = 0
    for nsid in range(n):
        namespaces.append(
            Namespace(nsid=nsid, name=str(names[nsid]), base_lpn=base,
                      num_lpns=extents[nsid])
        )
        base += extents[nsid]
    if base > num_lpns:
        raise NamespaceError(
            f"namespace extents cover {base} pages on a {num_lpns}-page device"
        )
    return tuple(namespaces)
