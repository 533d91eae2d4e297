"""Pending translation scoreboard (PTS) — Section IV-A.

The PTS is a fully-associative structure with one entry per page-table
walker, tagged by virtual page number.  Every TLB miss first queries the
PTS: a hit means some walker is already translating that page, so the
request may be merged into that walker's PRMB instead of spending walk
bandwidth; a miss allocates a fresh walker (if available) and registers the
VPN so later requests can merge.

Because redundant walks are possible when merging capacity is exhausted
(the "many PTWs, no PRMB" design of Figure 12a), a VPN may map to *several*
in-flight walkers; the scoreboard keeps them all.

Like the TLB, scoreboard entries are ASID-tagged: all methods accept
``asid`` (default 0) and key entries by ``vpn | (asid << ASID_SHIFT)``, so
two contexts walking the same VPN never merge into each other's walkers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..memory.address import ASID_SHIFT


class PendingTranslationScoreboard:
    """Tracks which walkers are translating which virtual page numbers."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"PTS capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._by_vpn: Dict[int, List[int]] = {}
        self._count = 0
        self.lookups = 0
        self.hits = 0

    def lookup(self, vpn: int, asid: int = 0) -> Optional[List[int]]:
        """Walkers currently translating ``vpn`` (None on miss); counts stats."""
        self.lookups += 1
        walkers = self._by_vpn.get(vpn | (asid << ASID_SHIFT))
        if walkers:
            self.hits += 1
            return walkers
        return None

    def peek(self, vpn: int, asid: int = 0) -> Optional[List[int]]:
        """Like :meth:`lookup` without touching statistics."""
        return self._by_vpn.get(vpn | (asid << ASID_SHIFT))

    def register(self, vpn: int, walker: int, asid: int = 0) -> None:
        """Record that ``walker`` started a walk for ``vpn``."""
        if self._count >= self.capacity:
            raise RuntimeError(
                f"PTS overflow: {self._count} in-flight walks with capacity "
                f"{self.capacity} (walker allocation must gate registration)"
            )
        self._by_vpn.setdefault(vpn | (asid << ASID_SHIFT), []).append(walker)
        self._count += 1

    def release(self, vpn: int, walker: int, asid: int = 0) -> None:
        """Remove ``walker``'s entry for ``vpn`` on walk completion."""
        key = vpn | (asid << ASID_SHIFT)
        walkers = self._by_vpn.get(key)
        if not walkers or walker not in walkers:
            raise KeyError(
                f"walker {walker} not registered for VPN 0x{vpn:x} "
                f"(ASID {asid})"
            )
        walkers.remove(walker)
        if not walkers:
            del self._by_vpn[key]
        self._count -= 1

    def in_flight_for(self, asid: int) -> int:
        """Walker entries currently registered for one address space."""
        lo = asid << ASID_SHIFT
        hi = (asid + 1) << ASID_SHIFT
        return sum(
            len(walkers) for key, walkers in self._by_vpn.items() if lo <= key < hi
        )

    def vpns_for(self, asid: int) -> List[int]:
        """Untagged VPNs of one address space's in-flight walks."""
        lo = asid << ASID_SHIFT
        hi = (asid + 1) << ASID_SHIFT
        mask = (1 << ASID_SHIFT) - 1
        return [key & mask for key in self._by_vpn if lo <= key < hi]

    @property
    def in_flight(self) -> int:
        """Total walker entries currently registered."""
        return self._count

    @property
    def distinct_pages(self) -> int:
        """Distinct VPNs with at least one walk in flight."""
        return len(self._by_vpn)

    def clear(self) -> None:
        """Drop all scoreboard state."""
        self._by_vpn.clear()
        self._count = 0

    #: Bytes per PTS entry for the area model: a 36-bit VPN tag plus walker
    #: id and valid bit round up to 6 bytes (Section IV-E).
    ENTRY_BYTES = 6
