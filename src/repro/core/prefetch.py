"""Translation prefetching (extension study).

The paper's related-work section points at TLB prefetching for CPUs
[Jacob+Mudge ASPLOS'98; Saulsbury+ ISCA'00; Kandiraju+ ISCA'02] but never
evaluates it for NPUs.  Because dense DNN tile streams walk virtual
addresses *sequentially* (Figure 14), a next-page stream prefetcher is the
natural extension: when a demand walk for page ``p`` starts, speculatively
walk ``p+1 .. p+depth`` on otherwise-idle walkers.

The ablation (``neummu run prefetch``) shows the paper's throughput
argument survives the extension: prefetching helps the under-provisioned
8-walker IOMMU a little (it effectively raises translation throughput
during bursts) but cannot replace merging + walker scaling, because every
prefetch still consumes a walker and page-table bandwidth that demand
bursts need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Set

from ..memory.address import ASID_SHIFT, tagged_vpn
from .walk_info import WalkResolver

if TYPE_CHECKING:  # runtime import would cycle with core.mmu
    from .mmu import MMU


@dataclass
class PrefetchStats:
    """Prefetcher effectiveness counters."""

    issued: int = 0
    useful: int = 0
    #: Prefetches skipped because no walker was spare.
    dropped_no_walker: int = 0
    #: Prefetches skipped because the page was already covered.
    dropped_covered: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches later consumed by a demand hit."""
        return self.useful / self.issued if self.issued else 0.0


class NextPagePrefetcher:
    """Sequential next-page translation prefetcher.

    The MMU calls :meth:`on_demand_walk` whenever a demand miss starts a
    walk; the prefetcher may start additional walks for the following
    ``depth`` pages, but only on walkers the demand stream is not using
    (``reserve`` walkers are always left free for demand traffic).
    """

    def __init__(self, depth: int = 1, reserve: int = 1) -> None:
        if depth <= 0:
            raise ValueError("prefetch depth must be positive")
        if reserve < 0:
            raise ValueError("walker reserve cannot be negative")
        self.depth = depth
        self.reserve = reserve
        self.stats = PrefetchStats()
        #: ASID-tagged pages brought in (or in flight) speculatively, for
        #: accuracy accounting; consumed by :meth:`on_demand_hit`.
        self._outstanding: Set[int] = set()

    def on_demand_walk(self, mmu: MMU, vpn: int, cycle: float, asid: int = 0) -> None:
        """Issue up to ``depth`` next-page prefetch walks at ``cycle``.

        Prefetches stay inside the demand stream's address space: walks
        resolve through context ``asid``'s page table and probe the shared
        structures with that context's tag.
        """
        resolver = mmu.resolver_for(asid)
        pool, pts = mmu.pool, mmu.pts
        assert pool is not None and pts is not None  # oracle MMUs never prefetch
        for offset in range(1, self.depth + 1):
            target = vpn + offset
            # Speculative walks are the issuing context's traffic: they
            # respect both the demand reserve and the context's QoS
            # walker quota (a prefetch must never breach another
            # tenant's reservation).
            if (
                pool.free_walkers <= self.reserve
                or not pool.can_start(asid)
            ):
                self.stats.dropped_no_walker += 1
                return
            if (
                mmu.tlb_contains(target, asid)
                or pts.peek(target, asid) is not None
                or tagged_vpn(target, asid) in self._outstanding
            ):
                self.stats.dropped_covered += 1
                continue
            walk = resolver.resolve_vpn(target)
            if walk is None:
                # Never prefetch across an unmapped page (no speculative
                # page faults).
                return
            mmu.start_walk(walk, cycle, redundant=False)
            self._outstanding.add(tagged_vpn(target, asid))
            self.stats.issued += 1

    def on_demand_hit(self, vpn: int, asid: int = 0) -> None:
        """Credit a demand access that found a prefetched translation."""
        key = tagged_vpn(vpn, asid)
        if key in self._outstanding:
            self._outstanding.discard(key)
            self.stats.useful += 1

    def drop_asid(self, asid: int) -> None:
        """Forget one context's outstanding prefetches (teardown)."""
        lo = asid << ASID_SHIFT
        hi = (asid + 1) << ASID_SHIFT
        self._outstanding = {k for k in self._outstanding if not lo <= k < hi}

    def reset(self) -> None:
        """Clear outstanding-set and statistics."""
        self._outstanding.clear()
        self.stats = PrefetchStats()
