"""Translation path caches: UPTC and TPC (Section IV-C design space).

The paper contrasts two MMU-cache organizations before settling on the
single-entry TPreg:

* **UPTC** (unified page-table cache, AMD style): individual upper-level
  page-table entries, tagged by the *physical address* of each entry, shared
  across levels in one cache.  A walk probes once per level and skips the
  memory reference on a hit.
* **TPC** (translation path cache, Intel style): entries tagged by the
  *virtual* ``(L4, L3, L2)`` index triple; a single entry covers a whole
  walk path, and prefix matches skip the matched upper levels.

Measured on the paper's workloads, TPC's L4/L3/L2 tag hit rates were
99.5%/99.5%/63.1% vs UPTC's 92.4%, letting TPC eliminate 59% more walk
references — the motivation for the TPreg.  Both are implemented here with
LRU replacement so the comparison is reproducible (``neummu run
tpc_vs_uptc``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from .walk_info import WalkInfo


@dataclass
class PathCacheStats:
    """Lookup/skip accounting common to both cache styles."""

    walks: int = 0
    levels_skippable: int = 0
    levels_skipped: int = 0

    @property
    def skip_rate(self) -> float:
        """Fraction of skippable upper-level reads actually skipped."""
        if not self.levels_skippable:
            return 0.0
        return self.levels_skipped / self.levels_skippable


class PathCache:
    """Interface shared by UPTC, TPC, and the per-walker TPreg adapter.

    ``lookup`` returns the number of upper-level memory references a walk
    may skip; ``fill`` installs the completed walk.
    """

    def lookup(self, walk: WalkInfo) -> int:
        raise NotImplementedError

    def fill(self, walk: WalkInfo) -> None:
        raise NotImplementedError

    def invalidate_all(self) -> None:
        raise NotImplementedError

    def invalidate_asid(self, asid: int) -> None:
        """Drop every entry installed by the given context (teardown)."""
        raise NotImplementedError


class NullPathCache(PathCache):
    """No MMU cache: every walk reads every level (baseline IOMMU)."""

    def lookup(self, walk: WalkInfo) -> int:
        return 0

    def fill(self, walk: WalkInfo) -> None:
        return None

    def invalidate_all(self) -> None:
        return None

    def invalidate_asid(self, asid: int) -> None:
        return None


class UnifiedPageTableCache(PathCache):
    """UPTC: LRU cache of upper-level PTEs tagged by entry physical address."""

    def __init__(self, entries: int = 16) -> None:
        if entries <= 0:
            raise ValueError(f"UPTC needs positive capacity, got {entries}")
        self.entries = entries
        # (asid, entry PA) -> True, in LRU order.
        self._cache: OrderedDict[Tuple[int, int], bool] = OrderedDict()
        self.stats = PathCacheStats()

    def lookup(self, walk: WalkInfo) -> int:
        """Upper levels are probed root-first; the skip run must be a prefix.

        A walk cannot skip L3 if the L4 entry missed — without the L4 entry
        the walker does not know the L3 node's address.  (With the entry PAs
        precomputed in :class:`WalkInfo` we *could* probe out of order, but
        hardware cannot, so neither do we.)
        """
        self.stats.walks += 1
        skippable = walk.levels - 1  # leaf PTE read is never skippable
        self.stats.levels_skippable += skippable
        skip = 0
        for entry_pa in walk.entry_pas[:skippable]:
            key = (walk.asid, entry_pa)
            if key in self._cache:
                self._cache.move_to_end(key)
                skip += 1
            else:
                break
        self.stats.levels_skipped += skip
        return skip

    def fill(self, walk: WalkInfo) -> None:
        """Install each upper-level entry this walk read.

        Entries are keyed by ``(asid, entry PA)``: the model's page tables
        draw node addresses from per-table synthetic ranges that may
        collide across contexts, and a real shared UPTC is ASID-tagged for
        exactly this reason.
        """
        for entry_pa in walk.entry_pas[: walk.levels - 1]:
            key = (walk.asid, entry_pa)
            if key in self._cache:
                self._cache.move_to_end(key)
                continue
            if len(self._cache) >= self.entries:
                self._cache.popitem(last=False)
            self._cache[key] = True

    def invalidate_all(self) -> None:
        self._cache.clear()

    def invalidate_asid(self, asid: int) -> None:
        for key in [k for k in self._cache if k[0] == asid]:
            del self._cache[key]


class TranslationPathCache(PathCache):
    """TPC: LRU cache of whole walk paths tagged by virtual indices.

    A full-path match skips all upper levels; otherwise the longest common
    prefix with any cached path is skipped (hardware implements this with
    per-prefix tag compares on the same entry array).
    """

    def __init__(self, entries: int = 16) -> None:
        if entries <= 0:
            raise ValueError(f"TPC needs positive capacity, got {entries}")
        self.entries = entries
        # (asid, path tuple) -> True, in LRU order.
        self._cache: OrderedDict[Tuple[int, Tuple[int, ...]], bool] = OrderedDict()
        self.stats = PathCacheStats()
        # Per-level tag-match counters, comparable with TPregStats (Fig. 13).
        self.l4_hits = 0
        self.l3_hits = 0
        self.l2_hits = 0

    def lookup(self, walk: WalkInfo) -> int:
        self.stats.walks += 1
        skippable = len(walk.path)
        self.stats.levels_skippable += skippable
        best = 0
        best_path = None
        for asid, cached in self._cache:
            if asid != walk.asid:
                continue
            common = 0
            for a, b in zip(cached, walk.path):
                if a != b:
                    break
                common += 1
            if common > best:
                best = common
                best_path = (asid, cached)
                if best == skippable:
                    break
        if best_path is not None:
            self._cache.move_to_end(best_path)
        if best >= 1:
            self.l4_hits += 1
        if best >= 2:
            self.l3_hits += 1
        if best >= 3:
            self.l2_hits += 1
        self.stats.levels_skipped += best
        return best

    def fill(self, walk: WalkInfo) -> None:
        key = (walk.asid, walk.path)
        if key in self._cache:
            self._cache.move_to_end(key)
            return
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[key] = True

    def invalidate_all(self) -> None:
        self._cache.clear()

    def invalidate_asid(self, asid: int) -> None:
        for key in [k for k in self._cache if k[0] == asid]:
            del self._cache[key]

    def hit_rates(self) -> Tuple[float, float, float]:
        """``(L4, L3, L2)`` tag-match rates across all lookups."""
        if not self.stats.walks:
            return (0.0, 0.0, 0.0)
        walks = self.stats.walks
        return (self.l4_hits / walks, self.l3_hits / walks, self.l2_hits / walks)
