"""Translation lookaside buffer.

Table I's baseline IOMMU has a 2048-entry IOTLB with a 5-cycle hit latency.
The paper's key observation (Section III-C) is that for SPM-centric NPUs the
TLB is *not* the lever it is for CPUs/GPUs: translation bursts query the TLB
before in-flight walks return, and streaming tile fetches revisit pages
rarely — "even with an unrealistically large TLB with 128K entries ...
less than 0.02% performance improvement".  Reproducing that result requires
a faithful TLB, so one is provided: fully associative, LRU replacement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..memory.address import ASID_SHIFT
from .qos import SharePolicy


class TLB:
    """A fully associative LRU TLB mapping virtual page numbers to physical
    frame numbers.

    That is how IOTLBs are typically modelled in the GPU-MMU literature
    the paper builds on, and it is the only organization the model has:
    every entry lives in one recency-ordered map, ``_set``.

    Entries are tagged with an address-space identifier: every probe/fill
    method takes ``asid`` (default 0) and internally keys the entry by
    ``vpn | (asid << ASID_SHIFT)``.  The tag bits sit above every possible
    VPN, so ASID 0 behaves exactly like the historical untagged TLB — same
    LRU order, same victims — while distinct contexts can never alias each
    other's translations.  Context teardown and page migration use
    :meth:`invalidate_asid` / :meth:`invalidate` as the shootdown
    primitives.

    A non-trivial :class:`~repro.core.qos.SharePolicy` adds per-ASID
    occupancy caps with policy-respecting victim selection (the
    way-partitioning of the QoS layer): a tenant at its quota evicts its
    *own* LRU entry instead of another tenant's, a tenant inserting into a
    full structure reclaims from over-quota tenants first, and
    work-conserving policies let a capped tenant keep growing while free
    capacity remains.  With the default ``full_share`` policy every code
    path below is exactly the historical TLB.

    :meth:`insert_many` fills a sequence of pages, leaving exactly the
    state :meth:`insert` per pair leaves; it takes one bulk step for fresh,
    distinct pages (see there).
    """

    def __init__(
        self,
        entries: int = 2048,
        policy: Optional[SharePolicy] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError(f"TLB needs a positive entry count, got {entries}")
        self.entries = entries
        #: Non-trivial share policy (None = full sharing, zero overhead).
        self._policy = policy if policy is not None and not policy.trivial else None
        #: Per-ASID valid-entry counts, maintained only under a policy.
        self._asid_occupancy: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        #: Every entry, ``key -> pfn``, in LRU order (the head is the LRU).
        self._set: OrderedDict[int, int] = OrderedDict()
        # Policy mode keeps one OrderedDict per resident ASID mirroring
        # that tenant's keys in recency order (value = a global recency
        # stamp).  Victim selection then reads a mirror head in O(1)
        # instead of scanning the whole TLB per fill — the scan was the
        # dominant cost of policied multi-tenant runs.  The mirrors are
        # pure acceleration state: every recency change updates ``_set``
        # first, so the LRU semantics (and victims) are bit-identical to
        # the historical scanning implementation (``tests/test_tlb.py``
        # locks this in differentially).
        self._mirrors: Optional[Dict[int, OrderedDict[int, int]]] = (
            {} if self._policy is not None else None
        )
        self._stamp = 0
        # Flat ``asid -> tlb_quota(asid, entries)`` memo, validated
        # against the policy's registry version: the policied fill path
        # (and its victim scan) otherwise re-asks the policy for the
        # same constant answer on every insert.
        self._quota_memo: Dict[int, Optional[int]] = {}
        self._quota_version = -1

    def lookup(self, vpn: int, asid: int = 0) -> Optional[int]:
        """Probe the TLB; returns the cached PFN or None, updating LRU/stats."""
        key = vpn | (asid << ASID_SHIFT)
        entry_set = self._set
        pfn = entry_set.get(key)
        if pfn is None:
            self.misses += 1
            return None
        entry_set.move_to_end(key)
        if self._mirrors is not None:
            self._bump_mirror(key, asid)
        self.hits += 1
        return pfn

    def _bump_mirror(self, key: int, asid: int) -> None:
        """Record a recency bump for a resident key (policy mode only)."""
        self._stamp += 1
        mirror = self._mirrors[asid]
        mirror.move_to_end(key)
        mirror[key] = self._stamp

    def contains(self, vpn: int, asid: int = 0) -> bool:
        """Probe without disturbing LRU order or statistics."""
        return (vpn | (asid << ASID_SHIFT)) in self._set

    def touch(self, vpn: int, count: int = 1, asid: int = 0) -> None:
        """Bulk equivalent of ``count`` consecutive hitting lookups.

        ``count`` back-to-back lookups of a resident VPN bump it to MRU
        once and add ``count`` hits; the batched engine fast path uses this
        to retire a same-page run with a single TLB update.  Raises
        ``KeyError`` when the VPN is not resident (callers must check
        :meth:`contains` first).
        """
        key = vpn | (asid << ASID_SHIFT)
        self._set.move_to_end(key)
        if self._mirrors is not None:
            self._bump_mirror(key, asid)
        self.hits += count

    def insert(self, vpn: int, pfn: int, asid: int = 0) -> None:
        """Fill an entry (typically on page-table-walk completion).

        Under a non-trivial share policy, victim selection respects the
        per-ASID occupancy quotas (see :meth:`_insert_policied`).
        """
        key = vpn | (asid << ASID_SHIFT)
        if self._policy is not None:
            self._insert_policied(key, pfn, asid)
            return
        entry_set = self._set
        if key in entry_set:
            entry_set.move_to_end(key)
            entry_set[key] = pfn
            return
        if len(entry_set) >= self.entries:
            entry_set.popitem(last=False)
        entry_set[key] = pfn

    def insert_many(
        self, vpns: Sequence[int], pfns: Sequence[int], asid: int = 0
    ) -> None:
        """Fill ``vpns[t] -> pfns[t]`` in order, as ``insert`` per pair does.

        A batch of two or more fresh (not resident), distinct pages takes
        one bulk step:

        * **Full sharing.**  Every fill past the capacity pops the LRU
          entry, old entries first and then the batch's own earliest, so
          the TLB ends as the last ``entries`` keys of old-then-new order.
        * **A tenant at or over its quota that cannot borrow** (the policy
          is not work-conserving, or the TLB is full), holding two or more
          entries.  Each fill evicts the tenant's own LRU entry, so its
          occupancy and the TLB's size never change and its entries rotate
          as one FIFO: its ``min(k, count)`` LRU entries leave and the
          batch's last ``min(k, count)`` pages enter, stamped as their
          fills would stamp them.  Other tenants' entries are untouched.

        Every other batch (a tenant under its quota or able to borrow, a
        resident or repeated page, one page, a tenant holding one entry)
        is filled per pair.  The test is made once per call: a
        bulk-eligible batch stays eligible after each of its fills.
        """
        k = len(vpns)
        if k > 1:
            bits = asid << ASID_SHIFT
            keys = [vpn | bits for vpn in vpns]
            if len(set(keys)) == k and self._set.keys().isdisjoint(keys):
                if self._policy is None:
                    self._rotate_lru(keys, pfns)
                    return
                if self._rotate_fifo(keys, pfns, asid):
                    return
        for vpn, pfn in zip(vpns, pfns):
            self.insert(vpn, pfn, asid)

    def _rotate_lru(self, keys: List[int], pfns: Sequence[int]) -> None:
        """Full-sharing bulk fill of fresh, distinct ``keys``."""
        entry_set = self._set
        k = len(keys)
        old = len(entry_set)
        excess = old + k - self.entries
        if excess >= old:
            entry_set.clear()
            drop = excess - old  # the batch's own head, filled and evicted
            if drop > 0:
                keys = keys[drop:]
                pfns = pfns[drop:]
        else:
            popitem = entry_set.popitem
            for _ in range(excess):
                popitem(last=False)
        entry_set.update(zip(keys, pfns))

    def _rotate_fifo(
        self, keys: List[int], pfns: Sequence[int], asid: int
    ) -> bool:
        """Bulk fill of fresh, distinct ``keys`` by a tenant at or over its
        quota that cannot borrow; False (nothing done) otherwise."""
        policy = self._policy
        assert policy is not None and self._mirrors is not None
        memo = self._quota_memo
        if self._quota_version != policy.version:
            memo.clear()
            self._quota_version = policy.version
        try:
            quota = memo[asid]
        except KeyError:
            quota = memo[asid] = policy.tlb_quota(asid, self.entries)
        count = self._asid_occupancy.get(asid, 0)
        if quota is None or count < quota or count < 2:
            return False
        entry_set = self._set
        if policy.work_conserving and len(entry_set) < self.entries:
            return False  # it borrows free capacity instead
        tenant_lru = self._mirrors[asid]
        k = len(keys)
        rotated = k if k < count else count
        popitem = tenant_lru.popitem
        for _ in range(rotated):
            del entry_set[popitem(last=False)[0]]
        first = k - rotated
        if first:
            keys = keys[first:]
            pfns = pfns[first:]
        stamp = self._stamp
        entry_set.update(zip(keys, pfns))
        tenant_lru.update(zip(keys, range(stamp + first + 1, stamp + k + 1)))
        self._stamp = stamp + k
        return True

    def _insert_policied(self, key: int, pfn: int, asid: int) -> None:
        """Quota-aware fill: the QoS layer's TLB partitioning.

        * A tenant at/over its quota self-victimizes (evicts its own LRU
          entry; it holds at least ``quota >= 1`` of them) unless the
          policy is work-conserving and genuinely free capacity remains
          to borrow.
        * A tenant under its quota inserting into a full TLB reclaims an
          over-quota tenant's LRU entry first, falling back to plain LRU
          only when every resident tenant is within quota.

        Under a policy the per-tenant counts sum to the TLB's size (every
        path that adds or drops an entry updates both), so "free capacity
        remains" is ``len(self._set) < self.entries``.
        """
        entry_set = self._set
        mirrors = self._mirrors
        if key in entry_set:
            entry_set.move_to_end(key)
            entry_set[key] = pfn
            self._bump_mirror(key, asid)
            return
        policy = self._policy
        memo = self._quota_memo
        if self._quota_version != policy.version:
            memo.clear()
            self._quota_version = policy.version
        try:
            quota = memo[asid]
        except KeyError:
            quota = memo[asid] = policy.tlb_quota(asid, self.entries)
        occupancy = self._asid_occupancy
        count = occupancy.get(asid, 0)
        full = len(entry_set) >= self.entries
        if (
            quota is not None
            and count >= quota
            and (full or not policy.work_conserving)
        ):
            victim: Optional[int] = next(iter(mirrors[asid]))
        elif full:
            victim = self._victim()
        else:
            victim = None
        if victim is not None:
            del entry_set[victim]
            v_asid = victim >> ASID_SHIFT
            occupancy[v_asid] = occupancy.get(v_asid, 1) - 1
            self._drop_mirror(victim, v_asid)
        entry_set[key] = pfn
        occupancy[asid] = occupancy.get(asid, 0) + 1
        self._stamp += 1
        tenant_lru = mirrors.get(asid)
        if tenant_lru is None:
            mirrors[asid] = tenant_lru = OrderedDict()
        tenant_lru[key] = self._stamp

    def _drop_mirror(self, key: int, asid: int) -> None:
        """Remove an evicted/invalidated key from its tenant mirror."""
        mirrors = self._mirrors
        tenant_lru = mirrors.get(asid)
        if tenant_lru is not None:
            tenant_lru.pop(key, None)
            if not tenant_lru:
                del mirrors[asid]

    def _victim(self) -> Optional[int]:
        """Pick the eviction victim when a tenant below its quota (or with
        none) fills a full TLB: the LRU entry of any tenant exceeding its
        quota, falling back to the TLB's global LRU.

        Selection reads the per-tenant recency mirrors: a tenant's LRU key
        is its mirror head, and cross-tenant "first in global LRU order" is
        decided by the global recency stamps the mirrors store —
        O(#tenants) instead of an O(#entries) scan, with victims identical
        to the historical scanning implementation.
        """
        mirrors = self._mirrors
        policy = self._policy
        memo = self._quota_memo
        best_key = None
        best_stamp = None
        for asid, count in self._asid_occupancy.items():
            try:
                quota = memo[asid]
            except KeyError:
                quota = memo[asid] = policy.tlb_quota(asid, self.entries)
            if quota is None or count <= quota:
                continue
            tenant_lru = mirrors.get(asid)
            if not tenant_lru:
                continue
            head = next(iter(tenant_lru))
            stamp = tenant_lru[head]
            if best_stamp is None or stamp < best_stamp:
                best_key, best_stamp = head, stamp
        if best_key is not None:
            return best_key
        # Nobody to reclaim from: the TLB's LRU is the victim.
        return next(iter(self._set), None)

    def invalidate(self, vpn: int, asid: int = 0) -> bool:
        """Drop one translation (e.g. after page migration); True if present."""
        key = vpn | (asid << ASID_SHIFT)
        entry_set = self._set
        if key in entry_set:
            del entry_set[key]
            if self._policy is not None:
                self._asid_occupancy[asid] = self._asid_occupancy.get(asid, 1) - 1
                self._drop_mirror(key, asid)
            return True
        return False

    def invalidate_asid(self, asid: int) -> int:
        """Shoot down every entry of one address space (context teardown).

        Returns the number of entries dropped.  LRU order of surviving
        entries and all statistics are untouched.
        """
        entry_set = self._set
        if self._mirrors is not None:
            tenant_lru = self._mirrors.pop(asid, None)
            victims = list(tenant_lru) if tenant_lru else []
            self._asid_occupancy.pop(asid, None)
        else:
            lo = asid << ASID_SHIFT
            hi = (asid + 1) << ASID_SHIFT
            victims = [key for key in entry_set if lo <= key < hi]
        for key in victims:
            del entry_set[key]
        return len(victims)

    def flush(self) -> None:
        """Invalidate everything (keeps hit/miss statistics)."""
        self._set.clear()
        self._asid_occupancy.clear()
        if self._mirrors is not None:
            self._mirrors.clear()

    def reset_stats(self) -> None:
        """Zero hit/miss counters."""
        self.hits = 0
        self.misses = 0

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently cached."""
        return len(self._set)

    def occupancy_of(self, asid: int) -> int:
        """Valid entries held by one address space.

        O(1) under a share policy (the policied insert path maintains
        per-ASID counts); computed by scanning otherwise.
        """
        if self._policy is not None:
            return self._asid_occupancy.get(asid, 0)
        lo = asid << ASID_SHIFT
        hi = (asid + 1) << ASID_SHIFT
        return sum(1 for key in self._set if lo <= key < hi)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when never probed)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return f"TLB(entries={self.entries}, occupancy={self.occupancy})"


class TwoLevelTLB:
    """A GPU-style L1/L2 TLB hierarchy (the Section III-C strawman).

    Power et al. and Pichai et al. lean on multi-level TLBs to capture GPU
    translation locality; the paper argues (and our Figure 8/sens_tlb
    results confirm) that NPU translation *bursts* defeat capacity-based
    filtering.  This class exists so that claim is testable: it presents
    the same probe/insert interface as :class:`TLB` but with a small,
    fast L1 backed by a larger L2.

    ``lookup`` returns ``(pfn, latency)`` — L1 hits cost ``l1_latency``,
    L2 hits cost ``l1_latency + l2_latency`` and promote into L1.
    """

    def __init__(
        self,
        l1_entries: int = 64,
        l2_entries: int = 2048,
        l1_latency: int = 1,
        l2_latency: int = 5,
        policy: Optional[SharePolicy] = None,
    ) -> None:
        if l1_latency < 0 or l2_latency < 0:
            raise ValueError("TLB latencies cannot be negative")
        self.l1 = TLB(l1_entries, policy=policy)
        self.l2 = TLB(l2_entries, policy=policy)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency

    def lookup(self, vpn: int, asid: int = 0) -> Tuple[Optional[int], int]:
        """Probe L1 then L2; returns ``(pfn or None, hit_latency)``."""
        pfn = self.l1.lookup(vpn, asid)
        if pfn is not None:
            return pfn, self.l1_latency
        pfn = self.l2.lookup(vpn, asid)
        if pfn is not None:
            self.l1.insert(vpn, pfn, asid)
            return pfn, self.l1_latency + self.l2_latency
        return None, self.l1_latency + self.l2_latency

    def insert(self, vpn: int, pfn: int, asid: int = 0) -> None:
        """Fill both levels (walk completion)."""
        self.l1.insert(vpn, pfn, asid)
        self.l2.insert(vpn, pfn, asid)

    def invalidate(self, vpn: int, asid: int = 0) -> bool:
        """Drop a translation from both levels."""
        in_l1 = self.l1.invalidate(vpn, asid)
        in_l2 = self.l2.invalidate(vpn, asid)
        return in_l1 or in_l2

    def invalidate_asid(self, asid: int) -> int:
        """Shoot down one address space at both levels; returns drops."""
        return self.l1.invalidate_asid(asid) + self.l2.invalidate_asid(asid)

    def contains(self, vpn: int, asid: int = 0) -> bool:
        """Probe either level without touching LRU state."""
        return self.l1.contains(vpn, asid) or self.l2.contains(vpn, asid)

    def flush(self) -> None:
        """Invalidate both levels."""
        self.l1.flush()
        self.l2.flush()

    @property
    def hit_rate(self) -> float:
        """Combined hierarchy hit rate (hits at either level)."""
        probes = self.l1.hits + self.l1.misses
        if not probes:
            return 0.0
        return (self.l1.hits + self.l2.hits) / probes
