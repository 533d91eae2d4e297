"""Hardware page-table walker pool.

Table I's baseline IOMMU provisions 8 shared walkers; the paper's central
result (Figures 11/12) is that SPM-centric NPUs need *throughput* — on the
order of 128 walkers once PRMB merging filters redundant requests.  This
module models a pool of walkers with:

* fixed per-level walk latency (100 cycles/level, Table I),
* a per-walker :class:`~repro.core.prmb.MergeBuffer` (PRMB),
* a per-walker :class:`~repro.core.tpreg.TPreg` *or* a shared translation
  path cache (TPC/UPTC) that lets walks skip upper-level references,
* a completion event queue the MMU drains as time advances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .mmu_cache import NullPathCache, PathCache
from .prmb import MergeBuffer, MergeBufferStats
from .qos import SharePolicy
from .tpreg import TPreg, TPregStats
from .walk_info import WalkInfo


@dataclass
class WalkerPoolStats:
    """Aggregate walk activity (feeds the energy model and Figure 12)."""

    walks: int = 0
    redundant_walks: int = 0
    level_accesses: int = 0
    levels_skipped: int = 0

    @property
    def mean_levels_per_walk(self) -> float:
        """Average memory references per walk after path-cache skipping."""
        return self.level_accesses / self.walks if self.walks else 0.0


class WalkerPool:
    """A pool of page-table walkers with merging and path-skip support.

    A non-trivial :class:`~repro.core.qos.SharePolicy` partitions the pool
    between address spaces: :meth:`can_start` caps each ASID's concurrent
    walks at its walker quota (hard under ``static_partition``;
    work-conserving borrowing under ``weighted``), and :meth:`can_merge`
    caps each ASID's parked PRMB requests at its merge-slot quota.  With
    the default ``full_share`` policy every check collapses to the
    historical free-list test and the pool is bit-identical to PR 2's.
    """

    def __init__(
        self,
        n_walkers: int,
        walk_latency_per_level: int = 100,
        prmb_slots: int = 0,
        use_tpreg: bool = False,
        shared_path_cache: Optional[PathCache] = None,
        policy: Optional[SharePolicy] = None,
    ) -> None:
        if n_walkers <= 0:
            raise ValueError(f"need at least one walker, got {n_walkers}")
        if not isinstance(walk_latency_per_level, int) or walk_latency_per_level <= 0:
            raise ValueError(
                f"walk latency must be a positive integer, "
                f"got {walk_latency_per_level!r}"
            )
        self.n_walkers = n_walkers
        self.walk_latency_per_level = walk_latency_per_level
        self.prmb_slots = prmb_slots

        self.prmb_stats = MergeBufferStats()
        self._buffers = [MergeBuffer(prmb_slots, self.prmb_stats) for _ in range(n_walkers)]
        self._tpregs: Optional[List[TPreg]] = (
            [TPreg() for _ in range(n_walkers)] if use_tpreg else None
        )
        self._shared_cache: PathCache = shared_path_cache or NullPathCache()
        #: True when no path cache is configured at all (neither per-walker
        #: TPregs nor a shared TPC/UPTC): the hot walk-dispatch and
        #: completion loops skip the null cache's virtual calls entirely.
        self._no_path_cache = self._tpregs is None and isinstance(
            self._shared_cache, NullPathCache
        )

        #: Non-trivial share policy (None = full sharing, zero overhead).
        self._policy = policy if policy is not None and not policy.trivial else None
        #: Busy walker ids per ASID, maintained only under a policy: an
        #: ASID's PRMB occupancy is the sum of its busy walkers' buffers
        #: (the PTS never merges across address spaces).
        self._busy_by_asid: Dict[int, Set[int]] = {}
        #: Per-ASID count of requests parked in PRMBs, maintained only
        #: under a policy (incremented on merge, decremented on drain) so
        #: :meth:`can_merge`'s quota check is O(1) on the translate path.
        self._prmb_occ: Dict[int, int] = {}
        self._free: List[int] = list(range(n_walkers - 1, -1, -1))
        self._vpn: List[Optional[int]] = [None] * n_walkers
        self._completion_of: List[float] = [0.0] * n_walkers
        #: Completion min-heap of (cycle, seq, walker); exposed so the
        #: MMU/engine can peek cheaply on the hot path.
        self.heap: List[Tuple[float, int, int]] = []
        self._walk_of: List[Optional[WalkInfo]] = [None] * n_walkers
        self._seq = 0
        self.stats = WalkerPoolStats()
        # Flat ``asid -> walker_quota(asid, n_walkers)`` memo, validated
        # against the policy's registry version (see TLB._quota_memo):
        # the dispatch-eligibility checks otherwise re-ask the policy for
        # the same constant answer on every blocked translation attempt.
        self._wq_memo: Dict[int, Optional[int]] = {}
        self._wq_version = -1

    def _walker_quota(self, asid: int) -> Optional[int]:
        """Memoized ``policy.walker_quota(asid, n_walkers)`` (policy mode)."""
        policy = self._policy
        if self._wq_version != policy.version:
            self._wq_memo.clear()
            self._wq_version = policy.version
        try:
            return self._wq_memo[asid]
        except KeyError:
            quota = policy.walker_quota(asid, self.n_walkers)
            self._wq_memo[asid] = quota
            return quota

    # ------------------------------------------------------------------ #
    # allocation                                                         #
    # ------------------------------------------------------------------ #

    @property
    def free_walkers(self) -> int:
        """Walkers currently idle."""
        return len(self._free)

    def busy_walkers_of(self, asid: int) -> int:
        """Walks in flight for one address space (policy mode only)."""
        busy = self._busy_by_asid.get(asid)
        return len(busy) if busy else 0

    def prmb_occupancy_of(self, asid: int) -> int:
        """Merged requests parked in one address space's walkers' PRMBs.

        O(1) under a share policy (merge/drain maintain a per-ASID
        counter); computed by scanning the tenant's busy walkers otherwise.
        """
        if self._policy is not None:
            return self._prmb_occ.get(asid, 0)
        busy = self._busy_by_asid.get(asid)
        if not busy:
            return 0
        buffers = self._buffers
        # simlint: disable=det-set-iter -- sum of non-negative int occupancies is associative and commutative, so set order cannot change the total
        return sum(buffers[walker].occupied for walker in busy)

    def can_start(self, asid: int = 0) -> bool:
        """Whether ``asid`` may dispatch a walk right now.

        Full sharing: any free walker will do.  Under a share policy the
        ASID must be below its walker quota — or, for a work-conserving
        policy, enough walkers must be free to cover every *other*
        tenant's unmet reservation with one left over to borrow.
        """
        free = len(self._free)
        if not free:
            return False
        policy = self._policy
        if policy is None:
            return True
        quota = self._walker_quota(asid)
        if quota is None or self.busy_walkers_of(asid) < quota:
            return True
        if not policy.work_conserving:
            return False
        reserved_unmet = 0
        for other in policy.asids:
            if other == asid:
                continue
            other_quota = self._walker_quota(other)
            if other_quota is not None:
                shortfall = other_quota - self.busy_walkers_of(other)
                if shortfall > 0:
                    reserved_unmet += shortfall
        return free > reserved_unmet

    def can_merge(self, asid: int = 0) -> bool:
        """Whether ``asid`` may park another request in a PRMB.

        Under a share policy, the ASID's total parked requests (across all
        of its walkers' buffers) are capped at its merge-slot quota.
        """
        policy = self._policy
        if policy is None or not self.prmb_slots:
            return True
        quota = policy.prmb_quota(asid, self.n_walkers * self.prmb_slots)
        return quota is None or self.prmb_occupancy_of(asid) < quota

    def earliest_retry_for(self, asid: int = 0) -> float:
        """Cycle at which a blocked ``asid`` should retry translation.

        Full sharing: the next walk completion (any walker freeing up
        unblocks everyone).  Under a *hard* partition, a tenant blocked by
        its quota (free walkers exist but its reservation is exhausted)
        only unblocks when one of its own walks completes.  Under a
        work-conserving policy any completion can reopen borrowing
        headroom (e.g. an over-quota tenant's walk retiring), so the
        blocked tenant retries at the pool-wide earliest completion.
        """
        policy = self._policy
        if policy is None or policy.work_conserving:
            return self.earliest_completion()
        busy = self._busy_by_asid.get(asid)
        quota = self._walker_quota(asid)
        if busy and quota is not None and len(busy) >= quota:
            # At quota: another tenant's completion frees a walker this
            # tenant still may not use, so only its own walks matter —
            # even when the pool is also fully busy.
            completion_of = self._completion_of
            # simlint: disable=det-set-iter -- min() over completion cycles is order-independent: floats are totally ordered and ties yield the same value
            return min(completion_of[walker] for walker in busy)
        return self.earliest_completion()

    def merge_into(self, walker: int) -> float:
        """Try to merge a request into ``walker``'s PRMB.

        Returns the request's ready cycle (walk completion + drain slot) or
        ``-1.0`` when the buffer is full.
        """
        position = self._buffers[walker].try_merge()
        if position == 0:
            return -1.0
        if self._policy is not None:
            walk = self._walk_of[walker]
            occ = self._prmb_occ
            occ[walk.asid] = occ.get(walk.asid, 0) + 1
        return self._completion_of[walker] + position

    def start_walk(
        self, walk: WalkInfo, cycle: float, redundant: bool = False
    ) -> Tuple[int, float]:
        """Dispatch ``walk`` on a free walker at ``cycle``.

        Returns ``(walker_id, completion_cycle)``.  Caller must ensure a
        walker is free (check :attr:`free_walkers`).
        """
        if not self._free:
            raise RuntimeError("start_walk called with no free walker")
        walker = self._free.pop()

        if self._no_path_cache:
            skip = 0
        elif self._tpregs is not None:
            skip = self._tpregs[walker].lookup(walk)
        else:
            skip = self._shared_cache.lookup(walk)
        # The leaf PTE read can never be skipped.
        levels_accessed = walk.levels - min(skip, walk.levels - 1)
        duration = levels_accessed * self.walk_latency_per_level
        completion = cycle + duration

        self.stats.walks += 1
        if redundant:
            self.stats.redundant_walks += 1
        self.stats.level_accesses += levels_accessed
        self.stats.levels_skipped += walk.levels - levels_accessed

        self._vpn[walker] = walk.vpn
        self._walk_of[walker] = walk
        self._completion_of[walker] = completion
        if self._policy is not None:
            self._busy_by_asid.setdefault(walk.asid, set()).add(walker)
        self._seq += 1
        heapq.heappush(self.heap, (completion, self._seq, walker))
        return walker, completion

    # ------------------------------------------------------------------ #
    # completion                                                         #
    # ------------------------------------------------------------------ #

    def earliest_completion(self) -> float:
        """Cycle of the next walk completion (``inf`` when idle)."""
        return self.heap[0][0] if self.heap else float("inf")

    def shootdown_asid(self, asid: int) -> None:
        """Purge one context's path state from every walker (teardown).

        TPregs latched with the context's walk paths and shared TPC/UPTC
        entries it installed are dropped; in-flight walks are the caller's
        responsibility (the MMU refuses teardown while any are pending).
        """
        if self._tpregs is not None:
            for reg in self._tpregs:
                reg.invalidate_asid(asid)
        self._shared_cache.invalidate_asid(asid)

    def collect_tpreg_stats(self) -> TPregStats:
        """Aggregate per-walker TPreg counters (Figure 13)."""
        total = TPregStats()
        if self._tpregs is not None:
            for reg in self._tpregs:
                total.merge(reg.stats)
        return total

    @property
    def shared_cache(self) -> PathCache:
        """The shared TPC/UPTC, or a null cache when TPreg mode is active."""
        return self._shared_cache
