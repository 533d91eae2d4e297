"""Cycle-resolved translation/memory-phase engine.

This engine replays one DMA *burst* (all linearized transactions of one
tile fetch, Section III-C) against an MMU model and the shared memory
system:

* the DMA issues one translation request per cycle ("The DMA unit sends a
  single translation each cycle", Figure 7);
* a request either hits the TLB (5 cycles), merges into an in-flight walk's
  PRMB, starts a (possibly redundant) walk, or blocks the issue port until
  translation bandwidth frees up;
* once translated, the transaction's data read is queued on the
  bandwidth-limited memory system;
* the burst's *memory phase* ends when the last data beat returns — the
  implicit barrier before the tile's compute phase (Figure 3).

An oracular MMU makes every translation free, so the same engine computes
the paper's normalization baseline.

Four execution paths
--------------------
``run_burst`` retires transactions through exactly one of:

* the *reference* path (:meth:`TranslationEngine._run_burst_reference`) —
  one fully general Python iteration per transaction, routed through
  :meth:`MMU.translate`; the golden semantics every other path matches.
  With ``batched`` set it serves only what no fast path models: the
  next-page prefetcher, the two-level TLB and a timeline on a translated
  MMU;
* the *oracle* shortcut (:meth:`TranslationEngine._run_burst_oracle`) —
  translation is free, so only the page-presence probe (with its fault
  handler), the timeline and the memory arithmetic remain;
* the *FIFO* path (:meth:`TranslationEngine._run_burst_fifo`) for
  PRMB-less, path-cache-less MMUs (the baseline IOMMU), whose walks
  complete in start order: one loop over a cursor into the sorted
  completion heap, handling its own faults, with the completion
  calendar's chain and cadence (:mod:`repro.core.calendar`) retiring
  whole saturated stretches as one bucket;
* the *batched kernel* (:meth:`TranslationEngine._run_burst_kernel`, every
  other translated MMU under every share policy), which exploits
  the streaming structure of dense tile fetches: a 4 KB page sees a run
  of ~16 back-to-back same-page transactions (Section III-C), and within
  such a run every transaction resolves the same way (all TLB hits, or
  all PRMB merges into the same walker).  The kernel retires those runs
  with bulk counter updates — one TLB touch per segment, one PRMB
  occupancy update per walker — and a tight arithmetic loop over the
  memory channels.  Quota checks only add segment bounds, so full
  sharing is simply the policy whose bounds never bind.
  On PRMB machines without a path cache under full sharing, a leading
  step at a fresh page with a walker free hands the streak of fresh
  pages from there (one walk plus merges each) to the completion
  calendar's merge streak, which retires it as one bucket.

The fast paths read one input, the DMA's
:class:`~repro.core.stream.TransactionStream`: its plain-list columns and
its same-page runs, through one cursor (:func:`_run_bounds`).
``run_burst`` wraps any other input once, at the MMU's page size, with
:meth:`~repro.core.stream.TransactionStream.from_pairs`; the reference
path iterates whatever it is given.

Same-page spans whose release latency is fixed — the oracle's runs
(latency 0) and resident-page hit spans in the kernel and the FIFO
path (the TLB hit latency) — retire through one routine,
:func:`_issue_span`.  For fully contiguous uniform 256 B runs (the DMA's
streaming output, as certified by the stream's run metadata) it applies
a *closed form*: when no channel queueing can occur, only the last
``n_channels`` transactions' finish times are observable, so the bulk of
the run reduces to an exact issue-cycle spin.

The paths are kept *bit-identical*: the fast paths perform exactly the
floating-point operation sequence of the reference path for every
observable timing quantity, and interleave walk retirements with TLB
fills, PRMB drains and LRU updates in reference order (retirements that
provably commute with a run's bulk — other pages' completions during a
merge run — may be deferred to the run boundary).
``tests/test_fastpath_parity.py`` enforces the equivalence.
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..memory.address import ASID_SHIFT
from ..memory.dram import MainMemory
from .calendar import CompletionCalendar
from .mmu import MMU, TranslationFault
from .stream import Burst, TransactionStream
from .tlb import TLB

#: Demand-paging hook: ``(vpn, fault_cycle, asid) -> resolved_cycle``.  The
#: hook must install the mapping (and shoot down the stale translation, e.g.
#: via :meth:`MMU.shootdown`) before returning; the engine retries the
#: translation at ``resolved_cycle``.  It may unmap and shoot down other
#: pages too.  The fast paths settle the MMU's counters and its walker
#: heap at the end of the burst, so the hook must not read them.  The
#: first-class implementation is
#: :meth:`repro.memory.tiering.LocalMemoryTier.handle_fault`, which routes
#: the page move through the shared migration fabric and the ASID-tagged
#: shootdown path.
FaultHandler = Callable[[int, float, int], float]

#: Completion-calendar backoff: after this many consecutive declines the
#: FIFO path's calendar gate (and the kernel's merge-streak gate) skips
#: the next ``_CAL_BACKOFF_RUNS`` same-page runs before it plans again (a
#: single decline skips the rest of its run).
_CAL_MAX_FAILS = 6
_CAL_BACKOFF_RUNS = 64


def _decline_skip(
    runs: Sequence[Tuple[int, bool]], j: int, rc: int, fails: int
) -> int:
    """The next transaction index a calendar gate tries after a decline.

    Declines are pure overhead: skipping an attempt is always
    bit-identical (the per-event path takes over), so a decline skips the
    rest of its run, which ends at ``j``, and the ``_CAL_MAX_FAILS``-th
    consecutive decline and every later one the next ``_CAL_BACKOFF_RUNS``
    runs past the cursor ``rc`` (where every page faults on first touch,
    say, and each scan stops at the next unmapped page).
    """
    if fails < _CAL_MAX_FAILS:
        return j
    return runs[min(rc + _CAL_BACKOFF_RUNS, len(runs) - 1)][0]


def _run_bounds(
    runs: Sequence[Tuple[int, bool]], i: int, rc: int
) -> Tuple[int, bool, int]:
    """Bounds of the same-page run holding transaction ``i``.

    Returns ``(j, streamable, rc)``: the run's end index, whether it is
    a contiguous uniform 256 B stream (the closed-form precondition),
    and the advanced cursor ``rc`` into the stream's ``runs``.  The
    oracle shortcut, the FIFO path and the batched kernel all read run
    bounds through this one cursor.
    """
    while runs[rc][0] <= i:
        rc += 1
    j, streamable = runs[rc]
    return j, streamable, rc


def _issue_span(
    va_list: Sequence[int],
    size_list: Sequence[int],
    i: int,
    span: int,
    streamable: bool,
    cycle: float,
    latency: float,
    data_end: float,
    total_bytes: int,
    channel_free: List[float],
    n_channels: int,
    ch_bw: float,
    mem_latency: float,
) -> Tuple[float, float, int]:
    """Issue transactions ``[i, i + span)`` of one same-page run.

    They issue one per cycle from ``cycle``, and each is released
    to its memory channel ``latency`` cycles after it issues: 0 for the
    oracle, the TLB hit latency for a resident page.  Returns the updated
    ``(cycle, data_end, total_bytes)``.

    A contiguous uniform 256 B run (``streamable``) of at least 8
    transactions walks the channels round-robin.  When every channel is
    free by its first release, no queueing can occur, so only the last
    ``n_channels`` finish times are observable and the rest of the run
    reduces to the exact issue-cycle spin (the *streaming closed form*).
    Otherwise each transaction takes the reference loop's channel
    arithmetic.  Either way the float operations are the reference's
    (``256 / ch_bw`` is its ``size / ch_bw`` for a 256 B transaction, and
    ``cycle + 0`` is ``cycle``), which is what lets the oracle shortcut,
    the FIFO path and the kernel share this one copy.
    """
    if span >= 8 and streamable:
        s_cycles = 256 / ch_bw
        if span <= n_channels or n_channels >= s_cycles:
            base_ch = va_list[i] >> 8
            lim = span if span < n_channels else n_channels
            # Cheap dominating probe first: if every channel is free by
            # the first release, later releases are only later.
            ok = max(channel_free) <= cycle + latency
            if not ok:
                probe = cycle
                ok = True
                for k in range(lim):
                    if channel_free[(base_ch + k) % n_channels] > (
                        probe + latency
                    ):
                        ok = False
                        break
                    probe += 1.0
            if ok:
                for _ in range(span - lim):
                    cycle += 1.0
                for k in range(span - lim, span):
                    finish = cycle + latency + s_cycles
                    channel_free[(base_ch + k) % n_channels] = finish
                    cycle += 1.0
                done = finish + mem_latency
                if done > data_end:
                    data_end = done
                return cycle, data_end, total_bytes + span * 256
    # Indexing, not zipped slices: most spans taking this loop are
    # shorter than 8, where building two slices costs more than the loop.
    for k in range(i, i + span):
        va = va_list[k]
        size = size_list[k]
        ready = cycle + latency
        channel = (va >> 8) % n_channels
        free_at = channel_free[channel]
        start = ready if ready > free_at else free_at
        finish = start + size / ch_bw
        channel_free[channel] = finish
        done = finish + mem_latency
        if done > data_end:
            data_end = done
        total_bytes += size
        cycle += 1.0
    return cycle, data_end, total_bytes


@dataclass
class BurstResult:
    """Timing of one tile-fetch burst."""

    start_cycle: float
    issue_end_cycle: float
    data_end_cycle: float
    transactions: int
    bytes_moved: int
    stall_cycles: float

    @property
    def duration(self) -> float:
        """Full memory-phase duration of this burst."""
        return self.data_end_cycle - self.start_cycle


class TranslationEngine:
    """Drives an MMU + memory system with DMA transaction streams."""

    #: The one reference/fast switch: True runs the fast paths, False
    #: forces the per-transaction golden-reference path.  Parity checks
    #: flip it on a built engine, or patch it on the class to reach every
    #: engine a run builds.
    batched = True

    def __init__(
        self,
        mmu: MMU,
        memory: MainMemory,
        timeline_window: int = 0,
        fault_handler: Optional[FaultHandler] = None,
    ) -> None:
        self.mmu = mmu
        self.memory = memory
        self.timeline_window = timeline_window
        self.fault_handler = fault_handler
        #: window index -> number of translation requests issued in it
        #: (Figure 7's burst histogram).  Populated when timeline_window > 0.
        #: A defaultdict so the per-transaction histogram update is one
        #: indexed increment instead of a get-plus-store.
        self.timeline: Dict[int, int] = defaultdict(int)
        #: asid -> the completion calendar of that context's FIFO or
        #: merge-streak planning, whose counts
        #: (:meth:`CompletionCalendar.counts`) observe its planning.
        self.calendars: Dict[int, CompletionCalendar] = {}

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #

    def run_burst(
        self, transactions: Burst, start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Replay one burst for context ``asid``; returns its timing.

        ``transactions`` are issued in order at one per cycle, subject to
        translation-bandwidth blocking.  ``asid`` selects the address-space
        context the burst translates under (0 = the single-tenant
        default); shared-MMU tenants each pass their own.
        The fast paths take a :class:`TransactionStream` whose runs are at
        the MMU's page size; anything else is wrapped once here.  With
        ``batched`` set, an oracular MMU takes the oracle shortcut and a
        translated one the FIFO path or the kernel, whatever the share
        policy, unless it has a prefetcher (whose hooks fire per TLB hit),
        a two-level TLB (whose hit latency depends on the level) or a
        timeline: those take the reference path.
        """
        mmu = self.mmu
        oracle = mmu.config.oracle
        if not self.batched or (
            not oracle
            and (
                self.timeline_window
                or mmu.prefetcher is not None
                or mmu._two_level
            )
        ):
            return self._run_burst_reference(transactions, start_cycle, asid)
        page_size = mmu.config.page_size
        if (
            isinstance(transactions, TransactionStream)
            and transactions.page_size == page_size
        ):
            stream = transactions
        else:
            stream = TransactionStream.from_pairs(transactions, page_size)
        if oracle:
            return self._run_burst_oracle(stream, start_cycle, asid)
        pool = mmu.pool
        assert pool is not None  # a translated MMU has a walker pool
        if not mmu._prmb_slots and pool._no_path_cache:
            return self._run_burst_fifo(stream, start_cycle, asid)
        return self._run_burst_kernel(stream, start_cycle, asid)

    # ------------------------------------------------------------------ #
    # reference path (golden semantics, one iteration per transaction)   #
    # ------------------------------------------------------------------ #

    def _run_burst_reference(
        self, transactions: Burst, start_cycle: float, asid: int = 0
    ) -> BurstResult:
        mmu = self.mmu
        memory = self.memory
        vpn_shift = mmu._vpn_shift
        window = self.timeline_window
        timeline = self.timeline
        fault_handler = self.fault_handler
        translate = mmu.translate
        process = mmu.process_completions
        heap = None if mmu.pool is None else mmu.pool.heap

        # Memory-channel state is inlined here — this loop runs millions of
        # times per workload and the channel update is pure arithmetic
        # (kept operation-for-operation identical to MainMemory.access).
        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles

        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0

        for va, size in transactions:
            if heap is not None and heap and heap[0][0] <= cycle:
                process(cycle)
            vpn = va >> vpn_shift
            while True:
                try:
                    ready, retry = translate(vpn, cycle, asid)
                except TranslationFault:
                    if fault_handler is None:
                        raise
                    resolved = fault_handler(vpn, cycle, asid)
                    stall += resolved - cycle
                    cycle = resolved
                    process(cycle)
                    continue
                if ready is None:
                    stall += retry - cycle
                    cycle = retry
                    process(cycle)
                    continue
                break
            if window:
                timeline[int(cycle // window)] += 1
            # Inlined MainMemory.access (same arithmetic/policy).
            channel = (va >> 8) % n_channels
            free_at = channel_free[channel]
            start = ready if ready > free_at else free_at
            finish = start + size / ch_bw
            channel_free[channel] = finish
            done = finish + mem_latency
            if done > data_end:
                data_end = done
            total_bytes += size
            cycle += 1.0

        memory.total_bytes += total_bytes
        memory.total_accesses += len(transactions)
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=len(transactions),
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # oracle fast path                                                   #
    # ------------------------------------------------------------------ #

    def _run_burst_oracle(
        self, stream: TransactionStream, start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Oracle burst: translation is free but non-present pages fault.

        The resolver is probed once per same-page run, matching
        :meth:`MMU.translate`'s per-request semantics: a page's mapping
        changes only inside the fault handler, which runs only at a run's
        first transaction.  An unmapped page is counted in
        ``stats.faults`` without being counted as a completed request; it
        raises :class:`TranslationFault`, or the fault handler maps it,
        the burst stalls to the handler's retry cycle and the page is
        probed again.  A present page's whole run then issues through
        :func:`_issue_span` at release latency 0, after a timeline
        capture that steps the run's issue cycles by ``1.0`` as the
        reference does.
        """
        mmu = self.mmu
        memory = self.memory
        stats = mmu.stats
        resolve = mmu.resolver_for(asid).resolve_vpn
        vpn_shift = mmu._vpn_shift
        fault_handler = self.fault_handler
        window = self.timeline_window
        timeline = self.timeline

        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles

        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0
        counted = 0
        va_list = stream.va_list
        size_list = stream.size_list
        runs = stream.runs
        n = len(va_list)
        rc = 0

        try:
            i = 0
            while i < n:
                vpn = va_list[i] >> vpn_shift
                if resolve(vpn) is None:
                    stats.faults += 1
                    if fault_handler is None:
                        raise TranslationFault(vpn)
                    resolved = fault_handler(vpn, cycle, asid)
                    stall += resolved - cycle
                    cycle = resolved
                    continue
                j, streamable, rc = _run_bounds(runs, i, rc)
                if window:
                    c = cycle
                    for _ in range(j - i):
                        timeline[int(c // window)] += 1
                        c += 1.0
                cycle, data_end, total_bytes = _issue_span(
                    va_list, size_list, i, j - i, streamable, cycle, 0,
                    data_end, total_bytes, channel_free, n_channels, ch_bw,
                    mem_latency,
                )
                counted += j - i
                i = j
        finally:
            # Successful transactions count even when a later one faults,
            # matching the per-request accounting of MMU.translate.
            stats.requests += counted

        memory.total_bytes += total_bytes
        memory.total_accesses += counted
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=n,
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # FIFO path (PRMB-less, path-cache-less MMUs)                        #
    # ------------------------------------------------------------------ #

    def _run_burst_fifo(
        self, stream: TransactionStream, start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """FIFO burst for PRMB-less, path-cache-less MMUs.

        Without path caches every walk accesses all of its page depth's
        levels, so walks complete in start order and the completion heap
        is (nearly) a FIFO: the heappush/heappop pair per walk becomes a
        cursor over ``order``, the heap sorted at entry (it holds at most
        ``n_walkers`` walks).  A start whose completion lands before
        ``order``'s tail (in-flight walks of several page depths) is
        insorted: a sorted list is a valid min-heap and every ``(ready,
        seq, walker)`` key is distinct, so pop order — the only
        observable — is unchanged.  This is the path the fast engine
        takes for the baseline IOMMU (Figure 8), every contended scenario
        built on it and its demand-paged runs (Figure 16).

        The method is one loop; each pass takes exactly one phase, in
        the reference loop's order: *next page* (same-page run bounds),
        *retire* (``process_completions`` through the cursor), *hit
        span* (resident page: hits up to the next completion, through
        :func:`_issue_span`), *walk start* (one transaction) or *fault*,
        *calendar gate* or *stall* (issue port blocked until the FIFO
        retry point).  The calendar gate is entered in either blocked state
        and retires a whole stretch as one bucket
        (:mod:`repro.core.calendar`):

        * at a *fresh* page, with no walk of it in flight — the chain
          regime: each transaction stalls for the head walk, retires
          it and restarts its walker for its own page;
        * at a page's *flip*, with its walks in flight — the cadence:
          the page's first walk fills the TLB and its run hits while
          its redundant walks retire, then each later page of a streak
          repeats walk starts, one stall and hits.

        A declined plan falls through to the stall, and the gate backs
        off (:func:`_decline_skip`).
        A fault (a walk start whose page does not resolve) takes
        :meth:`MMU.translate`'s counts (``stats.faults``, the attempt's
        TLB miss and PTS probe), then the fault handler, then the burst
        stall to its retry cycle.  The handler may have unmapped and shot
        down pages, so the page's PTS entry is re-read and ``prev_walk``
        reset before the retry.  Without a handler the fault raises after
        the ``finally`` block restores the heap and flushes the counters:
        the state the reference loop leaves at the same raise.
        Consecutive retirements of the same walk object collapse to one
        TLB insert: with nothing interleaved the repeats are bare
        present-key LRU bumps (stamp renumbering is monotone, so victim
        choices and final LRU order are preserved).  A hit moves the
        page to MRU, so ``prev_walk`` resets on every hit span and every
        page change.  Counters, probes, retry policy and float
        accumulation order are the reference's, operation for
        operation.
        """
        mmu = self.mmu
        pool = mmu.pool
        pts = mmu.pts
        tlb = mmu.tlb
        # The FIFO path only runs on translated single-level TLB
        # configurations; make the invariant explicit for narrowing.
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        stats = mmu.stats
        pool_stats = pool.stats
        heap = pool.heap
        memory = self.memory
        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles
        fault_handler = self.fault_handler
        tlb_set = tlb._set
        tlb_insert = tlb.insert
        tlb_touch = tlb.touch
        tlb_latency = mmu._tlb_latency
        pts_by_vpn = pts._by_vpn
        walk_of = pool._walk_of
        vpn_arr = pool._vpn
        free_list = pool._free
        completion_of = pool._completion_of
        poisoned = mmu._poisoned_walkers
        walk_latency = pool.walk_latency_per_level
        busy_by_asid = pool._busy_by_asid
        resolver = mmu.resolver_for(asid)
        r_cache = resolver._cache
        r_resolve = resolver.resolve_vpn
        vpn_shift = mmu._vpn_shift
        asid_bits = asid << ASID_SHIFT
        insort = bisect.insort
        inf = float("inf")

        # Batched walker-completion calendar: whole saturated multi-run
        # stretches retire as one planned bucket.
        calendar = self.calendars.get(asid)
        if calendar is None:
            calendar = self.calendars[asid] = CompletionCalendar(
                mmu, memory, asid
            )

        # The tenant's walker quotas.  Busy sets are created eagerly so
        # the ``others`` rows track the live sets; an empty set behaves
        # exactly like an absent one at every enforcement site.
        policy = pool._policy
        policied = policy is not None
        my_quota: Optional[int] = None
        work_conserving = True
        my_busy: Optional[Set[int]] = None
        others: Sequence[Tuple[int, Set[int]]] = ()
        if policy is not None:
            walker_quota = pool._walker_quota
            my_quota = walker_quota(asid)
            work_conserving = policy.work_conserving
            my_busy = busy_by_asid.setdefault(asid, set())
            others = [
                (oq, busy_by_asid.setdefault(other, set()))
                for other in policy.asids
                if other != asid and (oq := walker_quota(other)) is not None
            ]

        # ``order[idx:]`` is the heap in completion order.
        order = sorted(heap)
        idx = 0
        order_append = order.append
        va_list = stream.va_list
        size_list = stream.size_list
        runs = stream.runs
        n = len(va_list)
        rc = 0
        i = 0
        j = 0  # the first pass takes the next-page branch
        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0
        seq = pool._seq
        sc = stats.stall_cycles
        walk = None
        dur = 0.0
        levels = 0
        walks_n = 0
        stalls_n = 0
        fresh_walk_n = 0
        fresh_stall_n = 0
        levels_sum = 0
        released_n = 0
        prev_walk = None
        cal_skip = 0  # plan-failure hysteresis: the next index to try
        cal_fails = 0  # consecutive declines (backoff gate)

        try:
            while True:
                if i >= j:
                    # ---------------- next page ----------------
                    if i >= n:
                        break
                    vpn = va_list[i] >> vpn_shift
                    tkey = vpn | asid_bits
                    j, run_streamable, rc = _run_bounds(runs, i, rc)
                    walk = None
                    my_walkers = pts_by_vpn.get(tkey)
                    prev_walk = None

                n_ord = len(order)
                if idx < n_ord and order[idx][0] <= cycle:
                    # -------- retire: process_completions(cycle) --------
                    # Cursor-inlined walk retirement in FIFO order
                    # (PRMB-less and path-cache-less: nothing to drain or
                    # fill besides the TLB).
                    while idx < n_ord:
                        entry = order[idx]
                        if entry[0] > cycle:
                            break
                        idx += 1
                        walker = entry[2]
                        done_walk = walk_of[walker]
                        d_asid = done_walk.asid
                        vpn_arr[walker] = None
                        walk_of[walker] = None
                        if policied:
                            busy = (
                                my_busy if d_asid == asid
                                else busy_by_asid.get(d_asid)
                            )
                            if busy is not None:
                                busy.discard(walker)
                        free_list.append(walker)
                        if poisoned and walker in poisoned:
                            poisoned.discard(walker)
                            continue
                        # Inlined PTS.release (always registered).
                        dkey = done_walk.vpn | (d_asid << ASID_SHIFT)
                        registered = pts_by_vpn[dkey]
                        registered.remove(walker)
                        if not registered:
                            del pts_by_vpn[dkey]
                        released_n += 1
                        if done_walk is prev_walk:
                            # Same mapping as the insert just made,
                            # nothing interleaved: a bare present-key
                            # LRU bump.
                            continue
                        if not (
                            tlb_set
                            and next(reversed(tlb_set)) == dkey
                            and tlb_set[dkey] == done_walk.pfn
                        ):
                            # A resident MRU refill with the same PFN is a
                            # state no-op (the LRU bump lands on the tail;
                            # mirror order and all stamp orderings are
                            # preserved).
                            tlb_insert(done_walk.vpn, done_walk.pfn, d_asid)
                        prev_walk = done_walk
                    my_walkers = pts_by_vpn.get(tkey)

                if tkey in tlb_set:
                    # ---------------- hit span ----------------
                    # Bounded by the next completion: a fill may evict
                    # this page, so no hit may pass a due retirement.
                    prev_walk = None
                    h = order[idx][0] if idx < n_ord else inf
                    # Conservative count of the transactions that issue
                    # strictly before ``h``; the current one always does
                    # (``h > cycle`` once retirement is done).
                    t = int(h - cycle) - 1 if h != inf else n
                    span = j - i
                    if span > t:
                        span = t if t > 1 else 1
                    cycle, data_end, total_bytes = _issue_span(
                        va_list, size_list, i, span, run_streamable, cycle,
                        tlb_latency, data_end, total_bytes, channel_free,
                        n_channels, ch_bw, mem_latency,
                    )
                    stats.requests += span
                    stats.tlb_hits += span
                    tlb_touch(vpn, span, asid)
                    i += span
                    continue

                if not free_list:
                    startable = False
                elif (
                    my_busy is None
                    or my_quota is None
                    or len(my_busy) < my_quota
                ):
                    startable = True
                elif not work_conserving:
                    startable = False
                else:
                    reserved_unmet = 0
                    for other_quota, other_busy in others:
                        shortfall = other_quota - len(other_busy)
                        if shortfall > 0:
                            reserved_unmet += shortfall
                    startable = len(free_list) > reserved_unmet
                if startable:
                    if walk is None:
                        walk = r_cache.get(vpn)
                        if walk is None:
                            # Cold page (or a memoized fault): one full
                            # resolve decides which.
                            walk = r_resolve(vpn)
                            if walk is None:
                                # ------------- fault -------------
                                stats.faults += 1
                                tlb.misses += 1
                                pts.lookups += 1
                                if my_walkers:
                                    pts.hits += 1
                                if fault_handler is None:
                                    raise TranslationFault(vpn)
                                resolved = fault_handler(vpn, cycle, asid)
                                stall += resolved - cycle
                                cycle = resolved
                                my_walkers = pts_by_vpn.get(tkey)
                                prev_walk = None
                                continue
                        levels = walk.levels
                        dur = levels * walk_latency
                    # ---------------- walk start ----------------
                    ready = cycle + dur
                    if my_walkers is None:
                        fresh_walk_n += 1  # PTS miss: non-redundant
                        my_walkers = pts_by_vpn.setdefault(tkey, [])
                    else:
                        walks_n += 1
                    walker = free_list.pop()
                    levels_sum += levels
                    vpn_arr[walker] = vpn
                    walk_of[walker] = walk
                    completion_of[walker] = ready
                    if my_busy is not None:
                        my_busy.add(walker)
                    seq += 1
                    entry = (ready, seq, walker)
                    if order and ready < order[-1][0]:
                        # In-flight walks span page depths: keep
                        # ``order`` sorted (pop order is unchanged; an
                        # equal-ready entry has the larger seq and
                        # belongs at the tail).
                        insort(order, entry, idx)
                    else:
                        order_append(entry)
                    my_walkers.append(walker)
                    va = va_list[i]
                    size = size_list[i]
                    channel = (va >> 8) % n_channels
                    free_at = channel_free[channel]
                    start = ready if ready > free_at else free_at
                    finish = start + size / ch_bw
                    channel_free[channel] = finish
                    done = finish + mem_latency
                    if done > data_end:
                        data_end = done
                    total_bytes += size
                    cycle += 1.0
                    i += 1
                    continue

                # ---------------- calendar gate ----------------
                # Blocked at a fresh page (the chain regime) or at the
                # page's flip, its walks in flight (the cadence): try to
                # plan a whole stretch and retire it as one bucket (see
                # ``core/calendar.py``).
                if not poisoned and i >= cal_skip:
                    planned = calendar.plan_stretch(
                        order, idx, stream, i, j, rc, cycle, vpn, tkey, walk,
                        run_streamable, my_walkers, policied, my_quota,
                        work_conserving, my_busy, others, sc, stall,
                    )
                    if planned:
                        (
                            i, cycle, data_end, total_bytes, stall, sc,
                            seq, vpn, tkey, j, run_streamable, rc, walk,
                            levels, cal_counts,
                        ) = calendar.drain_stretch(
                            order, idx, i, cycle, data_end, total_bytes,
                            stall, sc, seq, prev_walk,
                        )
                        (
                            cal_started, cal_fresh, cal_stalls,
                            cal_fresh_stalls, cal_hits,
                        ) = cal_counts
                        dur = levels * walk_latency
                        my_walkers = pts_by_vpn.get(tkey)
                        prev_walk = None
                        stalls_n += cal_stalls - cal_fresh_stalls
                        walks_n += cal_started - cal_fresh
                        fresh_stall_n += cal_fresh_stalls
                        fresh_walk_n += cal_fresh
                        levels_sum += cal_started * levels
                        released_n += cal_started
                        stats.requests += cal_hits
                        stats.tlb_hits += cal_hits
                        cal_fails = 0
                        continue
                    cal_fails += 1
                    cal_skip = _decline_skip(runs, j, rc, cal_fails)

                # ---------------- stall ----------------
                # One stall attempt at the FIFO retry point (the
                # pool-wide earliest completion is the cursor head); a
                # hard-partitioned tenant at quota waits for its own
                # earliest walk instead.
                if (
                    my_busy
                    and not work_conserving
                    and my_quota is not None
                    and len(my_busy) >= my_quota
                ):
                    # simlint: disable=det-set-iter -- min() over completion cycles is order-independent: floats are totally ordered and ties yield the same value, so hash order cannot leak into timing
                    retry = min(completion_of[w] for w in my_busy)
                else:
                    retry = order[idx][0] if idx < n_ord else inf
                if my_walkers is None:
                    fresh_stall_n += 1  # the blocked probe missed PTS
                else:
                    stalls_n += 1
                sc += retry - cycle if retry > cycle else 0.0
                stall += retry - cycle
                cycle = retry
        finally:
            # Restore the live completion suffix (sorted == valid heap) and
            # flush the deferred counters, also when a fault raises.
            heap[:] = order[idx:]
            pool._seq = seq
            stats.stall_cycles = sc
            started = walks_n + fresh_walk_n
            if started:
                stats.requests += started
                pool_stats.walks += started
                pool_stats.level_accesses += levels_sum
            if started != released_n:
                pts._count += started - released_n
            if walks_n:
                stats.redundant_walk_requests += walks_n
                pool_stats.redundant_walks += walks_n
            probes = started + stalls_n + fresh_stall_n
            if probes:
                tlb.misses += probes
                pts.lookups += probes
                pts.hits += walks_n + stalls_n
            if stalls_n or fresh_stall_n:
                stats.stall_events += stalls_n + fresh_stall_n

        memory.total_bytes += total_bytes
        memory.total_accesses += n
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=n,
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # batched kernel (every translated MMU, every share policy)          #
    # ------------------------------------------------------------------ #

    def _run_burst_kernel(
        self, stream: TransactionStream, start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Same-page run batching for translated MMUs under any share policy.

        It serves every translated MMU but the PRMB-less, path-cache-less
        ones (:meth:`_run_burst_fifo`).  Each segment's leading
        transaction takes one fully general step; the rest of its
        same-page run is retired in bulk until the next interaction point.
        The phases, each marked by a comment in the loop:

        * **Merge streak.**  On a PRMB machine without a path cache under
          full sharing, a leading step whose page is in neither the TLB
          nor the PTS, with a walker free and none poisoned, first asks
          the completion calendar to plan the streak of fresh pages from
          here (:meth:`CompletionCalendar.plan_streak`: one walk plus
          merges each, while walkers stay free) and retires it as one
          bucket (:meth:`CompletionCalendar.drain_streak`), resuming
          after it.  A declined plan falls through to the leading step,
          and the gate backs off (:func:`_decline_skip`).
        * **Leading step.**  The inlined :meth:`MMU.translate`: same
          probes, counters and dispatch order (TLB → PTS/PRMB merge →
          walker allocation → stall), with the method-call chain flattened
          against locals.  The merge probe runs only with PRMB slots, and
          the pool's quota checks and per-ASID bookkeeping only under a
          policy.  Faults raise or go to the fault handler.
        * **Channel.**  The leading transaction's memory-channel
          arithmetic (:meth:`MainMemory.access`, inlined).
        * **Hit span.**  Resident-page hits through :func:`_issue_span`,
          never past a walk completion: a policied TLB fill selects
          victims from per-tenant LRU state, and in the corner where the
          run's tenant holds a single entry a deferred fill could evict
          the run page itself — so fills are retired exactly when the
          reference loop would, and a hit span is bounded by the earliest
          in-flight completion.  Between two
          completions a resident page stays resident, so the span is
          ``span`` identical lookups: one MRU bump, bulk counters, the
          reference's channel arithmetic.  A completion due within two
          issue slots ends the span; the leading step takes that hit.
        * **Merge segment.**  Bulk PRMB merges, bounded by this page's
          *own* earliest walk completion (which flips the run to TLB
          hits) and, under a policy, by the tenant's remaining PRMB-quota
          room.  Other pages' retirements commute — they touch neither
          this page's walkers nor the merge arithmetic — and the quota
          room they release is recovered at the segment break, where the
          next leading step retires the backlog at the same cycle the
          reference loop would admit the freed capacity.  A PRMB-less
          miss (a path-cache MMU's walk) is a leading step.

        Full sharing is the policy whose quotas never bind, so it skips
        their queries and the pool's per-ASID bookkeeping.  Every phase
        keeps the reference's operations and their order, so the kernel
        is bit-identical to :meth:`_run_burst_reference` under every share
        policy (``tests/test_fastpath_parity.py``).
        """
        mmu = self.mmu
        memory = self.memory
        vpn_shift = mmu._vpn_shift
        fault_handler = self.fault_handler
        process = mmu.process_completions
        stats = mmu.stats
        tlb = mmu.tlb
        tlb_latency = mmu._tlb_latency
        pool = mmu.pool
        pts = mmu.pts
        # Batched paths only run on translated (non-oracle) single-level
        # TLB configurations; make the invariant explicit for narrowing.
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        heap = pool.heap
        pts_by_vpn = pts._by_vpn
        buffers = pool._buffers
        completion_of = pool._completion_of
        prmb_capacity = mmu._prmb_slots
        prmb_stats = pool.prmb_stats
        prmb_occ = pool._prmb_occ
        prmb_total = pool.n_walkers * pool.prmb_slots
        # The pool drops trivial policies: ``policied`` is False exactly
        # when every quota is unlimited.
        policied = pool._policy is not None
        prmb_quota_of = mmu.share_policy.prmb_quota
        inf = float("inf")

        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles
        s_cycles = 256 / ch_bw
        merge_stream_ok = n_channels >= s_cycles
        asid_bits = asid << ASID_SHIFT

        # Inlined TLB probes: ``key in tlb_set`` without a method call per
        # transaction.
        tlb_set = tlb._set
        mirrored = tlb._mirrors is not None

        # Structures of the inlined leading translate.
        resolver = mmu.resolver_for(asid)
        resolver_resolve = resolver.resolve_vpn
        r_cache = resolver._cache
        pool_stats = pool.stats
        walk_of = pool._walk_of
        vpn_arr = pool._vpn
        free_list = pool._free
        tpregs = pool._tpregs
        shared_cache = None if pool._no_path_cache else pool._shared_cache
        walk_latency = pool.walk_latency_per_level
        busy_by_asid = pool._busy_by_asid
        heappush_ = heapq.heappush

        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0
        va_list = stream.va_list
        size_list = stream.size_list
        runs = stream.runs
        n = len(va_list)
        rc = 0
        # The merge-streak calendar: PRMB machines without a path cache
        # under full sharing, whose fresh pages each take one walk plus
        # merges while walkers are free.
        streak = None
        if prmb_capacity and pool._no_path_cache and not policied:
            streak = self.calendars.get(asid)
            if streak is None:
                streak = self.calendars[asid] = CompletionCalendar(
                    mmu, memory, asid
                )
        poisoned = mmu._poisoned_walkers
        streak_skip = 0  # plan-failure hysteresis: the next index to try
        streak_fails = 0  # consecutive declines (backoff gate)

        i = 0
        while i < n:
            va = va_list[i]
            size = size_list[i]
            vpn = va >> vpn_shift
            tkey = vpn | asid_bits
            # ---------------- leading step ----------------
            # The request count is settled per branch (translate nets it
            # to zero on the stall and fault branches).
            if heap and heap[0][0] <= cycle:
                process(cycle)
            if (
                streak is not None
                and i >= streak_skip
                and free_list
                and not poisoned
                and tkey not in tlb_set
                and tkey not in pts_by_vpn
            ):
                # ---------------- merge streak ----------------
                # A fresh page with a walker free: plan the streak of
                # fresh pages from here (one walk plus merges each) and
                # retire it as one bucket (see ``core/calendar.py``).
                j, run_streamable, rc = _run_bounds(runs, i, rc)
                m = streak.plan_streak(stream, i, j, rc, cycle)
                if m:
                    cycle, data_end, total_bytes, rc = streak.drain_streak(
                        data_end, total_bytes
                    )
                    i += m
                    streak_fails = 0
                    continue
                # A decline falls through to the leading step.
                streak_fails += 1
                streak_skip = _decline_skip(runs, j, rc, streak_fails)
            while True:
                if tkey in tlb_set:
                    stats.requests += 1
                    tlb_set.move_to_end(tkey)
                    if mirrored:
                        tlb._bump_mirror(tkey, asid)
                    tlb.hits += 1
                    stats.tlb_hits += 1
                    ready = cycle + tlb_latency
                    break
                tlb.misses += 1
                pts.lookups += 1
                walkers = pts_by_vpn.get(tkey)
                if walkers:
                    pts.hits += 1
                    merged = False
                    if prmb_capacity and (not policied or pool.can_merge(asid)):
                        for walker in walkers:
                            buf = buffers[walker]
                            pos = buf._occupied
                            if pos >= buf.slots:
                                prmb_stats.rejects_full += 1
                                continue
                            pos += 1
                            buf._occupied = pos
                            prmb_stats.merges += 1
                            if pos > prmb_stats.peak_occupancy:
                                prmb_stats.peak_occupancy = pos
                            if policied:
                                prmb_occ[asid] = prmb_occ.get(asid, 0) + 1
                            ready = completion_of[walker] + pos
                            merged = True
                            break
                    if merged:
                        stats.requests += 1
                        stats.merges += 1
                        break
                if free_list and (not policied or pool.can_start(asid)):
                    walk = r_cache.get(vpn)
                    if walk is None:
                        walk = resolver_resolve(vpn)
                    if walk is None:
                        stats.faults += 1
                        if fault_handler is None:
                            raise TranslationFault(vpn)
                        resolved = fault_handler(vpn, cycle, asid)
                        stall += resolved - cycle
                        cycle = resolved
                        process(cycle)
                        continue
                    stats.requests += 1
                    if walkers:
                        stats.redundant_walk_requests += 1
                    # Inlined WalkerPool.start_walk + PTS.register.
                    walker = free_list.pop()
                    if tpregs is not None:
                        skip = tpregs[walker].lookup(walk)
                    elif shared_cache is not None:
                        skip = shared_cache.lookup(walk)
                    else:
                        skip = 0
                    levels = walk.levels
                    accessed = levels - (
                        skip if skip < levels - 1 else levels - 1
                    )
                    ready = cycle + accessed * walk_latency
                    pool_stats.walks += 1
                    if walkers:
                        pool_stats.redundant_walks += 1
                    pool_stats.level_accesses += accessed
                    pool_stats.levels_skipped += levels - accessed
                    vpn_arr[walker] = vpn
                    walk_of[walker] = walk
                    completion_of[walker] = ready
                    if policied:
                        busy_by_asid.setdefault(asid, set()).add(walker)
                    pool._seq += 1
                    heappush_(heap, (ready, pool._seq, walker))
                    if walkers:
                        walkers.append(walker)
                    else:
                        pts_by_vpn[tkey] = [walker]
                    pts._count += 1
                    break
                # Fully blocked: translate's stall branch (the probe
                # counters above stand; the retried request recounts).
                if policied:
                    retry = pool.earliest_retry_for(asid)
                else:
                    retry = heap[0][0] if heap else inf
                stats.stall_events += 1
                stats.stall_cycles += max(0.0, retry - cycle)
                stall += retry - cycle
                cycle = retry
                process(cycle)
            # ---------------- channel ----------------
            channel = (va >> 8) % n_channels
            free_at = channel_free[channel]
            start = ready if ready > free_at else free_at
            finish = start + size / ch_bw
            channel_free[channel] = finish
            done = finish + mem_latency
            if done > data_end:
                data_end = done
            total_bytes += size
            cycle += 1.0
            i += 1

            # Bulk continuation of the same-page run.
            while i < n and va_list[i] >> vpn_shift == vpn:
                if tkey in tlb_set:
                    # ---------------- hit span ----------------
                    h = heap[0][0] if heap else inf
                    if h <= cycle:
                        process(cycle)
                        continue
                    # Conservative count of transactions that issue
                    # strictly before the next completion.
                    t = int(h - cycle) - 1 if h != inf else n
                    if t <= 0:
                        break  # a completion due within two issue slots
                    j, run_streamable, rc = _run_bounds(runs, i, rc)
                    span = j - i
                    if span > t:
                        span = t
                    cycle, data_end, total_bytes = _issue_span(
                        va_list, size_list, i, span, run_streamable, cycle,
                        tlb_latency, data_end, total_bytes, channel_free,
                        n_channels, ch_bw, mem_latency,
                    )
                    stats.requests += span
                    stats.tlb_hits += span
                    tlb.touch(vpn, span, asid)
                    i += span
                    continue
                if not prmb_capacity:
                    break  # a path-cache walk: the leading step
                # ---------------- merge segment ----------------
                walkers = pts_by_vpn.get(tkey)
                if not walkers:
                    break
                # Bulk PRMB merges: requests park in the first in-flight
                # walker with a free slot; request r's data is released at
                # the walk's completion plus r's drain position.  A merge
                # segment only breaks when one of *this page's* walks
                # completes (flipping the run to TLB hits) — other pages'
                # retirements commute and are deferred to the next
                # leading step — and, under a policy, where the tenant's
                # merge-quota room runs out; that room only shrinks inside
                # a segment (the drains that would grow it are themselves
                # completions the next leading step retires first).
                if len(walkers) == 1:
                    h_mine = completion_of[walkers[0]]
                else:
                    h_mine = min(completion_of[w] for w in walkers)
                if cycle >= h_mine:
                    # This page's own walk completes now: retire the
                    # backlog and re-dispatch (the run flips to TLB hits).
                    process(cycle)
                    continue
                j, run_streamable, rc = _run_bounds(runs, i, rc)
                if policied:
                    quota = prmb_quota_of(asid, prmb_total)
                    if quota is not None:
                        room = quota - prmb_occ.get(asid, 0)
                        if room <= 0:
                            break
                        if room < j - i:
                            j = i + room
                merged_total = 0
                full_skips = 0
                for walker in walkers:
                    buf = buffers[walker]
                    pos = buf._occupied
                    cap = buf.slots
                    if pos >= cap:
                        full_skips += 1
                        continue
                    comp = completion_of[walker]
                    room = cap - pos
                    avail = j - i
                    span = avail if avail < room else room
                    t = int(h_mine - cycle) - 1
                    if t < span:
                        span = t
                    k = i
                    if (
                        span >= 8
                        and run_streamable
                        and (span <= n_channels or merge_stream_ok)
                    ):
                        base_ch = va_list[i] >> 8
                        lim = span if span < n_channels else n_channels
                        ok = max(channel_free) <= comp + (pos + 1)
                        if not ok:
                            for off in range(lim):
                                if channel_free[(base_ch + off) % n_channels] > (
                                    comp + (pos + 1 + off)
                                ):
                                    break
                            else:
                                ok = True
                        if ok:
                            for _ in range(span):
                                cycle += 1.0
                            for off in range(span - lim, span):
                                ready = comp + (pos + 1 + off)
                                finish = ready + s_cycles
                                channel_free[
                                    (base_ch + off) % n_channels
                                ] = finish
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += span * 256
                            pos += span
                            k = i + span
                    # Per-transaction loop: takes the span when the closed
                    # form declines it (``t`` keeps every transaction of
                    # the span inside all three bounds; most such spans
                    # are shorter than 8, too short to pay for slicing the
                    # columns) and finishes whatever the bulk span left
                    # over (the conservative trip count stops up to one
                    # cycle short of the page's own completion), so a
                    # walker is only ever abandoned because its buffer is
                    # truly full, the segment ended, or that completion is
                    # due.
                    while k < j and pos < cap and cycle < h_mine:
                        va = va_list[k]
                        size = size_list[k]
                        pos += 1
                        ready = comp + pos
                        channel = (va >> 8) % n_channels
                        free_at = channel_free[channel]
                        start = ready if ready > free_at else free_at
                        finish = start + size / ch_bw
                        channel_free[channel] = finish
                        done = finish + mem_latency
                        if done > data_end:
                            data_end = done
                        total_bytes += size
                        cycle += 1.0
                        k += 1
                    count = k - i
                    if count:
                        buf._occupied = pos
                        mb_stats = buf.stats
                        mb_stats.merges += count
                        if pos > mb_stats.peak_occupancy:
                            mb_stats.peak_occupancy = pos
                        # Each merged request first probed every already-
                        # full walker ahead of this one in the PTS list.
                        mb_stats.rejects_full += full_skips * count
                        merged_total += count
                        i = k
                    if i >= j or cycle >= h_mine:
                        break
                    full_skips += 1  # this walker is now truly full
                if merged_total:
                    stats.requests += merged_total
                    stats.merges += merged_total
                    # Each merged request was one TLB miss + one PTS hit.
                    tlb.misses += merged_total
                    pts.lookups += merged_total
                    pts.hits += merged_total
                    if policied:
                        prmb_occ[asid] = prmb_occ.get(asid, 0) + merged_total
                    continue
                # Nothing merged (walkers full / quota / completion): the
                # next transaction takes the leading step.
                break

        # Catch retirements deferred past merge segments up to the
        # reference path's end-of-burst point (the final transaction's
        # issue cycle).  Within a burst the next leading step replays
        # the backlog identically, but the next *burst* may start at an
        # earlier cycle — multi-tenant tenants run on independent clocks —
        # where a stale backlog would desynchronize walker allocation
        # between the two paths.
        if n:
            last_cycle = cycle - 1.0
            if heap and heap[0][0] <= last_cycle:
                process(last_cycle)

        memory.total_bytes += total_bytes
        memory.total_accesses += n
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=n,
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # multi-burst driver                                                 #
    # ------------------------------------------------------------------ #

    def run_bursts(
        self,
        bursts: Sequence[Burst],
        start_cycle: float,
        asid: int = 0,
    ) -> Tuple[List[BurstResult], float]:
        """Run several back-to-back bursts (e.g. a tile's IA then W fetch).

        Burst *n+1*'s translations start as soon as burst *n*'s last
        translation issued (the DMA does not interleave IA and W but need
        not wait for data return); the combined memory phase ends when all
        data has returned.
        """
        results: List[BurstResult] = []
        cycle = start_cycle
        data_end = start_cycle
        for burst in bursts:
            result = self.run_burst(burst, cycle, asid)
            results.append(result)
            cycle = result.issue_end_cycle
            if result.data_end_cycle > data_end:
                data_end = result.data_end_cycle
        return results, data_end

    def timeline_series(self) -> List[Tuple[int, int]]:
        """Sorted ``(window_start_cycle, request_count)`` pairs (Figure 7)."""
        window = self.timeline_window or 1
        return [(idx * window, count) for idx, count in sorted(self.timeline.items())]
