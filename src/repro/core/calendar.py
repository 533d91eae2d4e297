"""Batched walker-completion calendar for the fused no-PRMB runner.

The fused FIFO runner (:meth:`TranslationEngine._no_prmb_fifo_runner`)
already collapses the per-walk ``heappush``/``heappop`` pair into a cursor
over one sorted snapshot, but its loop still takes one stall, one
retirement and one walk start per transaction in the saturated regime.
This module batches that per-event work at the runner's calendar gate:
in the saturated no-PRMB regime every walk in flight has the same
latency class (``levels * walk_latency_per_level``), so completions are
FIFO per latency class and the completion sequence is *closed form* —
retiring the head at ready cycle ``c`` restarts the same walker with
ready ``c + dur``, so the calendar evolves as ``W`` interleaved arithmetic
progressions with common step ``dur``:

    ``C(t) = heads[t mod W] + (t // W) * dur``

A whole stretch of ``m`` transactions (crossing same-page run boundaries)
can therefore be planned as NumPy int64 columns — ready-cycle, walker-id,
seq — validated against every interaction point the runner's loop would
honour (TLB flips, policy quota exhaustion, channel queueing, page
faults, poisoned walkers), and retired as one bucket.
A stretch may retire only a prefix of the window (``m < W``) when the
miss cluster ends before the in-flight window wraps.

Bit-identity contract
---------------------
The drain performs exactly the state transitions the per-event loop
would: the same ``TLB.insert`` calls in the same order (with the same
per-page ``prev_walk`` dedup and set-MRU same-PFN elision), the same PTS
map contents and dict key order, the same walker-array/busy-set/channel
final states, and the same float values for every observable timing
quantity.  The closed form is only entered when the entry cycle and both
stall accumulators are integral and all planned cycle values are exact
small integers, so the vectorized int64 arithmetic is exact and the
stall sums are reassociation-free; any configuration with fractional
cycle arithmetic falls back to the runner's per-event loop.
``tests/test_calendar.py`` differential-fuzzes the calendar against the
per-event path; the figure-level golden diffs enforce it end to end.

Retirement discipline
---------------------
Calendar buckets may only be consumed through :meth:`drain_stretch` (the
designated drain, mirroring the epoch-bump discipline): the ``cal_*``
bucket columns and cursor are written nowhere else, and the simlint rule
``cyc-calendar-retire`` enforces that statically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..memory.address import ASID_SHIFT
from ..memory.dram import MainMemory
from .mmu import MMU
from .stream import TransactionStream
from .tlb import TLB
from .walk_info import WalkInfo

#: Planned-stretch hard cap (bounds planning arrays and drain latency).
_STRETCH_CAP = 8192

#: First channel-validation chunk: quota-bound regimes plan short
#: stretches every few pages, so the candidate arrays start small and
#: only extend to the full cap when the page scan actually gets there.
_FIRST_CHUNK = 256

#: Minimum worthwhile stretch, in transactions (below this the per-plan
#: NumPy setup outweighs the per-transaction savings).
_MIN_STRETCH = 12

#: Largest cycle value the planner accepts: integers below 2**52 are
#: exactly representable as float64 with headroom for dur/interval sums.
_MAX_CYCLE = float(1 << 52)

#: One planned same-page run: ``(tkey, vpn, walk, a, b, run_end,
#: streamable)`` with ``[a, b)`` the transaction span relative to the
#: stretch base and ``run_end`` the run's true end index in the stream.
_PlannedRun = Tuple[int, int, WalkInfo, int, int, int, bool]


class CompletionCalendar:
    """Cycle-indexed completion calendar for one address space's runner.

    Binds the same stable structures the fused runner closes over (walker
    arrays, TLB sets, PTS map, channel table) once at construction; each
    :meth:`plan_stretch` validates a saturated multi-run stretch and fills
    the bucket columns, and :meth:`drain_stretch` — the only consumer of
    those columns — applies the whole bucket to simulator state.
    """

    __slots__ = (
        "asid", "_walk_of", "_vpn_arr", "_completion_of",
        "_free_list", "_busy_by_asid", "_pts_by_vpn", "_tlb_sets",
        "_tlb_set_mask", "_tlb_insert", "_resolvers", "_walk_latency",
        "_vpn_shift", "_channel_free", "_n_channels", "_ch_bw",
        "_mem_latency", "_interval", "_interval_int", "_static_ok",
        "cal_ready", "cal_walker", "cal_seq", "cal_cursor",
        "_plan_m", "_plan_pages", "_plan_window_walks",
        "_plan_window_walkers", "_plan_window_keys", "_plan_heads0",
        "_plan_dur", "_plan_levels", "_plan_ch", "_plan_finish",
        "_plan_bytes", "_plan_policied", "_plan_my_busy", "_plan_rc",
        "_plan_stall_events", "_plan_fresh_stalls",
    )

    def __init__(
        self, mmu: MMU, memory: MainMemory, asid: int, issue_interval: float
    ) -> None:
        pool = mmu.pool
        pts = mmu.pts
        tlb = mmu.tlb
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        self.asid = asid
        self._walk_of = pool._walk_of
        self._vpn_arr = pool._vpn
        self._completion_of = pool._completion_of
        self._free_list = pool._free
        self._busy_by_asid = pool._busy_by_asid
        self._pts_by_vpn = pts._by_vpn
        self._tlb_sets = tlb._sets
        self._tlb_set_mask = tlb._set_mask
        self._tlb_insert = tlb.insert
        self._resolvers = mmu._resolvers
        self._walk_latency = pool.walk_latency_per_level
        self._vpn_shift = mmu._vpn_shift
        mem_cfg = memory.config
        self._channel_free = memory._channel_free
        self._n_channels = mem_cfg.channels
        self._ch_bw = mem_cfg.channel_bandwidth
        self._mem_latency = mem_cfg.access_latency_cycles
        self._interval = issue_interval
        self._interval_int = int(issue_interval)
        # The closed form relies on exact integer cycle arithmetic; a
        # fractional issue interval or walk latency disables it outright.
        self._static_ok = (
            float(issue_interval).is_integer()
            and isinstance(self._walk_latency, int)
            and self._n_channels > 0
        )
        empty = np.zeros(0, dtype=np.int64)
        self.cal_ready = empty
        self.cal_walker = empty
        self.cal_seq = empty
        self.cal_cursor = 0
        self._plan_m = 0
        self._plan_pages: List[_PlannedRun] = []
        self._plan_window_walks: List[WalkInfo] = []
        self._plan_window_walkers: List[int] = []
        self._plan_window_keys: Dict[int, int] = {}
        self._plan_heads0 = 0.0
        self._plan_dur = 0
        self._plan_levels = 0
        self._plan_ch: Any = None
        self._plan_finish: Any = None
        self._plan_bytes = 0
        self._plan_policied = False
        self._plan_my_busy: Optional[Set[int]] = None
        self._plan_rc = 0
        self._plan_stall_events = 0
        self._plan_fresh_stalls = 0

    # ------------------------------------------------------------------ #
    # planning                                                           #
    # ------------------------------------------------------------------ #

    def plan_stretch(
        self,
        order: List[Tuple[float, int, int]],
        idx: int,
        stream: TransactionStream,
        i: int,
        j: int,
        rc: int,
        cycle: float,
        vpn: int,
        tkey: int,
        walk0: Optional[WalkInfo],
        run_streamable: bool,
        policied: bool,
        my_quota: Optional[int],
        work_conserving: bool,
        my_busy: Optional[Set[int]],
        others: Sequence[Tuple[int, Set[int]]],
    ) -> int:
        """Validate and plan a saturated stretch of ``stream`` starting at
        transaction ``i`` (whose same-page run ends at ``j``; ``rc`` is
        the runner's cursor into ``stream.runs``); returns its length in
        transactions (0: no stretch applies).

        Caller guarantees: the issue port is blocked at an integral
        ``cycle`` at a fresh page (the PTS probe missed — the page has no
        in-flight walks), all due completions are retired, no walkers are
        poisoned, and the stall accumulators are integral.  Planning
        mutates nothing except the page table's walk memo
        (:meth:`WalkResolver.resolve_vpn` is pure and memoized, so
        resolving ahead of the reference point is unobservable).
        """
        if not self._static_ok:
            return 0
        vas = stream.vas
        sizes = stream.sizes
        uniform = stream.uniform_size
        n = len(vas)
        W = len(order) - idx
        if W < 2 or n - i < _MIN_STRETCH:
            return 0
        window = order[idx:]
        h0 = window[0][0]
        if not h0 > cycle:
            return 0
        asid = self.asid
        if j - i < _MIN_STRETCH:
            # Short page tail: the stretch only reaches _MIN_STRETCH if
            # the next page extends it, which a resident, in-flight, or
            # recurring page never does — pre-bail before the heavy
            # validation (quota-bound regimes hit this on every re-walk
            # of an evicted page tail).
            if j >= n:
                return 0
            nvpn = int(vas[j]) >> self._vpn_shift
            nkey = nvpn | (asid << ASID_SHIFT)
            if (
                nkey == tkey
                or nkey in self._tlb_sets[nkey & self._tlb_set_mask]
                or nkey in self._pts_by_vpn
            ):
                return 0

        # -- regime invariance: every retire+restart must leave the
        # startable/blocked predicates exactly where they are now --------
        if policied and my_quota is not None:
            # Quota-bound tenant: the window is every in-flight walk, so
            # the foreign count is exactly ``W - len(my_busy)`` and each
            # foreign retirement transfers one walker to us permanently
            # (busy counts move monotonically) — every per-transaction
            # start stays under quota iff the final occupancy ``W`` does.
            # An all-own window leaves busy counts invariant and may also
            # ride work-conserving borrowing.
            assert my_busy is not None
            if W > my_quota:
                if W != len(my_busy) or not work_conserving:
                    return 0
                reserved_unmet = 0
                for other_quota, other_busy in others:
                    shortfall = other_quota - len(other_busy)
                    if shortfall > 0:
                        reserved_unmet += shortfall
                if len(self._free_list) + 1 <= reserved_unmet:
                    return 0
        elif self._free_list:
            # Quota-free regimes are only blocked by pool exhaustion; a
            # free walker here means the caller's blocked state hinges on
            # policy state the closed form does not model.
            return 0

        # -- latency class of the stretch ---------------------------------
        resolver = self._resolvers[asid]
        r_cache = resolver._cache
        r_resolve = resolver.resolve_vpn
        if walk0 is None:
            walk0 = r_cache.get(vpn)
            if walk0 is None:
                walk0 = r_resolve(vpn)
                if walk0 is None:
                    return 0  # faulting lead: the runner's loop raises it
        levels = walk0.levels
        dur_f = levels * self._walk_latency
        if not float(dur_f).is_integer():
            return 0
        dur = int(dur_f)

        # -- exact-arithmetic and FIFO-progression guards ------------------
        heads = np.array([entry[0] for entry in window])
        if not bool((np.abs(heads) < _MAX_CYCLE).all()):
            return 0  # non-finite or too large for exact float arithmetic
        heads_int = heads.astype(np.int64)
        if not bool((heads_int == heads).all()):
            return 0
        if window[-1][0] - h0 > dur:
            return 0  # appended completions would not stay at the tail
        # Circular completion spacing must be at least the issue interval:
        # then the issue clock never overruns the next completion, each
        # transaction retires exactly one walk (a stall when the spacing
        # exceeds the interval, a retire-at-issue on equality), and the
        # restart cycle equals the retire cycle — so the appended ready
        # values follow the closed form in both cases.
        interval_int = self._interval_int
        cdiffs = np.empty(W, dtype=np.int64)
        cdiffs[0] = int(heads_int[0]) + dur - int(heads_int[-1])
        cdiffs[1:] = np.diff(heads_int)
        if int(cdiffs.min()) < interval_int:
            return 0  # coincident dues: not a one-retire-per-issue chain

        # -- channel timing: validate the no-queueing hypothesis over a
        # lazily extended candidate prefix *before* the page scan (the
        # check depends only on the closed-form ready column and the
        # address stream, and bounding the scan by the feasible prefix
        # keeps a busy channel table from costing a full scan per plan) --
        cap_total = _STRETCH_CAP if n - i > _STRETCH_CAP else n - i
        n_ch = self._n_channels
        channel_free = self._channel_free
        ch_bw = self._ch_bw
        ready_col: Any = None
        ready_f: Any = None
        finish: Any = None
        ch: Any = None

        def _validate(lim: int) -> int:
            # Returns the channel-feasible prefix length (<= lim); a cut
            # only removes constraints because each per-channel chain
            # keeps its predecessors, so any prefix stays validated.
            nonlocal ready_col, ready_f, finish, ch
            k = -(-lim // W)
            ready_col = (
                np.arange(k, dtype=np.int64)[:, None] * dur
                + heads_int[None, :]
            ).ravel()[:lim]
            ch = (vas[i:i + lim] >> 8) % n_ch
            ready_f = (ready_col + dur).astype(np.float64)
            if sizes is None:
                finish = ready_f + uniform / ch_bw
            else:
                finish = ready_f + sizes[i:i + lim] / ch_bw
            feasible = lim
            for c in range(n_ch):
                idxs = np.flatnonzero(ch == c)
                if not idxs.size:
                    continue
                r = ready_f[idxs]
                f = finish[idxs]
                bad = np.empty(idxs.size, dtype=bool)
                bad[0] = bool(r[0] < channel_free[c])
                if idxs.size > 1:
                    bad[1:] = r[1:] < f[:-1]
                w = np.flatnonzero(bad)
                if w.size:
                    v = int(idxs[w[0]])
                    if v < feasible:
                        feasible = v
            return feasible

        limit = _FIRST_CHUNK if cap_total > _FIRST_CHUNK else cap_total
        cap = _validate(limit)
        if cap < _MIN_STRETCH:
            return 0

        # -- window pages: every in-flight walk is accounted for ----------
        walk_of = self._walk_of
        pts_by_vpn = self._pts_by_vpn
        window_walks: List[WalkInfo] = []
        window_keys: Dict[int, int] = {}
        for entry in window:
            wk = walk_of[entry[2]]
            if wk is None:
                return 0
            window_walks.append(wk)
            dkey = wk.vpn | (wk.asid << ASID_SHIFT)
            window_keys[dkey] = window_keys.get(dkey, 0) + 1
        for dkey, cnt in window_keys.items():
            registered = pts_by_vpn.get(dkey)
            if registered is None or len(registered) != cnt:
                return 0

        # -- page scan: collect whole same-page runs until an interaction
        # point (recurrence, residency, fault, depth change) --------------
        tlb_sets = self._tlb_sets
        set_mask = self._tlb_set_mask
        shift = self._vpn_shift
        asid_bits = asid << ASID_SHIFT
        runs = stream.runs
        seen = set(window_keys)
        seen.add(tkey)
        pages: List[_PlannedRun] = []
        m = 0
        cur_start, cur_end = i, j
        cur_key, cur_vpn, cur_walk = tkey, vpn, walk0
        cur_stream = run_streamable
        while True:
            take = cur_end - cur_start
            stop = False
            if take > W:
                # Transaction W of a run would retire the run's own first
                # walk (the TLB-flip interaction point).
                take = W
                stop = True
            if m + take >= cap:
                if cap == limit and limit < cap_total:
                    # The validated candidate ran out, not the physics:
                    # extend to the full cap (the feasible prefix can
                    # only grow — the old range re-validates the same).
                    limit = cap_total
                    cap = _validate(limit)
                if m + take >= cap:
                    take = cap - m
                    stop = True
            pages.append(
                (cur_key, cur_vpn, cur_walk, m, m + take, cur_end, cur_stream)
            )
            m += take
            if stop or cur_end >= n:
                break
            nxt = cur_end
            nvpn = int(vas[nxt]) >> shift
            nkey = nvpn | asid_bits
            if nkey in seen or nkey in tlb_sets[nkey & set_mask]:
                break
            nwalk = r_cache.get(nvpn)
            if nwalk is None:
                nwalk = r_resolve(nvpn)
                if nwalk is None:
                    break  # faulting page: stop short, let the lead raise
            if nwalk.levels != levels:
                break  # latency class changes: FIFO order not closed form
            while runs[rc][0] <= nxt:
                rc += 1
            njend, nstream = runs[rc]
            seen.add(nkey)
            cur_start, cur_end = nxt, njend
            cur_key, cur_vpn, cur_walk = nkey, nvpn, nwalk
            cur_stream = nstream
        if m < _MIN_STRETCH:
            return 0

        # -- slice the validated columns to the scanned stretch -----------
        ready_col = ready_col[:m]
        walker_col = np.tile(
            np.fromiter((entry[2] for entry in window), np.int64, W),
            -(-m // W),
        )[:m]
        ch = ch[:m]
        finish = finish[:m]
        if sizes is None:
            stretch_bytes = m * uniform
        else:
            stretch_bytes = int(sizes[i:i + m].sum())

        # Stall events: transaction t stalls iff its completion spacing
        # strictly exceeds the issue interval — on equality it retires the
        # due walk at issue with no stall attempt.  The spacing pattern is
        # periodic in W; a page-lead stall is a "fresh" (PTS-miss) probe.
        stall_flags = np.tile(cdiffs > interval_int, -(-m // W))[:m]
        stall_flags[0] = True  # the planning point itself is a stall
        stall_events = int(stall_flags.sum())
        fresh_stalls = 0
        for prun in pages:
            if stall_flags[prun[3]]:
                fresh_stalls += 1

        self.cal_ready = ready_col
        self.cal_walker = walker_col
        self.cal_seq = np.arange(1, m + 1, dtype=np.int64)
        self.cal_cursor = 0
        self._plan_m = m
        self._plan_pages = pages
        self._plan_window_walks = window_walks
        self._plan_window_walkers = [entry[2] for entry in window]
        self._plan_window_keys = window_keys
        self._plan_heads0 = h0
        self._plan_dur = dur
        self._plan_levels = levels
        self._plan_ch = ch
        self._plan_finish = finish
        self._plan_bytes = stretch_bytes
        self._plan_policied = policied
        self._plan_my_busy = my_busy
        self._plan_rc = rc
        self._plan_stall_events = stall_events
        self._plan_fresh_stalls = fresh_stalls
        return m

    # ------------------------------------------------------------------ #
    # the designated drain                                               #
    # ------------------------------------------------------------------ #

    def drain_stretch(
        self,
        order: List[Tuple[float, int, int]],
        idx: int,
        i: int,
        cycle: float,
        data_end: float,
        total_bytes: int,
        stall: float,
        sc: float,
        seq: int,
        prev_walk: Optional[WalkInfo],
    ) -> Tuple[
        int, float, float, int, float, float, int,
        int, int, int, bool, int, WalkInfo, int, int, int, int, int,
    ]:
        """Retire the planned bucket in one pass (the only consumer of the
        ``cal_*`` columns) and return the runner's updated segment state.

        Returns ``(i, cycle, data_end, total_bytes, stall, sc, seq, vpn,
        tkey, j, run_streamable, rc, walk, levels, m, pages, stall_events,
        fresh_stalls)`` — the last four feeding the runner's deferred
        counters.
        """
        m = self._plan_m
        pages = self._plan_pages
        window_walks = self._plan_window_walks
        window_walkers = self._plan_window_walkers
        W = len(window_walks)
        dur = self._plan_dur
        walk_of = self._walk_of
        vpn_arr = self._vpn_arr
        completion_of = self._completion_of
        tlb_sets = self._tlb_sets
        set_mask = self._tlb_set_mask
        tlb_insert = self._tlb_insert
        asid = self.asid
        ready_col = self.cal_ready
        walker_col = self.cal_walker
        seq_col = self.cal_seq
        boundary = m - W
        lim = W if W < m else m

        # Busy-set ownership transfers: each retired foreign walk's walker
        # restarts under our ASID (quota-bound regimes were validated to
        # stay under quota, so this also fires in mixed quota windows).
        if self._plan_policied:
            my_busy = self._plan_my_busy
            assert my_busy is not None
            busy_by_asid = self._busy_by_asid
            for walker, done_walk in zip(
                window_walkers[:lim], window_walks[:lim]
            ):
                if done_walk.asid != asid:
                    other_busy = busy_by_asid.get(done_walk.asid)
                    if other_busy is not None:
                        other_busy.discard(walker)
                    my_busy.add(walker)

        # Retired-walk runs in retire order: the first ``lim`` window
        # walks (transactions 0..lim-1, grouped by object adjacency),
        # then each planned run's own walk as its redundant restarts
        # complete (transactions a+W..b+W, clipped to the stretch).
        retire_runs: List[Tuple[WalkInfo, int, int]] = []
        t = 0
        while t < lim:
            wobj = window_walks[t]
            t2 = t + 1
            while t2 < lim and window_walks[t2] is wobj:
                t2 += 1
            retire_runs.append((wobj, t, t2))
            t = t2
        for pkey, pvpn, pwalk, a, b, pend, pstream in pages:
            if a >= boundary:
                break
            retire_runs.append((pwalk, a + W, b + W if b < boundary else m))

        # TLB inserts: replay the per-event sequence — within one page's
        # transaction span consecutive retirements of the same walk
        # object collapse to one insert (``prev_walk`` dedup), the dedup
        # resets at each page change, and a present set-MRU same-PFN
        # refill is elided as a state no-op.
        ri = 0
        n_runs = len(retire_runs)
        for page_index, (pkey, pvpn, pwalk, a, b, pend, pstream) in enumerate(
            pages
        ):
            prev = prev_walk if page_index == 0 else None
            while ri < n_runs:
                wobj, rlo, rhi = retire_runs[ri]
                if rlo >= b:
                    break
                if wobj is not prev:
                    dkey = wobj.vpn | (wobj.asid << ASID_SHIFT)
                    dset = tlb_sets[dkey & set_mask]
                    if not (
                        dset
                        and next(reversed(dset)) == dkey
                        and dset[dkey] == wobj.pfn
                    ):
                        tlb_insert(wobj.vpn, wobj.pfn, wobj.asid)
                    prev = wobj
                if rhi <= b:
                    ri += 1
                else:
                    break  # the retire run continues into the next page

        pts_by_vpn = self._pts_by_vpn
        final_ready = ready_col + dur
        if boundary >= 0:
            # Full-window retirement: window pages drain completely;
            # pages fully retired inside the stretch net out to nothing
            # (their keys are created and then deleted); only the final
            # in-flight window's pages survive, in lead order — the same
            # surviving-key dict order the per-event path produces.
            for dkey in self._plan_window_keys:
                del pts_by_vpn[dkey]
            for pkey, pvpn, pwalk, a, b, pend, pstream in pages:
                lo = a if a > boundary else boundary
                if lo >= b:
                    continue
                in_flight: List[int] = []
                for t in range(lo, b):
                    walker = window_walkers[t % W]
                    in_flight.append(walker)
                    walk_of[walker] = pwalk
                    vpn_arr[walker] = pvpn
                    completion_of[walker] = float(final_ready[t])
                pts_by_vpn[pkey] = in_flight
            # Calendar suffix: exactly the final W in-flight completions,
            # in ready order (the closed form appends monotonically).
            del order[idx:]
            tail_ready = final_ready[boundary:].tolist()
            tail_seq = seq_col[boundary:].tolist()
            tail_walkers = walker_col[boundary:].tolist()
            for ready_t, seq_t, walker_t in zip(
                tail_ready, tail_seq, tail_walkers
            ):
                order.append((float(ready_t), seq + seq_t, walker_t))
        else:
            # Partial-window retirement (m < W): the first m window walks
            # retire one-per-transaction while the window suffix stays in
            # flight; replay the per-transaction PTS/scoreboard ops
            # exactly (bounded by the window width, so this stays cheap).
            # The replay reproduces transient-empty deletions, so a key
            # that drains and refills moves to the dict tail exactly when
            # the per-event path would move it.
            ready_list = final_ready.astype(np.float64).tolist()
            pg = 0
            pg_key, pg_vpn, pg_walk = pages[0][0], pages[0][1], pages[0][2]
            pg_b = pages[0][4]
            for t in range(m):
                wobj = window_walks[t]
                walker = window_walkers[t]
                dkey = wobj.vpn | (wobj.asid << ASID_SHIFT)
                lst = pts_by_vpn[dkey]
                lst.remove(walker)
                if not lst:
                    del pts_by_vpn[dkey]
                if t >= pg_b:
                    pg += 1
                    nxt_page = pages[pg]
                    pg_key, pg_vpn, pg_walk = (
                        nxt_page[0], nxt_page[1], nxt_page[2]
                    )
                    pg_b = nxt_page[4]
                slst = pts_by_vpn.get(pg_key)
                if slst is None:
                    slst = pts_by_vpn[pg_key] = []
                slst.append(walker)
                walk_of[walker] = pg_walk
                vpn_arr[walker] = pg_vpn
                completion_of[walker] = ready_list[t]
            del order[idx:idx + m]
            for t, ready_t in enumerate(ready_list):
                order.append((ready_t, seq + t + 1, window_walkers[t]))
        self.cal_cursor = m

        # Channel table: under the validated no-queueing hypothesis only
        # the last transaction per channel is observable.
        ch = self._plan_ch
        finish = self._plan_finish
        channel_free = self._channel_free
        for c in range(self._n_channels):
            idxs = np.flatnonzero(ch == c)
            if idxs.size:
                channel_free[c] = float(finish[int(idxs[-1])])
        mx_done = float(finish.max()) + self._mem_latency
        if mx_done > data_end:
            data_end = mx_done
        total_bytes += self._plan_bytes

        # Stall accumulation: the first increment is the reference's one
        # float op for the lead stall; every later increment is integral
        # and the accumulators were validated integral, so the telescoped
        # remainder is exact regardless of association.
        d0 = self._plan_heads0 - cycle
        rest = float(
            int(ready_col[-1]) - int(ready_col[0]) - (m - 1) * self._interval_int
        )
        sc += d0
        sc += rest
        stall += d0
        stall += rest
        cycle = float(ready_col[-1]) + self._interval

        # Runner segment state at the stretch end.
        last_key, last_vpn, last_walk, a, b, last_end, last_stream = pages[-1]
        return (
            i + m, cycle, data_end, total_bytes, stall, sc, seq + m,
            last_vpn, last_key, last_end, last_stream, self._plan_rc,
            last_walk, self._plan_levels, m, len(pages),
            self._plan_stall_events, self._plan_fresh_stalls,
        )
