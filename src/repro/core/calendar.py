"""Batched walker-completion calendar for the engine's translate loops.

The FIFO path (:meth:`TranslationEngine._run_burst_fifo`)
already collapses the per-walk ``heappush``/``heappop`` pair into a cursor
over one sorted snapshot, but its loop still takes one stall, one
retirement and one walk start or hit per transaction once the tenant's
walkers are all busy; the batched kernel
(:meth:`TranslationEngine._run_burst_kernel`) still takes one leading
step, one merge segment and one retirement per page on a PRMB machine.
This module batches that per-event work.  Every walk in a planned
stretch has the same latency class (``levels * walk_latency_per_level``),
so completions are FIFO and the whole event sequence is *closed form*.
Two regimes cover the two states in which the FIFO path's gate finds
the issue port blocked, and a third the PRMB kernel's fresh pages:

* **Chain** (blocked at a *fresh* page, no walk of it in flight).  Each
  transaction stalls until the window's head walk completes, retires it
  and restarts the same walker for its own page, so the calendar evolves
  as ``W`` interleaved arithmetic progressions with common step ``dur``:

      ``C(t) = heads[t mod W] + (t // W) * dur``

  A stretch crosses same-page run boundaries and ends where a run is
  longer than ``W`` (its transaction ``W`` would retire the run's own
  first walk: the TLB flip).  It may retire only a prefix of the window
  (``m < W``) when the miss cluster ends before the window wraps.
* **Cadence** (blocked at a *flip*: the tenant's in-flight walks are
  exactly ``W`` walks of the current page, started at consecutive issue
  slots).  This is the baseline IOMMU's redundant-walk pattern (Section
  III-C, Figure 8) on a streak of fresh pages whose runs are longer than
  ``W``.  Page ``k`` entered at cycle ``a_k`` issues ``W`` walk starts at
  ``a_k .. a_k + W - 1`` (while the previous run was shorter than
  ``2W``, each start first retires one of its redundant walks), stalls
  until ``a_k + dur``, fills the TLB, and issues its remaining
  ``L_k - W`` transactions as hits while its redundant walks retire, so
  ``a_{k+1} = a_k + dur + (L_k - W)``.  The stretch ends at a
  later page's flip stall, the FIFO path's state at entry.
* **Merge streak** (a PRMB machine without a path cache, under full
  sharing, at a leading step whose page is in neither the TLB nor the
  PTS, with a walker free).  This is NeuMMU's own regime (Section IV,
  Figures 10-11): each fresh page costs one walk plus merges.  Over a
  streak of fresh, mapped pages of one walk latency whose runs fit the
  PRMB (``L_k - 1 <= prmb_slots``) and end before their own walk
  (``L_k - 1 < dur``), page ``k`` starts its walk at
  ``a_k = c + sum(L_k' for k' < k)``, the walk completes at
  ``r_k = a_k + dur`` and the page's ``p``-th transaction is released at
  ``r_k + p``.  At each lead the walks due by ``a_k`` retire first (the
  heap's earlier walks and the streak's own, merged by ``(ready, seq)``),
  then the page pops its walker LIFO.  The streak ends at a lead with no
  walker free, a recurring, resident, in-flight or faulting page, a
  change of latency class, a run too long for the PRMB or its walk, a
  queued channel, the exactness bound or ``_STRETCH_CAP``.  Walks due
  after the last lead stay in flight for the kernel's next retirement,
  as its merge segments leave them.

The chain and the cadence plan against the tenant's *own window*: the
in-flight walks that retire inside the stretch.  Every other in-flight
walk must belong to another tenant and complete after the stretch's last
event (the stretch is capped before the first such completion), so those
walks are inert: the other tenants' busy sets, the TLB and the PTS see
nothing of them.  ``W`` is then the own-busy count at which the FIFO path's
startable predicate turns false while the other tenants' state is
fixed: the pool minus the foreign-held walkers under full sharing, the
quota under a hard partition, the quota plus the borrowable slack under
``weighted``.
A regime plans only when one retirement re-opens a start and the restart
closes it again.  Under full sharing a chain window may also hold
another tenant's walks that complete within one walk latency of the
head: without busy sets a retired walker restarts for this tenant
whoever held it.

Each stretch is validated against every interaction point the FIFO path's
loop would honour — recurrence, residency, fault, latency class, the
other tenants' first completion, ``_STRETCH_CAP`` — and retired as one
bucket.  A memory channel still busy with another tenant's transfers
(or the stretch's own) is no interaction point: walks never use the
channels and the FIFO path's issue and stall timing never reads them, so
queueing changes only each transfer's finish, which the plan computes
exactly (:func:`_channel_finish`).  The merge streak needs no window:
under full sharing the other tenants' walks are simply earlier walks of
the heap, retired in order at the leads, and every walker count it
needs is checked lead by lead.

Bit-identity contract
---------------------
The drain leaves exactly the state the per-event loop would: the TLB
state its ``TLB.insert`` calls leave (the same entries in the same LRU
and per-tenant recency order; stamp renumbering stays monotone), the
page's hits as bulk counts, the same PTS map contents and dict key
order, the same walker ids (the free list's LIFO pops and appends
replayed), the same busy-set and channel final states, and the same
float values for every observable timing quantity.

*The fill sequence.*  The per-event loop fills the TLB at each walk
retirement, except that consecutive retirements of one walk object within
a page's transactions collapse to one fill (``prev_walk``) and a refill of
the MRU key with the same PFN is elided; both make a page's redundant
retirements no-ops.  A chain stretch retires the window walks first, which
the drain replays per pair with that dedup and elision (at most ``W``).
Then every planned page whose restarts complete inside the stretch (``a <
m - W``) fills exactly once, at its first retirement: its walk differs
from the one retired before it, and its page is fresh.  Its retire run may
straddle into the next issuing page, where the dedup resets; that refill
finds the key just filled MRU with the same PFN, so it is elided.  A
cadence fills each of its completed pages once, at its first retirement.
The page scan takes no resident or repeated page, so each drain hands
those fresh, distinct pages to one :meth:`TLB.insert_many`, which leaves
the state ``insert`` per page leaves and applies them as one state
transition where it can.

*Exactness.*  Every cycle the FIFO path computes in a stretch is the entry
cycle ``c`` plus an integer (one issue per cycle, an integral walk
latency, which :class:`~repro.core.mmu.MMUConfig` and
:class:`~repro.core.ptw.WalkerPool` check at construction, and window
completions verified to be ``c`` plus integers).  ``c`` is a
multiple of ``1/den`` for a power of two ``den`` (1 when integral), so
``c + k`` is exactly representable for every integer ``k >= 0`` with
``c + k < 2**53 / den``: below the end of ``c``'s binade when ``c`` uses
its full mantissa, below ``2**53`` when it is an integer
(:func:`_exact_limit`).  A stretch stays below that bound, so each
per-event ``+ 1``, ``+ dur`` and ``retry - cycle`` is exact and
equals the closed form's value.  The stall accumulators take the
reference's one float operation for the entry stall and then only
integral increments; they too must stay below their own bound, so the
telescoped sums are reassociation-free.  Derived values (hit release
``cycle + tlb latency``, channel finish ``start + size / bandwidth``)
are computed by the same float operation on the same operands.  A
transfer starts at its release, or at its channel's previous finish when
that is later, so through a backlog each finish is the previous finish
plus one transfer time: ``np.cumsum`` over ``[finish, s_k, s_k+1, ...]``
performs exactly those sequential additions
(``tests/test_calendar.py::TestRunningSum`` pins it), and a channel that
queues again after a backlog clears takes the reference's own loop.
The merge streak has no stall at all: its leads, walk completions and
releases are ``c`` plus the integers ``a_k``, ``a_k + dur`` and ``a_k +
dur + p``, each page's largest offset is at most ``end_k - i + dur -
1``, and the scan stops before that reaches the room.
A streak's releases rise by at least one cycle per transaction, so a
transfer can only queue behind a channel still busy at entry or behind
its nearest same-channel predecessor within the longest transfer time;
the plan checks exactly those, and the drain writes each channel's last
finish.
``tests/test_calendar.py`` differential-fuzzes the calendar against the
per-event path; the figure-level golden diffs enforce it end to end.

Retirement discipline
---------------------
Calendar buckets may only be consumed through :meth:`drain_stretch` or,
for the merge streak, :meth:`drain_streak` (the designated drains,
mirroring the epoch-bump discipline): the ``cal_*`` bucket columns are
written only by the planners and drains, and the simlint rule
``cyc-calendar-retire`` enforces that statically.

Counts
------
Each calendar counts its attempts, plans and drained transactions per
regime (chain, cadence, streak), the drained chain and cadence transfers
that waited for their channel (``queued``) and its declines by reason
(:data:`DECLINE_REASONS`).  They are observation only: no simulation
path reads them.  A FIFO path's calendar only chains and cadences; a
PRMB kernel's only plans streaks.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..memory.address import ASID_SHIFT
from ..memory.dram import MainMemory
from .mmu import MMU
from .stream import TransactionStream
from .tlb import TLB
from .walk_info import WalkInfo

#: Planned-stretch hard cap (bounds planning arrays and drain latency).
_STRETCH_CAP = 8192

#: First validation chunk: quota-bound regimes plan short stretches every
#: few pages (a recurring page or another tenant's next completion ends
#: them), so the candidate arrays start small and only extend to the full
#: cap when the page scan actually gets there.
_FIRST_CHUNK = 256

#: Minimum worthwhile stretch, in transactions (below this the per-plan
#: NumPy setup outweighs the per-transaction savings).
_MIN_STRETCH = 12

#: Minimum worthwhile merge streak, in pages: its per-plan setup (the
#: supply and channel checks, the final walker, PTS and channel writes)
#: outweighs the saving of a few pages, as in the four-page stretches
#: between stalls of RNN-2 on an 8-walker pool.
_MIN_STREAK_PAGES = 6

#: Why a plan declined, the keys of :attr:`CompletionCalendar.declines`:
#: ``short`` — the page scan (recurrence, residency, fault, latency
#: class, a run no longer than the window, a run too long for the PRMB)
#: ends the stretch too early; ``window`` — the in-flight walks are not a
#: window the regime models (for the streak: a lead finds no walker
#: free too early);
#: ``exact`` — a cycle or stall sum would leave the exactly representable
#: range;
#: ``horizon`` — another tenant's walk completes too soon; ``channel`` —
#: a memory channel would queue too soon (the merge streak only: the
#: chain and the cadence compute a queued channel's finishes).
DECLINE_REASONS = ("short", "window", "exact", "horizon", "channel")

_INF = float("inf")

#: One planned same-page run of the chain regime: ``(tkey, vpn, walk, a,
#: b, run_end, streamable)`` with ``[a, b)`` the transaction span relative
#: to the stretch base and ``run_end`` the run's true end index.
_PlannedRun = Tuple[int, int, WalkInfo, int, int, int, bool]

#: One page of a cadence stretch: ``(tkey, vpn, walk, length, run_end,
#: streamable, rc)``.  ``length`` is the page's transactions inside the
#: stretch (hits only for the entry page, its whole run for the others)
#: and ``rc`` the FIFO path's cursor into ``stream.runs`` at the page.
_CadencePage = Tuple[int, int, WalkInfo, int, int, bool, int]

#: A fresh run a stretch may take: ``(tkey, vpn, walk, run_end,
#: streamable, rc)``.
_Run = Tuple[int, int, WalkInfo, int, bool, int]


def _exact_limit(x: float) -> float:
    """Bound below which ``x + k`` is exact for every integer ``k >= 0``.

    ``x`` is ``num / den`` with ``den`` a power of two, so ``x + k`` is
    ``(num + k * den) / den``: representable while the numerator stays
    below ``2**53``.
    """
    return float(1 << 53) / x.as_integer_ratio()[1]


def _channel_finish(release: Any, cost: Any, ch: Any,
                    channel_free: List[float], n_ch: int) -> Tuple[Any, int]:
    """The finish column of a stretch's transfers, and how many queued.

    Transaction ``t`` is released at ``release[t]`` to channel ``ch[t]``
    and holds it for ``cost[t]`` cycles.  The reference starts it at
    ``max(release, free)``, ``free`` being its channel's previous finish
    (``channel_free`` for the first), and finishes it at ``start +
    cost``.  Per channel, one vectorized comparison finds the first
    transfer released before its predecessor's finish.  From there the
    channel is backlogged: each finish is the previous one plus the
    transfer's cost, a running sum (``np.cumsum`` adds one term at a
    time, the reference's own additions), until a release comes after
    its predecessor's finish.  Free flow then holds up to the next
    transfer the first comparison found late, if any; a channel with a
    second backlog (a tenant's own transfers queueing page after page)
    takes the reference loop from there, since its many short backlogs
    would each cost a few NumPy calls.  The recurrence is causal: any
    prefix of the column is exact.
    """
    finish = release + cost
    queued = 0
    for c in range(n_ch):
        idxs = np.flatnonzero(ch == c)
        if not idxs.size:
            continue
        r = release[idxs]
        f = finish[idxs]
        pred = np.empty(idxs.size)
        pred[0] = channel_free[c]
        pred[1:] = f[:-1]
        late = np.flatnonzero(r < pred)
        if not late.size:
            continue
        k = int(late[0])
        s = cost[idxs[k:]]
        acc = np.cumsum(np.concatenate(((pred[k],), s)))
        free_again = np.flatnonzero(r[k + 1:] > acc[1:-1])
        end = k + 1 + int(free_again[0]) if free_again.size else idxs.size
        queued += int(np.count_nonzero(r[k:end] < acc[:end - k]))
        f[k:end] = acc[1:end - k + 1]
        again = int(np.searchsorted(late, end))
        if again < late.size:
            k = int(late[again])
            prev = float(f[k - 1])
            out = []
            for r_t, s_t in zip(r[k:].tolist(), cost[idxs[k:]].tolist()):
                if r_t < prev:
                    prev += s_t
                    queued += 1
                else:
                    prev = r_t + s_t
                out.append(prev)
            f[k:] = out
        finish[idxs] = f
    return finish, queued


class CompletionCalendar:
    """Cycle-indexed completion calendar for one address space.

    Binds the same stable structures the FIFO path and the kernel
    read (walker arrays, TLB entries, PTS map, channel table) once at
    construction; each :meth:`plan_stretch` validates a chain or cadence
    stretch and fills the bucket columns, and :meth:`drain_stretch` — the
    only consumer of those columns — applies the whole bucket to
    simulator state.  :meth:`plan_streak` and :meth:`drain_streak` are
    the same pair for the PRMB kernel's merge streak.
    """

    __slots__ = (
        "asid", "_walk_of", "_vpn_arr", "_completion_of",
        "_free_list", "_pts_by_vpn", "_tlb_set", "_tlb", "_tlb_insert",
        "_resolvers", "_walk_latency", "_tlb_latency",
        "_vpn_shift", "_channel_free", "_n_channels", "_ch_bw",
        "_mem_latency",
        "_mmu", "_pool", "_pts", "_heap", "_buffers", "_prmb_slots",
        "cal_ready", "cal_walker", "cal_seq", "cal_ends", "cal_offsets",
        "_plan_cadence", "_plan_base", "_plan_m", "_plan_pages",
        "_plan_window_walks",
        "_plan_window_walkers", "_plan_window_keys", "_plan_inert",
        "_plan_head", "_plan_dur", "_plan_levels", "_plan_ch",
        "_plan_finish", "_plan_queued", "_plan_bytes", "_plan_rc",
        "_plan_rest",
        "_plan_stall_events", "_plan_fresh_stalls", "_plan_hits",
        "_plan_peak", "_plan_stream", "_channel_info",
        "chain_attempts", "chain_plans", "chain_drained",
        "cadence_attempts", "cadence_plans", "cadence_drained",
        "streak_attempts", "streak_plans", "streak_drained", "queued",
        "declines",
    )

    def __init__(self, mmu: MMU, memory: MainMemory, asid: int) -> None:
        pool = mmu.pool
        pts = mmu.pts
        tlb = mmu.tlb
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        self.asid = asid
        self._walk_of = pool._walk_of
        self._vpn_arr = pool._vpn
        self._completion_of = pool._completion_of
        self._free_list = pool._free
        self._pts_by_vpn = pts._by_vpn
        self._tlb_set = tlb._set
        self._tlb_insert = tlb.insert
        self._tlb = tlb
        self._resolvers = mmu._resolvers
        self._walk_latency = pool.walk_latency_per_level
        self._tlb_latency = mmu._tlb_latency
        self._vpn_shift = mmu._vpn_shift
        mem_cfg = memory.config
        self._channel_free = memory._channel_free
        self._n_channels = mem_cfg.channels
        self._ch_bw = mem_cfg.channel_bandwidth
        self._mem_latency = mem_cfg.access_latency_cycles
        self._mmu = mmu
        self._pool = pool
        self._pts = pts
        self._heap = pool.heap
        self._buffers = pool._buffers
        self._prmb_slots = pool.prmb_slots
        empty = np.zeros(0, dtype=np.int64)
        self.cal_ready = empty
        self.cal_walker = empty
        self.cal_seq = empty
        self.cal_ends: List[int] = []
        self.cal_offsets: List[int] = []
        self._plan_cadence = False
        self._plan_base = 0.0
        self._plan_m = 0
        self._plan_pages: List[Any] = []
        self._plan_window_walks: List[WalkInfo] = []
        self._plan_window_walkers: List[int] = []
        self._plan_window_keys: Dict[int, int] = {}
        self._plan_inert: List[Tuple[float, int, int]] = []
        self._plan_head = 0.0
        self._plan_dur = 0
        self._plan_levels = 0
        self._plan_ch: Any = None
        self._plan_finish: Any = None
        self._plan_queued = 0
        self._plan_bytes = 0
        self._plan_rc = 0
        self._plan_rest = 0
        self._plan_stall_events = 0
        self._plan_fresh_stalls = 0
        self._plan_hits = 0
        self._plan_peak = 0
        self._plan_stream: Optional[TransactionStream] = None
        self._channel_info: Optional[
            Tuple[TransactionStream, Tuple[List[int], int, int]]
        ] = None
        self.chain_attempts = 0
        self.chain_plans = 0
        self.chain_drained = 0
        self.cadence_attempts = 0
        self.cadence_plans = 0
        self.cadence_drained = 0
        self.streak_attempts = 0
        self.streak_plans = 0
        self.streak_drained = 0
        self.queued = 0
        self.declines: Dict[str, int] = dict.fromkeys(DECLINE_REASONS, 0)

    # ------------------------------------------------------------------ #
    # counts (observation only)                                          #
    # ------------------------------------------------------------------ #

    def counts(self) -> Dict[str, int]:
        """The calendar's counts as one flat mapping."""
        out = {
            "chain_attempts": self.chain_attempts,
            "chain_plans": self.chain_plans,
            "chain_drained": self.chain_drained,
            "cadence_attempts": self.cadence_attempts,
            "cadence_plans": self.cadence_plans,
            "cadence_drained": self.cadence_drained,
            "streak_attempts": self.streak_attempts,
            "streak_plans": self.streak_plans,
            "streak_drained": self.streak_drained,
            "queued": self.queued,
        }
        for reason, count in self.declines.items():
            out["decline_" + reason] = count
        return out

    def _decline(self, reason: str) -> None:
        self.declines[reason] += 1

    # ------------------------------------------------------------------ #
    # shared validation                                                  #
    # ------------------------------------------------------------------ #

    def _window(
        self,
        order: List[Tuple[float, int, int]],
        idx: int,
        W: int,
        own_only: bool,
        policied: bool,
        my_quota: Optional[int],
        work_conserving: bool,
        others: Sequence[Tuple[int, Set[int]]],
    ) -> Optional[float]:
        """Validate ``order[idx:idx + W]`` as a stretch's window; return
        the horizon, the first completion after the window (infinity
        when there is none), or None after counting a decline.

        With ``own_only`` every window walk is the tenant's own.  Every
        walk after the window must be another tenant's (it is inert until
        the horizon).  One own retirement must re-open a walk start: the
        blocked caller holds ``W`` own walks, and after one retires it
        holds ``W - 1`` with one more free walker.  The restart then
        returns to the blocked state, and a start with fewer own walks
        and more free walkers is startable too, so ``W`` is the
        threshold of the FIFO path's startable predicate.
        """
        asid = self.asid
        walk_of = self._walk_of
        live = len(order) - idx
        if W > live:
            self._decline("window")
            return None
        if own_only:
            for entry in order[idx:idx + W]:
                wk = walk_of[entry[2]]
                if wk is None or wk.asid != asid:
                    # Another tenant's walk completes among our own.
                    self._decline("horizon" if wk is not None else "window")
                    return None
        for entry in order[idx + W:]:
            wk = walk_of[entry[2]]
            if wk is None or wk.asid == asid:
                self._decline("window")
                return None
        if policied and my_quota is not None and W - 1 >= my_quota:
            reserved_unmet = 0
            for other_quota, other_busy in others:
                shortfall = other_quota - len(other_busy)
                if shortfall > 0:
                    reserved_unmet += shortfall
            if not work_conserving or len(self._free_list) < reserved_unmet:
                self._decline("window")
                return None
        return order[idx + W][0] if W < live else _INF

    @staticmethod
    def _rooms(
        cycle: float, d0: float, sc: float, stall: float
    ) -> Tuple[float, float]:
        """Exactness rooms: how far the stretch's cycles may rise above
        the entry ``cycle``, and how much integral stall the accumulators
        may take after the entry stall ``d0``."""
        sc1 = sc + d0
        stall1 = stall + d0
        return _exact_limit(cycle) - cycle, min(
            _exact_limit(sc1) - sc1, _exact_limit(stall1) - stall1
        )

    def _fresh_runs(
        self,
        va_list: List[int],
        runs: List[Tuple[int, bool]],
        nxt: int,
        rc: int,
        seen: Set[int],
        levels: int,
    ) -> Iterator[_Run]:
        """The same-page runs from ``nxt`` on, each starting where the last
        ended, while a stretch may take them: a page not yet in the
        stretch (``seen``, which each yielded page joins), not resident,
        mapped, and in the stretch's latency class.  Stops at the stream's
        end or at any interaction point.  Each page is read from
        ``va_list`` at its run's start as the run is reached: nothing is
        precomputed per stream, whose runs may each hold one transaction
        (an embedding gather)."""
        n = len(va_list)
        vpn_shift = self._vpn_shift
        asid_bits = self.asid << ASID_SHIFT
        tlb_set = self._tlb_set
        resolver = self._resolvers[self.asid]
        cache = resolver._cache
        while nxt < n:
            nvpn = va_list[nxt] >> vpn_shift
            nkey = nvpn | asid_bits
            if nkey in seen or nkey in tlb_set:
                return
            nwalk = cache.get(nvpn)
            if nwalk is None:
                nwalk = resolver.resolve_vpn(nvpn)
                if nwalk is None:
                    return  # faulting page: the FIFO path faults there
            if nwalk.levels != levels:
                return  # latency class changes: FIFO order not closed form
            while runs[rc][0] <= nxt:
                rc += 1
            nxt, nstream = runs[rc]
            seen.add(nkey)
            yield nkey, nvpn, nwalk, nxt, nstream, rc

    def _plan_channels(
        self, stream: TransactionStream, i: int, release: Any
    ) -> None:
        """Plan the memory side of the stretch of ``stream`` from ``i``
        whose transfers are released at ``release``: their channels, exact
        finishes (another tenant's backlog included) and bytes."""
        m = release.shape[0]
        ch = (stream.vas[i:i + m] >> 8) % self._n_channels
        sizes = stream.sizes
        if sizes is None:
            cost = np.full(m, stream.uniform_size / self._ch_bw)
            self._plan_bytes = m * stream.uniform_size
        else:
            cost = sizes[i:i + m] / self._ch_bw
            self._plan_bytes = int(sizes[i:i + m].sum())
        self._plan_ch = ch
        self._plan_finish, self._plan_queued = _channel_finish(
            release, cost, ch, self._channel_free, self._n_channels
        )

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
        my_walkers: Optional[List[int]],
        policied: bool,
        my_quota: Optional[int],
        work_conserving: bool,
        my_busy: Optional[Set[int]],
        others: Sequence[Tuple[int, Set[int]]],
        sc: float,
        stall: float,
    ) -> int:
        """Validate and plan a stretch of ``stream`` starting at the
        blocked transaction ``i`` (whose same-page run ends at ``j``;
        ``rc`` is the FIFO path's cursor into ``stream.runs``); returns its
        length in transactions (0: no stretch applies).

        ``my_walkers`` is the page's PTS entry: None selects the chain
        regime (a fresh page), a list the cadence (a flip).  Caller
        guarantees: the issue port is blocked, all due completions are
        retired and no walkers are poisoned.  Planning mutates nothing
        except the page table's walk memo
        (:meth:`WalkResolver.resolve_vpn` is pure and memoized, so
        resolving ahead of the reference point is unobservable).
        """
        if my_walkers is None:
            self.chain_attempts += 1
            plan = self._plan_chain(
                order, idx, stream, i, j, rc, cycle, vpn, tkey, walk0,
                run_streamable, policied, my_quota, work_conserving,
                my_busy, others, sc, stall,
            )
            if plan is None:
                return 0
            self.chain_plans += 1
            self._plan_cadence = False
        else:
            self.cadence_attempts += 1
            plan = self._plan_cadence_pages(
                order, idx, stream, i, j, rc, cycle, tkey, run_streamable,
                my_walkers, policied, my_quota, work_conserving, others, sc,
                stall,
            )
            if plan is None:
                return 0
            self.cadence_plans += 1
            self._plan_cadence = True
        self.cal_ready = plan[0]
        self.cal_walker = plan[1]
        self.cal_seq = plan[2]
        return self._plan_m

    def _plan_chain(
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
        sc: float,
        stall: float,
    ) -> Optional[Tuple[Any, Any, Any]]:
        """The chain regime: stall, retire the head, restart, per
        transaction, from a fresh page across run boundaries."""
        va_list = stream.va_list
        n = len(va_list)
        asid = self.asid
        live = len(order) - idx
        if live < 2 or n - i < _MIN_STRETCH:
            self._decline("short" if live >= 2 else "window")
            return None
        h0 = order[idx][0]
        if j - i < _MIN_STRETCH:
            # Short page tail: the stretch only reaches _MIN_STRETCH if
            # the next page extends it, which a resident, in-flight, or
            # recurring page never does — pre-bail before the heavy
            # validation (quota-bound regimes hit this on every re-walk
            # of an evicted page tail).
            if j >= n:
                self._decline("short")
                return None
            nkey = (va_list[j] >> self._vpn_shift) | (asid << ASID_SHIFT)
            if (
                nkey == tkey
                or nkey in self._tlb_set
                or nkey in self._pts_by_vpn
            ):
                self._decline("short")
                return None

        # -- latency class of the stretch ---------------------------------
        resolver = self._resolvers[asid]
        if walk0 is None:
            walk0 = resolver._cache.get(vpn)
            if walk0 is None:
                walk0 = resolver.resolve_vpn(vpn)
                if walk0 is None:
                    # Faulting lead: the FIFO path's loop faults there.
                    self._decline("short")
                    return None
        levels = walk0.levels
        dur = levels * self._walk_latency

        # -- the window: every walk completing within one walk latency of
        # the head retires in the stretch (under a policy, exactly the
        # tenant's own walks); the rest must be inert --------------------
        if policied:
            assert my_busy is not None
            W = len(my_busy)
            if W >= 2 and W <= live and order[idx + W - 1][0] - h0 > dur:
                W = 0  # an own walk outside the progression
        else:
            W = bisect_right(order, (h0 + dur, _INF), idx) - idx
        if W < 2:
            self._decline("window")
            return None
        horizon = self._window(
            order, idx, W, policied, policied, my_quota, work_conserving,
            others,
        )
        if horizon is None:
            return None
        window = order[idx:idx + W]

        # -- exact-arithmetic and FIFO-progression guards ------------------
        heads = np.array([entry[0] for entry in window])
        offs = heads - cycle
        offs_int = offs.astype(np.int64)
        if not bool((offs_int == offs).all()) or not bool(
            (cycle + offs_int.astype(np.float64) == heads).all()
        ):
            self._decline("exact")
            return None
        # Circular completion spacing must be at least one cycle, the
        # issue interval: then the issue clock never overruns the next
        # completion, each transaction retires exactly one walk (a stall
        # when the spacing exceeds one cycle, a retire-at-issue on
        # equality), and the restart cycle equals the retire cycle — so
        # the appended ready values follow the closed form in both cases.
        cdiffs = np.empty(W, dtype=np.int64)
        cdiffs[0] = int(offs_int[0]) + dur - int(offs_int[-1])
        cdiffs[1:] = np.diff(offs_int)
        if int(cdiffs.min()) < 1:
            self._decline("window")  # coincident dues
            return None
        # Exactness bounds: ready offsets (the largest planned cycles)
        # and the telescoped stall sums stay exactly representable.
        ready_room, stall_room = self._rooms(cycle, h0 - cycle, sc, stall)

        # -- the horizon and exactness over a lazily extended candidate
        # prefix *before* the page scan (the checks depend only on the
        # closed-form ready column, and bounding the scan by the feasible
        # prefix keeps a near horizon from costing a full scan per plan)
        cap_total = _STRETCH_CAP if n - i > _STRETCH_CAP else n - i
        ready_col: Any = None
        bound = "short"

        def _validate(lim: int) -> int:
            # Returns the feasible prefix length (<= lim) and records
            # which limit bound it.
            nonlocal ready_col, bound
            k = -(-lim // W)
            ready_col = (
                np.arange(k, dtype=np.int64)[:, None] * dur
                + offs_int[None, :]
            ).ravel()[:lim]
            feasible = lim
            bound = "short"
            limits = (
                ("exact", int(np.searchsorted(
                    ready_col + dur, ready_room, "left"
                ))),
                ("exact", int(np.count_nonzero(
                    ready_col - ready_col[0]
                    - np.arange(lim, dtype=np.int64)
                    < stall_room
                ))),
                ("horizon", int(np.searchsorted(
                    cycle + ready_col.astype(np.float64), horizon, "left"
                ))),
            )
            for reason, limit_at in limits:
                if limit_at < feasible:
                    feasible = limit_at
                    bound = reason
            return feasible

        limit = _FIRST_CHUNK if cap_total > _FIRST_CHUNK else cap_total
        cap = _validate(limit)
        if cap < _MIN_STRETCH:
            self._decline(bound)
            return None

        # -- window pages: every window walk is accounted for -------------
        walk_of = self._walk_of
        pts_by_vpn = self._pts_by_vpn
        window_walks: List[WalkInfo] = []
        window_keys: Dict[int, int] = {}
        for entry in window:
            wk = walk_of[entry[2]]
            if wk is None:
                self._decline("window")
                return None
            window_walks.append(wk)
            dkey = wk.vpn | (wk.asid << ASID_SHIFT)
            window_keys[dkey] = window_keys.get(dkey, 0) + 1
        for dkey, cnt in window_keys.items():
            registered = pts_by_vpn.get(dkey)
            if registered is None or len(registered) != cnt:
                self._decline("window")
                return None

        # -- page scan: collect whole same-page runs until an interaction
        # point (recurrence, residency, fault, depth change) --------------
        seen = set(window_keys)
        seen.add(tkey)
        scan = self._fresh_runs(va_list, stream.runs, j, rc, seen, levels)
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
            if stop:
                break
            nxt_run = next(scan, None)
            if nxt_run is None:
                break
            cur_key, cur_vpn, cur_walk, njend, cur_stream, rc = nxt_run
            cur_start, cur_end = cur_end, njend
        if m < _MIN_STRETCH:
            self._decline("short" if m < cap else bound)
            return None

        # -- slice the validated column to the scanned stretch; each
        # restart's transfer is released when its walk completes --------
        ready_col = ready_col[:m]
        walker_col = np.tile(
            np.fromiter((entry[2] for entry in window), np.int64, W),
            -(-m // W),
        )[:m]
        self._plan_channels(
            stream, i, cycle + (ready_col + dur).astype(np.float64)
        )

        # Stall events: transaction t stalls iff its completion spacing
        # strictly exceeds one cycle — on equality it retires the due
        # walk at issue with no stall attempt.  The spacing pattern is
        # periodic in W; a page-lead stall is a "fresh" (PTS-miss) probe.
        stall_flags = np.tile(cdiffs > 1, -(-m // W))[:m]
        stall_flags[0] = True  # the planning point itself is a stall
        stall_events = int(stall_flags.sum())
        fresh_stalls = 0
        for prun in pages:
            if stall_flags[prun[3]]:
                fresh_stalls += 1

        self._plan_base = cycle
        self._plan_m = m
        self._plan_pages = pages
        self._plan_window_walks = window_walks
        self._plan_window_walkers = [entry[2] for entry in window]
        self._plan_window_keys = window_keys
        self._plan_inert = order[idx + W:]
        self._plan_head = h0
        self._plan_dur = dur
        self._plan_levels = levels
        self._plan_rc = rc
        self._plan_rest = int(ready_col[-1]) - int(ready_col[0]) - (m - 1)
        self._plan_stall_events = stall_events
        self._plan_fresh_stalls = fresh_stalls
        self._plan_hits = 0
        return ready_col, walker_col, np.arange(1, m + 1, dtype=np.int64)

    def _plan_cadence_pages(
        self,
        order: List[Tuple[float, int, int]],
        idx: int,
        stream: TransactionStream,
        i: int,
        j: int,
        rc: int,
        cycle: float,
        tkey: int,
        run_streamable: bool,
        my_walkers: List[int],
        policied: bool,
        my_quota: Optional[int],
        work_conserving: bool,
        others: Sequence[Tuple[int, Set[int]]],
        sc: float,
        stall: float,
    ) -> Optional[Tuple[Any, Any, Any]]:
        """The cadence regime: per page, ``W`` walk starts, one stall,
        the fill and the run's remaining transactions as hits, from the
        flip stall of the current page to a later page's flip stall."""
        va_list = stream.va_list
        n = len(va_list)
        W = len(my_walkers)
        walk_of = self._walk_of
        # -- O(1) pre-checks before any NumPy work --------------------------
        if j >= n:
            self._decline("short")
            return None
        walk0 = walk_of[my_walkers[0]]
        if walk0 is None:
            self._decline("window")
            return None
        levels = walk0.levels
        dur = levels * self._walk_latency
        per_page_stall = dur - W
        if per_page_stall <= 0:
            self._decline("window")  # the fill would land before the flip
            return None
        scan = self._fresh_runs(va_list, stream.runs, j, rc, {tkey}, levels)
        first = next(scan, None)
        if first is None or first[3] - j <= W:
            self._decline("short")
            return None

        # -- the own window: exactly this page's walks, at consecutive
        # issue slots, ahead of an inert foreign suffix --------------------
        h0 = order[idx][0]
        horizon = self._window(
            order, idx, W, True, policied, my_quota, work_conserving, others,
        )
        if horizon is None:
            return None
        for t in range(W):
            entry = order[idx + t]
            if (
                entry[2] != my_walkers[t]
                or entry[0] != h0 + t
                or walk_of[entry[2]] is not walk0
            ):
                self._decline("window")
                return None
        d0 = h0 - cycle
        off0 = int(d0) if d0.is_integer() else -1
        ready_room, stall_room = self._rooms(cycle, d0, sc, stall)
        if off0 <= 0 or cycle + float(off0) != h0 or not (
            off0 + (W - 1) < ready_room
        ):
            self._decline("exact")
            return None

        # -- page scan: fresh same-class pages whose runs exceed W, in
        # chunks that grow while every constraint holds over the scanned
        # pages (a plan that another tenant's next completion cuts within
        # its first pages scans only the first chunk).
        h_first = j - i
        pages: List[_CadencePage] = [
            (tkey, walk0.vpn, walk0, h_first, j, run_streamable, rc)
        ]
        total = h_first
        nxt_run: Optional[_Run] = first
        chunk = _FIRST_CHUNK // 4
        while True:
            while nxt_run is not None and total < chunk:
                nkey, nvpn, nwalk, njend, nstream, nrc = nxt_run
                length = njend - pages[-1][4]
                pages.append((nkey, nvpn, nwalk, length, njend, nstream, nrc))
                total += length
                if total >= _STRETCH_CAP:
                    nxt_run = None
                    break
                nxt_run = next(scan, None)
                if nxt_run is not None and nxt_run[3] - njend <= W:
                    nxt_run = None  # a run no longer than W ends the cadence

            # -- closed-form columns over the scanned pages ----------------
            S = len(pages) - 1
            lengths = np.fromiter((p[3] for p in pages), np.int64, S + 1)
            hits = lengths.copy()
            hits[1:] -= W
            # Page k >= 1 enters at a_k (offsets from the entry cycle).
            a = np.empty(S + 1, dtype=np.int64)
            a[0] = off0 - dur
            a[1:] = off0 + np.cumsum(hits[:-1] + dur) - dur
            starts = np.zeros(S + 1, dtype=np.int64)
            starts[1:] = np.cumsum(lengths[:-1])
            M = total
            pos = np.arange(M, dtype=np.int64) - np.repeat(starts, lengths)
            pos[:h_first] += W  # the entry page holds hits only
            is_start = pos < W
            issue = np.repeat(a, lengths) + np.where(
                is_start, pos, dur + (pos - W)
            )
            cyc_f = cycle + issue.astype(np.float64)

            # -- the last page K: every constraint is monotone in K --------
            # A stretch ending at page K's flip holds m_K = starts[K] + W
            # transactions; its largest cycle is the last start's ready.
            m_k = starts[1:] + W
            last_ready = a[1:] + (W - 1) + dur
            limits = (
                ("short", int(np.searchsorted(m_k, _STRETCH_CAP, "right"))),
                ("exact", int(np.searchsorted(
                    last_ready, ready_room, "left"
                ))),
                ("exact", int(np.count_nonzero(
                    np.arange(S, dtype=np.int64) * per_page_stall
                    < stall_room
                ))),
                ("horizon", int(np.searchsorted(
                    m_k, int(np.searchsorted(cyc_f, horizon, "left")),
                    "right",
                ))),
            )
            K = S
            bound = "short"
            for reason, limit_at in limits:
                if limit_at < K:
                    K = limit_at
                    bound = reason
            if K < S or nxt_run is None:
                break
            chunk *= 4
        if K < 1 or int(m_k[K - 1]) < _MIN_STRETCH:
            self._decline(bound)
            return None
        m = int(m_k[K - 1])
        # A walk start's transfer is released when its walk completes, a
        # hit's after the TLB latency.
        self._plan_channels(
            stream, i,
            cyc_f[:m] + np.where(is_start[:m], dur, self._tlb_latency),
        )

        # Walker ids: page k's hits retire its walks in start order onto
        # the free list; the next page's starts first restart the walkers
        # its due retirements free, then pop the rest LIFO.
        walkers = list(my_walkers)
        for h in hits[:K].tolist():
            if h >= W:
                walkers.reverse()
            else:
                walkers = walkers[h:] + walkers[h - 1::-1]
        final_ready = a[K] + dur + np.arange(W, dtype=np.int64)

        pages = pages[:K + 1]
        self._plan_base = cycle
        self._plan_m = m
        self._plan_pages = pages
        self._plan_window_walkers = list(my_walkers)
        self._plan_inert = order[idx + W:]
        self._plan_head = h0
        self._plan_dur = dur
        self._plan_levels = levels
        self._plan_rest = (K - 1) * per_page_stall
        self._plan_stall_events = K
        self._plan_fresh_stalls = 0
        self._plan_hits = int(hits[:K].sum())
        return (
            final_ready,
            np.array(walkers, dtype=np.int64),
            np.arange((K - 1) * W + 1, K * W + 1, dtype=np.int64),
        )

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
        int, int, int, bool, int, WalkInfo, int,
        Tuple[int, int, int, int, int],
    ]:
        """Retire the planned bucket in one pass (the only consumer of the
        ``cal_*`` columns) and return the FIFO path's updated burst state.

        Returns ``(i, cycle, data_end, total_bytes, stall, sc, seq, vpn,
        tkey, j, run_streamable, rc, walk, levels, counts)`` with
        ``counts = (started, fresh_started, stalls, fresh_stalls, hits)``
        feeding the FIFO path's deferred counters (every planned start
        replaces a retired walk, so as many walks retire as start).
        """
        m = self._plan_m
        base = self._plan_base
        if self._plan_cadence:
            self.cadence_drained += m
            tail, started, fresh, last = self._drain_cadence(base, seq)
        else:
            self.chain_drained += m
            tail, started, fresh, last = self._drain_chain(
                order, idx, seq, prev_walk
            )
        # The walks in flight at the stretch end, merged with the inert
        # suffix (every key is distinct, so sorting is pop order).
        inert = self._plan_inert
        order[idx:] = list(heapq.merge(tail, inert)) if inert else tail

        # Channel table: a channel ends free at the finish of its last
        # transaction, queued or not; nothing earlier is observable.
        self.queued += self._plan_queued
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
        # float op for the entry stall; every later increment is integral
        # and the accumulators were validated to stay exact, so the
        # telescoped remainder is exact regardless of association.
        d0 = self._plan_head - cycle
        rest = float(self._plan_rest)
        sc += d0
        sc += rest
        stall += d0
        stall += rest

        last_key, last_vpn, last_walk, last_end, last_stream, last_rc, end = last
        return (
            i + m, base + float(end), data_end, total_bytes, stall, sc,
            seq + started, last_vpn, last_key, last_end, last_stream,
            last_rc, last_walk, self._plan_levels,
            (
                started, fresh, self._plan_stall_events,
                self._plan_fresh_stalls, self._plan_hits,
            ),
        )

    def _drain_chain(
        self,
        order: List[Tuple[float, int, int]],
        idx: int,
        seq: int,
        prev_walk: Optional[WalkInfo],
    ) -> Tuple[
        List[Tuple[float, int, int]], int, int,
        Tuple[int, int, WalkInfo, int, bool, int, int],
    ]:
        m = self._plan_m
        base = self._plan_base
        pages: List[_PlannedRun] = self._plan_pages
        window_walks = self._plan_window_walks
        window_walkers = self._plan_window_walkers
        W = len(window_walks)
        dur = self._plan_dur
        walk_of = self._walk_of
        vpn_arr = self._vpn_arr
        completion_of = self._completion_of
        tlb_set = self._tlb_set
        tlb_insert = self._tlb_insert
        ready_col = self.cal_ready
        walker_col = self.cal_walker
        seq_col = self.cal_seq
        boundary = m - W
        lim = W if W < m else m

        # TLB fills.  Transactions 0..lim-1 retire the window walks,
        # replayed per pair as the per-event loop makes them: within one
        # page's transaction span consecutive retirements of the same walk
        # object collapse to one insert (``prev_walk`` dedup), the dedup
        # resets at each page change, and a present MRU same-PFN refill is
        # elided as a state no-op.
        prev = prev_walk
        pg = 0
        pg_b = pages[0][4]
        for t in range(lim):
            while t >= pg_b:
                pg += 1
                pg_b = pages[pg][4]
                prev = None
            wobj = window_walks[t]
            if wobj is not prev:
                dkey = wobj.vpn | (wobj.asid << ASID_SHIFT)
                if not (
                    tlb_set
                    and next(reversed(tlb_set)) == dkey
                    and tlb_set[dkey] == wobj.pfn
                ):
                    tlb_insert(wobj.vpn, wobj.pfn, wobj.asid)
                prev = wobj
        # Then each planned page whose restarts complete inside the stretch
        # (``a < boundary``) fills exactly once, at its first retirement:
        # its walk differs from the one retired before it and its page is
        # fresh.  Its later retirements are ``prev_walk`` repeats, or, where
        # its retire run straddles into the next issuing page, a refill of
        # the key just filled (MRU with the same PFN, elided).  The
        # page scan made those pages fresh and distinct: one bulk fill.
        filled = [prun[2] for prun in pages if prun[3] < boundary]
        self._tlb.insert_many(
            [pwalk.vpn for pwalk in filled], [pwalk.pfn for pwalk in filled],
            self.asid,
        )

        pts_by_vpn = self._pts_by_vpn
        final_ready = (base + (ready_col + dur).astype(np.float64)).tolist()
        tail: List[Tuple[float, int, int]] = []
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
                    completion_of[walker] = final_ready[t]
                pts_by_vpn[pkey] = in_flight
            # Calendar suffix: exactly the final W in-flight completions,
            # in ready order (the closed form appends monotonically).
            for ready_t, seq_t, walker_t in zip(
                final_ready[boundary:], seq_col[boundary:].tolist(),
                walker_col[boundary:].tolist(),
            ):
                tail.append((ready_t, seq + seq_t, walker_t))
        else:
            # Partial-window retirement (m < W): the first m window walks
            # retire one-per-transaction while the window suffix stays in
            # flight; replay the per-transaction PTS/scoreboard ops
            # exactly (bounded by the window width, so this stays cheap).
            # The replay reproduces transient-empty deletions, so a key
            # that drains and refills moves to the dict tail exactly when
            # the per-event path would move it.
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
                completion_of[walker] = final_ready[t]
            tail = order[idx + m:idx + W]
            for t, ready_t in enumerate(final_ready):
                tail.append((ready_t, seq + t + 1, window_walkers[t]))

        # Runner segment state at the stretch end: the cycle after the
        # last restart.
        last_key, last_vpn, last_walk, a, b, last_end, last_stream = pages[-1]
        end = int(ready_col[-1]) + 1
        return tail, m, len(pages), (
            last_key, last_vpn, last_walk, last_end, last_stream,
            self._plan_rc, end,
        )

    def _drain_cadence(
        self, base: float, seq: int
    ) -> Tuple[
        List[Tuple[float, int, int]], int, int,
        Tuple[int, int, WalkInfo, int, bool, int, int],
    ]:
        pages: List[_CadencePage] = self._plan_pages
        K = len(pages) - 1
        W = len(self._plan_window_walkers)

        # TLB: each completed page's first retirement fills it.  The fill
        # leaves the page MRU (and tenant-MRU with the newest stamp), so
        # its hits only count, and its redundant retirements are no-ops
        # (MRU with the same PFN, or the ``prev_walk`` dedup).
        # The K pages are fresh and distinct (the flip page is not
        # resident, the scan took the rest): one bulk fill.
        tlb = self._tlb
        filled = [page[2] for page in pages[:K]]
        tlb.insert_many(
            [pwalk.vpn for pwalk in filled], [pwalk.pfn for pwalk in filled],
            self.asid,
        )
        tlb.hits += self._plan_hits

        # Every earlier page's walks retire inside the stretch; the last
        # page's W walks are in flight on the replayed walker ids.
        pts_by_vpn = self._pts_by_vpn
        del pts_by_vpn[pages[0][0]]
        last_key, last_vpn, last_walk, length, last_end, last_stream, last_rc = (
            pages[K]
        )
        walkers = self.cal_walker.tolist()
        ready = (base + self.cal_ready.astype(np.float64)).tolist()
        seqs = self.cal_seq.tolist()
        walk_of = self._walk_of
        vpn_arr = self._vpn_arr
        completion_of = self._completion_of
        tail: List[Tuple[float, int, int]] = []
        for walker, ready_t, seq_t in zip(walkers, ready, seqs):
            walk_of[walker] = last_walk
            vpn_arr[walker] = last_vpn
            completion_of[walker] = ready_t
            tail.append((ready_t, seq + seq_t, walker))
        pts_by_vpn[last_key] = walkers
        # The FIFO path resumes blocked at the last page's flip.
        end = int(self.cal_ready[0]) - self._plan_dur + W
        return tail, K * W, K, (
            last_key, last_vpn, last_walk, last_end, last_stream, last_rc,
            end,
        )


    # ------------------------------------------------------------------ #
    # the merge streak (PRMB machines with free walkers)                 #
    # ------------------------------------------------------------------ #

    def _channels_of(
        self, stream: TransactionStream
    ) -> Tuple[List[int], int, int]:
        """``(pairs, used, reach)`` of ``stream``: the indices whose
        memory channel recurs within the previous ``reach`` transactions,
        ``reach`` being the longest transfer in whole cycles, and how many
        channels the stream uses.  Cached for the last stream asked."""
        cached = self._channel_info
        if cached is not None and cached[0] is stream:
            return cached[1]
        n_ch = self._n_channels
        ch = (stream.vas >> 8) % n_ch
        if stream.sizes is None:
            longest = stream.uniform_size
        else:
            longest = int(stream.sizes.max()) if len(stream) else 0
        reach = int(longest / self._ch_bw)
        near = np.zeros(ch.shape[0], dtype=bool)
        for d in range(1, min(reach, ch.shape[0] - 1) + 1):
            near[d:] |= ch[d:] == ch[:-d]
        info = (
            np.flatnonzero(near).tolist(),
            int(np.count_nonzero(np.bincount(ch, minlength=n_ch))),
            reach,
        )
        self._channel_info = (stream, info)
        return info

    def _streak_queue(
        self,
        stream: TransactionStream,
        i: int,
        ends: List[int],
        ready: List[int],
        cycle: float,
    ) -> int:
        """The first transaction of the planned streak whose memory channel
        would queue (the streak's end when none does).

        Transaction ``t`` of page ``k`` (run ``[s_k, ends[k])``) is
        released at ``cycle + ready[k] + (t - s_k)``.  Releases rise by at
        least one cycle per transaction, so ``t`` can only queue behind a
        channel still busy from before the streak, or behind its nearest
        same-channel predecessor in the streak when that lies within
        ``reach`` transactions (a transfer lasts less than ``reach + 1``
        cycles).  Those are exactly the first-queue comparisons of
        :func:`_channel_finish`, restricted to the transactions that can
        fail them.
        """
        va_list = stream.va_list
        size_list = stream.size_list
        n_ch = self._n_channels
        ch_bw = self._ch_bw
        channel_free = self._channel_free
        end = ends[-1]
        bad = end
        busy_until = max(channel_free)
        k = 0
        start = i
        t = i
        while t < end:
            if t >= ends[k]:
                start = ends[k]
                k += 1
            release = cycle + (ready[k] + (t - start))
            if release >= busy_until:
                break
            if release < channel_free[(va_list[t] >> 8) % n_ch]:
                bad = t
                break
            t += 1
        pairs, _, reach = self._channels_of(stream)
        for idx in range(bisect_right(pairs, i), len(pairs)):
            t = pairs[idx]
            if t >= bad:
                break
            c = (va_list[t] >> 8) % n_ch
            for d in range(1, reach + 1):
                p = t - d
                if p < i:
                    break
                if (va_list[p] >> 8) % n_ch != c:
                    continue
                kt = bisect_right(ends, t)
                kp = bisect_right(ends, p)
                rel_t = cycle + (ready[kt] + t - (ends[kt - 1] if kt else i))
                rel_p = cycle + (ready[kp] + p - (ends[kp - 1] if kp else i))
                if rel_t < rel_p + size_list[p] / ch_bw:
                    return t
                break
        return bad

    def plan_streak(
        self, stream: TransactionStream, i: int, j: int, rc: int, cycle: float
    ) -> int:
        """Validate and plan a merge streak of ``stream`` from the leading
        transaction ``i`` (whose same-page run ends at ``j``; ``rc`` is the
        kernel's cursor at that run); returns its length in transactions
        (0: no streak applies).

        Caller guarantees: full sharing, a PRMB machine without a path
        cache, no poisoned walker, every walk due at ``cycle`` retired, a
        free walker, and the page of ``i`` neither in the TLB nor in the
        PTS.  Planning mutates nothing except the page table's walk memo.
        """
        self.streak_attempts += 1
        va_list = stream.va_list
        n = len(va_list)
        asid_bits = self.asid << ASID_SHIFT
        vpn = va_list[i] >> self._vpn_shift
        tkey = vpn | asid_bits
        pts_by_vpn = self._pts_by_vpn
        # O(1) before the scan: a streak needs a next page not yet taken.
        if j >= n:
            self._decline("short")
            return 0
        nkey = (va_list[j] >> self._vpn_shift) | asid_bits
        if (
            nkey == tkey
            or nkey in self._tlb_set
            or nkey in pts_by_vpn
        ):
            self._decline("short")
            return 0
        resolver = self._resolvers[self.asid]
        walk0 = resolver._cache.get(vpn)
        if walk0 is None:
            walk0 = resolver.resolve_vpn(vpn)
            if walk0 is None:
                self._decline("short")  # faulting lead: the kernel raises it
                return 0
        levels = walk0.levels
        dur = levels * self._walk_latency
        # The longest run whose merges all park in its page's one walker
        # and issue before that walk completes: ``L - 1 <= prmb_slots``
        # and ``L - 1 < dur``.
        max_len = dur
        if max_len > self._prmb_slots + 1:
            max_len = self._prmb_slots + 1
        if j - i > max_len:
            self._decline("short")
            return 0
        free = len(self._free_list)
        heap = self._heap
        if free < _MIN_STREAK_PAGES:
            # Walker-short: estimate the walkers free by the lead of page
            # _MIN_STREAK_PAGES - 1 if every page ran as long as this one,
            # and decline before the scan when they fall short.
            horizon = cycle + (_MIN_STREAK_PAGES - 1) * (j - i)
            due_n = 0
            for entry in heap:
                if entry[0] <= horizon:
                    due_n += 1
            if free + due_n < _MIN_STREAK_PAGES:
                self._decline("window")
                return 0
        # Exactness: page ``k``'s largest cycle offset (its last release,
        # or the issue cycle after its run) is at most ``end_k - i + dur -
        # 1``, which must stay below the room.
        top = math.ceil(_exact_limit(cycle) - cycle) - 1
        exact_end = i + top - dur + 1
        if j > exact_end:
            self._decline("exact")
            return 0
        cap_end = i + _STRETCH_CAP
        stop_end = exact_end if exact_end < cap_end else cap_end

        # -- page scan: whole fresh runs of the lead's latency class, each
        # with a walker free at its lead.  The supply is counted lazily:
        # the walks due by a lead (the heap's earlier walks and the
        # streak's own) are retired into the count only when it runs out.
        free -= 1  # the entry lead's walker
        walks: List[WalkInfo] = [walk0]
        ends = [j]
        ready = [dur]  # walk completion offsets from ``cycle``
        peak = j - i
        due_at: Optional[List[float]] = None  # the earlier walks' readies
        n_due = hi = si = 0
        entry_rc = rc
        end = j
        bound = "short"
        for nkey, nvpn, nwalk, njend, nstream, rc in self._fresh_runs(
            va_list, stream.runs, j, rc, {tkey}, levels
        ):
            length = njend - end
            if length > max_len or nkey in pts_by_vpn:
                break
            if njend > stop_end:
                if njend > exact_end:
                    bound = "exact"
                break
            lead = end - i
            if free < 1:
                if due_at is None:
                    due_at = sorted([entry[0] for entry in heap])
                    n_due = len(due_at)
                due = cycle + lead
                while hi < n_due and due_at[hi] <= due:
                    hi += 1
                    free += 1
                while si < len(ready) and ready[si] <= lead:
                    si += 1
                    free += 1
                if free < 1:
                    bound = "window"
                    break
            free -= 1
            if length > peak:
                peak = length
            walks.append(nwalk)
            ends.append(njend)
            ready.append(lead + dur)
            end = njend
        if len(ends) < _MIN_STREAK_PAGES:
            self._decline(bound)
            return 0

        # -- channels: cut the streak before the first queued transfer ---
        queued = self._streak_queue(stream, i, ends, ready, cycle)
        if queued < end:
            K = bisect_right(ends, queued)
            if K < _MIN_STREAK_PAGES:
                self._decline("channel")
                return 0
            del walks[K:], ends[K:], ready[K:]
            end = ends[-1]
            rc = entry_rc  # behind the cut: the kernel's cursor catches up
            peak = max(
                e - s for e, s in zip(ends, [i] + ends[:-1])
            )
        self.streak_plans += 1
        self.cal_ends = ends
        self.cal_offsets = ready
        self._plan_base = cycle
        self._plan_m = end - i
        self._plan_pages = walks
        self._plan_peak = peak
        self._plan_dur = dur
        self._plan_levels = levels
        self._plan_rc = rc
        self._plan_stream = stream
        return end - i

    def drain_streak(
        self, data_end: float, total_bytes: int
    ) -> Tuple[float, float, int, int]:
        """Retire the planned streak in one pass and return the kernel's
        updated ``(cycle, data_end, total_bytes, rc)``.

        Each lead first retires every walk due by its issue cycle, the
        heap's earlier walks and the streak's own merged by ``(ready,
        seq)``, exactly as :meth:`MMU.process_completions` does without a
        path cache or a policy, then pops its walker LIFO.  Walks due
        after the last lead stay in flight for the kernel's next
        retirement, as its merge segments leave them.  Only the final
        state is written back.
        """
        m = self._plan_m
        base = self._plan_base
        dur = self._plan_dur
        walks: List[WalkInfo] = self._plan_pages
        ends = self.cal_ends
        ready = self.cal_offsets
        K = len(walks)
        asid = self.asid
        self.streak_drained += m

        walk_of = self._walk_of
        vpn_arr = self._vpn_arr
        completion_of = self._completion_of
        buffers = self._buffers
        pts_by_vpn = self._pts_by_vpn
        # TLB fills inline (``TLB.insert`` without a policy: full sharing).
        tlb_set = self._tlb_set
        capacity = self._tlb.entries
        heap = self._heap
        heappop = heapq.heappop
        free = self._free_list
        free_append = free.append
        free_pop = free.pop
        asid_bits = asid << ASID_SHIFT
        walkers = [0] * K
        retired = 0  # earlier walks retired (the heap's, popped in order)
        s = 0  # the next streak walk to retire

        for k in range(K):
            lead = ready[k] - dur
            due = base + lead
            while True:
                if s < k and ready[s] <= lead and not (
                    heap and heap[0][0] <= base + ready[s]
                ):
                    # The streak's next walk (an earlier walk with the same
                    # ready retires first: its sequence number is
                    # smaller).  Its page is not in the TLB.
                    free_append(walkers[s])
                    done = walks[s]
                    if len(tlb_set) >= capacity:
                        tlb_set.popitem(last=False)
                    tlb_set[done.vpn | asid_bits] = done.pfn
                    s += 1
                elif heap and heap[0][0] <= due:
                    # The heap's next earlier walk.
                    walker = heappop(heap)[2]
                    gone = walk_of[walker]
                    assert gone is not None
                    buffers[walker]._occupied = 0
                    vpn_arr[walker] = None
                    walk_of[walker] = None
                    free_append(walker)
                    key = gone.vpn | (gone.asid << ASID_SHIFT)
                    registered = pts_by_vpn[key]
                    registered.remove(walker)
                    if not registered:
                        del pts_by_vpn[key]
                    if key in tlb_set:
                        tlb_set.move_to_end(key)
                    elif len(tlb_set) >= capacity:
                        tlb_set.popitem(last=False)
                    tlb_set[key] = gone.pfn
                    retired += 1
                else:
                    break
            walker = free_pop()
            walkers[k] = walker
            completion_of[walker] = base + ready[k]

        # The streak's walks still in flight: walker state, PRMB occupancy,
        # PTS entries in page order (a retired streak page was inserted
        # and deleted, which leaves the dict order alone) and completions.
        pool = self._pool
        seq = pool._seq
        first = ends[-1] - m
        tail: List[Tuple[float, int, int]] = []
        for k in range(s, K):
            walker = walkers[k]
            pwalk = walks[k]
            walk_of[walker] = pwalk
            vpn_arr[walker] = pwalk.vpn
            page_start = ends[k - 1] if k else first
            buffers[walker]._occupied = ends[k] - page_start - 1
            pts_by_vpn[pwalk.vpn | asid_bits] = [walker]
            tail.append((completion_of[walker], seq + k + 1, walker))
        if heap:
            for entry in tail:
                heapq.heappush(heap, entry)
        else:
            heap.extend(tail)  # sorted: a valid heap
        pool._seq = seq + K

        # Bulk counters: every transaction missed the TLB; the leads
        # missed the PTS and started a walk, the rest hit it and merged.
        merges = m - K
        stats = self._mmu.stats
        stats.requests += m
        stats.merges += merges
        self._tlb.misses += m
        pts = self._pts
        pts.lookups += m
        pts.hits += merges
        pts._count += K - retired - s
        pool_stats = pool.stats
        pool_stats.walks += K
        pool_stats.level_accesses += K * self._plan_levels
        prmb_stats = pool.prmb_stats
        prmb_stats.merges += merges
        if self._plan_peak - 1 > prmb_stats.peak_occupancy:
            prmb_stats.peak_occupancy = self._plan_peak - 1

        # Channel table: with no transfer queued, a channel ends free at
        # the finish of its last transaction, and the data phase at the
        # latest finish, which is among the last ``reach + 1``.
        stream = self._plan_stream
        assert stream is not None
        size_list = stream.size_list
        ch_bw = self._ch_bw
        channel_free = self._channel_free
        va_list = stream.va_list
        n_ch = self._n_channels
        _, used, reach = self._channels_of(stream)
        last = ends[-1] - 1
        tail_from = last - reach
        touched: Set[int] = set()
        latest = -_INF
        k = K - 1
        page_start = ends[k - 1] if k else first
        t = last
        while t >= first and (len(touched) < used or t >= tail_from):
            while t < page_start:
                k -= 1
                page_start = ends[k - 1] if k else first
            release = base + (ready[k] + (t - page_start))
            finish = release + size_list[t] / ch_bw
            if t >= tail_from and finish > latest:
                latest = finish
            c = (va_list[t] >> 8) % n_ch
            if c not in touched:
                touched.add(c)
                channel_free[c] = finish
            t -= 1
        done_at = latest + self._mem_latency
        if done_at > data_end:
            data_end = done_at
        if stream.sizes is None:
            total_bytes += m * stream.uniform_size
        else:
            total_bytes += sum(size_list[first:last + 1])
        return (
            base + float(m), data_end, total_bytes,
            self._plan_rc,
        )
