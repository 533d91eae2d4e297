"""Differential fuzz: walker-completion calendar vs the per-event heap.

The batched completion calendar (:mod:`repro.core.calendar`) retires
whole saturated stretches of the FIFO path (PRMB-less, path-cache-less
MMUs) as one planned bucket.  The calendar is unconditional, so the per-event leg (the
heap-based ``WalkerPool`` discipline the calendar replaces) is forced by
patching :meth:`CompletionCalendar.plan_stretch` to decline every plan.
Both paths must be *bit-identical*: same burst results, same
``RunSummary``, same channel state, same TLB contents in LRU order, same
PTS map — across multi-ASID bursts, every QoS policy × arbitration
combo, and mid-segment faults.

Coverage is asserted, not hoped for: the deterministic cases drive both
chain drain disciplines — full-window retirement (``m >= W``, the
qos_sweep regime) *and* partial-window retirement (``m < W``, short
fresh miss clusters on wide walker pools, which the figure sweeps never
reach) — and verify via a drain spy that the calendar actually fired.
The cadence cases (runs longer than the walker window) assert through
the calendar's counts that the cadence drained and that every decline
reason fired.  The queued-channel cases plan the chain and the cadence
behind another tenant's backlogged memory channels and assert that
queued transfers drained; ``TestRunningSum`` pins the running sums
their finishes rest on.
"""

from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import CompletionCalendar, _channel_finish
from repro.core.engine import TranslationEngine
from repro.core.mmu import MMU, MMUConfig, baseline_iommu_config
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.core.stream import TransactionStream
from repro.core.tlb import TLB
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.dram import MainMemory, MemoryConfig
from repro.memory.page_table import PageTable

BASE = 0x7F00_0000_0000
N_PAGES = 256
#: Disjoint never-mapped region used for mid-segment fault injection.
FAULT_BASE = BASE + (1 << 40)

#: No-PRMB design points spanning the calendar's regimes: the paper's
#: 8-walker IOMMU (full-window retirement dominates) and wider pools
#: where short fresh clusters retire partial windows (m < W).
CAL_CONFIGS = [
    baseline_iommu_config(),
    MMUConfig(name="w16", n_walkers=16, prmb_slots=0),
    MMUConfig(name="w32", n_walkers=32, prmb_slots=0),
    replace(baseline_iommu_config(), name="tlb32", tlb_entries=32),
]


def build_table(first_pfn=10):
    table = PageTable()
    table.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=first_pfn)
    return table


# --------------------------------------------------------------------- #
# strategies: streaming segments, not single transactions — the calendar
# only engages on saturated multi-page miss stretches
# --------------------------------------------------------------------- #

#: One streaming segment: (start page, page count, 256 B txns per page).
#: Single-transaction pages outrun the walker pool (the calendar's
#: saturated regime); 16-per-page runs serialize on the in-flight walk
#: and exercise the per-event fallback between stretches.
_segment = st.tuples(
    st.integers(0, N_PAGES - 48),
    st.integers(1, 48),
    st.sampled_from([1, 1, 2, 16]),
)

#: A mid-segment faulting page (never mapped until the handler maps it).
_fault = st.integers(1, 6)

_chunk = st.one_of(_segment, _fault)

_burst = st.lists(_chunk, min_size=1, max_size=6)

#: Schedules interleave up to three address spaces (ASIDs 0, 5, 9).
_schedule = st.lists(
    st.tuples(st.sampled_from([0, 5, 9]), _burst), min_size=1, max_size=4
)

_qos = st.sampled_from(SHARE_POLICIES)


def materialize(burst):
    """Chunks -> (va, size) transactions (streaming 256 B runs).

    Intra-page offsets rotate with the page index so page-head
    transactions stripe across DRAM channels (``(va >> 8) % channels``)
    the way a real DMA tile walk does; a fixed offset would alias every
    head onto one channel and starve the calendar's feasibility check.
    """
    txs = []
    for chunk in burst:
        if isinstance(chunk, int):  # fault page
            txs.append((FAULT_BASE + chunk * PAGE_SIZE_4K, 256))
            continue
        start, pages, per_page = chunk
        pages = min(pages, N_PAGES - start)
        for p in range(start, start + pages):
            base = BASE + p * PAGE_SIZE_4K
            txs.extend(
                (base + ((p + k) % 16) * 256, 256) for k in range(per_page)
            )
    return txs


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #


def _decline(*args, **kwargs):
    return 0


def calendar_mode(calendar_on):
    """Context for one leg: the calendar as built, or every stretch plan
    declined so the runner retires each event on its own."""
    if calendar_on:
        return nullcontext()
    return mock.patch.object(CompletionCalendar, "plan_stretch", _decline)


def run_bursts(calendar_on, config, qos, bursts, memory_config=None,
               before_plan=None):
    """One multi-ASID columnar run of ``(asid, start_cycle, transactions)``
    bursts with the calendar on or declined; returns ``(state, counts)``,
    the counts summed over the engine's calendars.  ``before_plan`` is
    called with the calendar before every plan attempt."""
    patch = calendar_mode(calendar_on)
    if before_plan is not None:
        original = CompletionCalendar.plan_stretch

        def spied(cal, *args, **kwargs):
            before_plan(cal)
            return original(cal, *args, **kwargs)

        patch = mock.patch.object(CompletionCalendar, "plan_stretch", spied)
    with patch:
        cfg = replace(config, qos=qos)
        mmu = MMU(cfg, None)
        tables = {
            0: build_table(first_pfn=10),
            5: build_table(first_pfn=500_000),
            9: build_table(first_pfn=900_000),
        }
        mmu.register_context(0, tables[0], weight=2.0)
        mmu.register_context(5, tables[5], weight=1.0)
        mmu.register_context(9, tables[9], weight=1.5)
        memory = MainMemory(memory_config)
        engine = TranslationEngine(mmu, memory)

        def demand_map(vpn, cycle, asid):
            tables[asid].map_range(
                vpn << 12, PAGE_SIZE_4K,
                first_pfn=2_000_000 + (vpn & 0xFFFF) * 8 + asid,
            )
            mmu.shootdown(vpn, asid)
            return cycle + 2500.0

        engine.fault_handler = demand_map
        results = []
        for asid, start, txs in bursts:
            stream = TransactionStream.from_pairs(txs, PAGE_SIZE_4K)
            results.append(engine.run_burst(stream, start, asid))
        mmu.drain()
        state = {
            "results": results,
            "summary": mmu.summary(),
            "channels": tuple(memory._channel_free),
            "mem": (memory.total_bytes, memory.total_accesses),
            "pts": (mmu.pts.lookups, mmu.pts.hits, mmu.pts.in_flight),
            "tlb": list(mmu.tlb._set.items()),
            "occupancy": dict(mmu.tlb._asid_occupancy),
        }
        counts = {}
        for cal in engine.calendars.values():
            for key, value in cal.counts().items():
                counts[key] = counts.get(key, 0) + value
        return state, counts


def run_calendar_mode(calendar_on, config, qos, schedule):
    """One multi-ASID columnar run with the calendar on or declined."""
    bursts = [
        (asid, float(i * 7), materialize(burst))
        for i, (asid, burst) in enumerate(schedule)
    ]
    return run_bursts(calendar_on, config, qos, bursts)[0]


def assert_modes_identical(config, qos, schedule):
    on = run_calendar_mode(True, config, qos, schedule)
    off = run_calendar_mode(False, config, qos, schedule)
    assert on == off


class _DrainSpy:
    """Records every chain drain's (stretch length m, window width W)."""

    def __init__(self, monkeypatch):
        self.drains = []
        original = CompletionCalendar.drain_stretch
        spy = self

        def wrapped(cal, *args, **kwargs):
            if not cal._plan_cadence:
                spy.drains.append(
                    (cal._plan_m, len(cal._plan_window_walks))
                )
            return original(cal, *args, **kwargs)

        monkeypatch.setattr(CompletionCalendar, "drain_stretch", wrapped)


# --------------------------------------------------------------------- #
# engine-level differential fuzz
# --------------------------------------------------------------------- #


class TestCalendarDifferential:
    @pytest.mark.parametrize("config", CAL_CONFIGS, ids=lambda c: c.name)
    @given(schedule=_schedule, qos=_qos)
    @settings(max_examples=20, deadline=None)
    def test_calendar_matches_heap(self, config, schedule, qos):
        assert_modes_identical(config, qos, schedule)

    @given(schedule=_schedule)
    @settings(max_examples=10, deadline=None)
    def test_mid_segment_faults(self, schedule):
        """Every burst gets a guaranteed mid-segment fault injected."""
        faulted = [
            (asid, burst[: len(burst) // 2] + [3] + burst[len(burst) // 2:])
            for asid, burst in schedule
        ]
        assert_modes_identical(
            baseline_iommu_config(), "static_partition", faulted
        )


# --------------------------------------------------------------------- #
# deterministic retire-discipline coverage
# --------------------------------------------------------------------- #


class TestRetireDiscipline:
    def test_full_window_retirement_fires(self, monkeypatch):
        """Saturated 1-txn/page stream on 8 walkers: bulk (m >= W) drains."""
        spy = _DrainSpy(monkeypatch)
        schedule = [(0, [(0, 200, 1)])]
        state = run_calendar_mode(
            True, baseline_iommu_config(), "full_share", schedule
        )
        assert any(m >= w for m, w in spy.drains), spy.drains
        assert state == run_calendar_mode(
            False, baseline_iommu_config(), "full_share", schedule
        )

    def test_partial_window_retirement_fires(self, monkeypatch):
        """Short fresh cluster on a 32-walker pool: m < W drains.

        One transaction per page exhausts the pool before the first
        completion; the remaining fresh pages form a cluster shorter
        than the in-flight window, driving the partial-drain replay the
        figure sweeps never exercise (the paper's 8-walker IOMMU can
        never see it: W <= 8 < the minimum planning stretch of 12).
        """
        spy = _DrainSpy(monkeypatch)
        config = MMUConfig(name="w32", n_walkers=32, prmb_slots=0)
        schedule = [(0, [(0, 48, 1)])]
        state = run_calendar_mode(True, config, "full_share", schedule)
        assert any(m < w for m, w in spy.drains), spy.drains
        assert state == run_calendar_mode(False, config, "full_share", schedule)


# --------------------------------------------------------------------- #
# the cadence: runs longer than the walker window
# --------------------------------------------------------------------- #

#: Sixteen channels: a 4 KB page's 256 B offsets map one-to-one onto
#: channels, so a transaction at offset 15 never shares a channel with
#: runs at offsets 0..14.
WIDE_MEMORY = MemoryConfig(channels=16)

#: ASID 0's walker quotas on the 8-walker IOMMU among the three
#: registered tenants (weights 2 : 1 : 1.5): 3 under ``static_partition``,
#: 3 plus the borrowable slack (5 while the others are idle) under
#: ``weighted``, 8 under full sharing.  Run lengths W+1..3W for those
#: windows, below and at or above 2W.
_CADENCE_RUNS = [2, 4, 6, 7, 9, 11, 12, 15, 16]


def pages_txs(first, count, per_page, offset=0):
    """``count`` pages from page ``first``, each a streaming run of
    ``per_page`` 256 B transactions from 256 B offset ``offset``."""
    return [
        (BASE + p * PAGE_SIZE_4K + (offset + k) * 256, 256)
        for p in range(first, first + count)
        for k in range(per_page)
    ]


def modes_identical(config, qos, bursts, memory_config=None):
    """Run ``bursts`` with the calendar on and declined; both must be
    bit-identical.  Returns the calendar-on leg's counts."""
    on, counts = run_bursts(True, config, qos, bursts, memory_config)
    off, _ = run_bursts(False, config, qos, bursts, memory_config)
    assert on == off
    return counts


#: Burst start cycles: integral, fractional, and fractional just below a
#: power of two (a stretch from there would leave the base's binade).
_start = st.one_of(
    st.integers(0, 5000).map(float),
    st.tuples(
        st.integers(0, 5000), st.sampled_from([0.25, 0.3, 0.72])
    ).map(lambda t: t[0] + t[1]),
    st.tuples(
        st.sampled_from([1 << 14, 1 << 20]), st.integers(200, 6000),
        st.sampled_from([0.0, 0.3, 0.72]),
    ).map(lambda t: float(t[0] - t[1]) + t[2]),
)

#: One cadence burst: (asid, start, first page, pages, run length), or a
#: single transaction at offset 15 — another tenant's walk in flight on a
#: channel of its own under :data:`WIDE_MEMORY`.
_cadence_burst = st.one_of(
    st.tuples(
        st.sampled_from([0, 0, 5, 9]), _start, st.integers(0, N_PAGES - 60),
        st.integers(2, 60), st.sampled_from(_CADENCE_RUNS),
    ),
    st.tuples(
        st.sampled_from([5, 9]), _start, st.integers(0, N_PAGES - 1),
    ),
)


def cadence_bursts(spec):
    bursts = []
    for burst in spec:
        if len(burst) == 3:
            asid, start, page = burst
            bursts.append((asid, start, pages_txs(page, 1, 1, offset=15)))
        else:
            asid, start, first, count, per_page = burst
            bursts.append((asid, start, pages_txs(first, count, per_page)))
    return bursts


class TestCadence:
    @given(
        spec=st.lists(_cadence_burst, min_size=1, max_size=4),
        qos=_qos,
        wide=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cadence_matches_heap(self, spec, qos, wide):
        """Runs of W+1..3W, fractional and binade-edge starts, other
        tenants' walks in flight and their channels left busy."""
        modes_identical(
            baseline_iommu_config(), qos, cadence_bursts(spec),
            WIDE_MEMORY if wide else None,
        )

    @pytest.mark.parametrize("start", [0.0, 777.25, 1000.3])
    @pytest.mark.parametrize("per_page", [12, 16])
    def test_drains_single_tenant(self, per_page, start):
        """8 walkers, runs of 12 (< 2W) and 16 (2W), integral and
        fractional entry cycles: nearly every transaction drains."""
        counts = modes_identical(
            baseline_iommu_config(), "full_share",
            [(0, start, pages_txs(0, 60, per_page))],
        )
        assert counts["cadence_drained"] >= 50 * per_page, counts

    @pytest.mark.parametrize(
        "qos, per_page",
        [
            ("static_partition", 4), ("static_partition", 7),
            ("static_partition", 9), ("weighted", 6), ("weighted", 10),
            ("weighted", 15),
        ],
    )
    def test_drains_under_quota(self, qos, per_page):
        """A quota window (3, or 5 borrowing) with runs W+1..3W, below,
        at and above twice the window."""
        counts = modes_identical(
            baseline_iommu_config(), qos,
            [(0, 0.0, pages_txs(0, 60, per_page))],
        )
        assert counts["cadence_drained"] >= 40 * per_page, counts

    def test_binade_edge_declines_then_resumes(self):
        """A fractional entry just below 2**20: stretches stop short of the
        power of two, the per-event loop crosses it, planning resumes."""
        # 1045576.25 + 2**-33 uses every mantissa bit, so only values
        # below 2**20 are its integral offsets exactly.
        start = float((1 << 20) - 3000) + 0.25 + 2.0 ** -33
        counts = modes_identical(
            baseline_iommu_config(), "full_share",
            [(0, start, pages_txs(0, 60, 16))],
        )
        assert counts["decline_exact"] > 0, counts
        assert counts["cadence_drained"] >= 40 * 16, counts

    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    def test_foreign_walk_beyond_the_stretch(self, qos):
        """Another tenant's walk completes long after ASID 0's stretches
        on a channel of its own: it is inert and the cadence drains."""
        counts = modes_identical(
            baseline_iommu_config(), qos,
            [
                (5, 1_000_000.0, pages_txs(200, 1, 1, offset=15)),
                (0, 0.0, pages_txs(0, 60, 9)),
            ],
            WIDE_MEMORY,
        )
        assert counts["cadence_drained"] >= 40 * 9, counts

    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    def test_foreign_walk_inside_the_stretch(self, qos):
        """Another tenant's walk completes mid-stream: stretches stop
        before it, the per-event loop retires it, planning resumes."""
        counts = modes_identical(
            baseline_iommu_config(), qos,
            [
                (5, 3000.0, pages_txs(200, 1, 1, offset=15)),
                (0, 0.0, pages_txs(0, 60, 9)),
            ],
            WIDE_MEMORY,
        )
        assert counts["decline_horizon"] > 0, counts
        assert counts["cadence_drained"] > 0, counts

    def test_channels_left_busy_drain(self):
        """Another tenant's transfers queued far ahead on every channel:
        the cadence drains behind the backlog, every transfer queued."""
        counts = modes_identical(
            baseline_iommu_config(), "static_partition",
            [
                (5, 1_000_000.0, materialize([(100, 64, 1)])),
                (0, 0.0, pages_txs(0, 30, 9)),
            ],
        )
        assert counts["decline_channel"] == 0, counts
        assert counts["cadence_drained"] > 0, counts
        assert counts["queued"] == counts["cadence_drained"], counts

    def test_window_and_short_declines(self):
        """Runs shorter than the quota window block mid-page with another
        page's walks in flight (no flip); a stream's last page has no
        successor to plan across."""
        counts = modes_identical(
            baseline_iommu_config(), "static_partition",
            [(0, 0.0, pages_txs(0, 30, 2)), (0, 99_000.0, pages_txs(40, 3, 9))],
        )
        assert counts["decline_window"] > 0, counts
        assert counts["decline_short"] > 0, counts


# --------------------------------------------------------------------- #
# queued channels: stretches behind another tenant's backlog
# --------------------------------------------------------------------- #


def reference_finish(release, cost, ch, channel_free):
    """The reference loop's channel arithmetic, one transfer at a time:
    ``(finishes, transfers that waited)``."""
    free = list(channel_free)
    out = []
    queued = 0
    for r, s, c in zip(release.tolist(), cost.tolist(), ch.tolist()):
        free_at = free[c]
        start = r if r > free_at else free_at
        queued += free_at > r
        free[c] = start + s
        out.append(start + s)
    return out, queued


#: Transfer times of the default memory (75 B per channel-cycle): 256 B
#: and the inexact 200 B among them, so running sums round.
_COSTS = [size / MemoryConfig().channel_bandwidth for size in (64, 200, 256)]


def sequential_sums(start, terms):
    """``[start, start + t0, (start + t0) + t1, ...]`` by ``+=``."""
    total = start
    sums = [total]
    for term in terms:
        total += term
        sums.append(total)
    return sums


class TestRunningSum:
    """A backlog's finishes are ``np.cumsum`` of its transfer times; the
    engine's bit-identity rests on it adding one term at a time."""

    @given(
        start=st.floats(0, 2.0 ** 40, allow_nan=False),
        terms=st.lists(
            st.one_of(
                st.sampled_from(_COSTS),
                st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
            ),
            max_size=3000,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_cumsum_is_sequential(self, start, terms):
        assert np.cumsum(np.array([start] + terms)).tolist() == (
            sequential_sums(start, terms)
        )

    @pytest.mark.parametrize(
        "start", [0.0, 777.25, 1000.3, float((1 << 20) - 3000) + 0.25 + 2.0 ** -33],
    )
    def test_transfer_times(self, start):
        """256 B transfers, and mixed ones, from integral, fractional and
        full-mantissa starts."""
        for terms in (
            [_COSTS[2]] * 5000,
            [_COSTS[k % 3] for k in range(5000)],
        ):
            assert np.cumsum(np.array([start] + terms)).tolist() == (
                sequential_sums(start, terms)
            )

    @given(
        gaps=st.lists(st.integers(0, 6), min_size=1, max_size=300),
        channels=st.sampled_from([1, 2, 8]),
        picks=st.randoms(use_true_random=False),
        base=st.sampled_from([0.0, 1000.3, 777.25]),
        backlog=st.lists(st.floats(0, 400), min_size=8, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_channel_finish_matches_reference(
        self, gaps, channels, picks, base, backlog
    ):
        """The planners' finish column equals the reference loop's, with
        channels backlogged at entry and stretches whose own transfers
        queue in one or many backlogs."""
        n = len(gaps)
        release = base + np.cumsum(gaps).astype(np.float64)
        ch = np.array([picks.randrange(channels) for _ in range(n)])
        cost = np.array([picks.choice(_COSTS) for _ in range(n)])
        free = [base + b for b in backlog[:channels]]
        finish, queued = _channel_finish(release, cost, ch, free, channels)
        assert (finish.tolist(), queued) == reference_finish(
            release, cost, ch, free
        )


def backlog_txs(depths, size):
    """ASID 5's page 200 with ``depths[c]`` transfers of ``size`` bytes
    at 256 B offset ``c`` (DRAM channel ``c``), channel after channel:
    one walk, then hits at one per cycle pile onto each channel in turn,
    leaving each backlogged to its own depth."""
    return [
        (BASE + 200 * PAGE_SIZE_4K + c * 256, size)
        for c, depth in enumerate(depths)
        for _ in range(depth)
    ]


#: Mixed transfer sizes, 200 B among them (an inexact transfer time).
_MIXED = (64, 128, 200, 256)


def own_txs(shape, pages, sizes):
    """ASID 0's stream: 1-transaction pages (the chain) or runs of
    ``shape`` transactions (the cadence), 256 B or mixed sizes."""
    if shape == 1:
        txs = materialize([(0, pages, 1)])
    else:
        txs = pages_txs(0, pages, shape)
    if sizes == "uniform":
        return txs
    return [(va, _MIXED[(k * 7 + k // 5) % 4]) for k, (va, _) in enumerate(txs)]


#: Backlog depths per channel (transfers); at 256 B a transfer takes 3.41
#: cycles and a hit issues each cycle, so a depth of 300 leaves about
#: 700 cycles queued.
_depths = st.lists(st.integers(0, 300), min_size=8, max_size=8)

#: The own burst's start relative to the other tenant's: far before
#: (every own transfer queues), around its walks and its hits, after.
_skew = st.tuples(
    st.sampled_from([-200_000, -2000, 0, 400, 1200, 3000]),
    st.integers(0, 800),
    st.sampled_from([0.0, 0.25, 0.3, 0.72]),
).map(lambda t: float(t[0] + t[1]) + t[2])


class TestQueuedChannels:
    """The chain and the cadence plan through a backlogged channel: each
    queued transfer finishes at its predecessor's finish plus its own
    transfer time.  Differential against plans forced to decline."""

    @given(
        depths=_depths,
        foreign_size=st.sampled_from([256, 200]),
        shape=st.sampled_from([1, 1, 4, 9, 16]),
        pages=st.integers(20, 80),
        sizes=st.sampled_from(["uniform", "mixed"]),
        skew=_skew,
        qos=_qos,
    )
    @settings(max_examples=40, deadline=None)
    def test_queued_matches_declined(
        self, depths, foreign_size, shape, pages, sizes, skew, qos
    ):
        start = 250_000.0
        counts = modes_identical(
            baseline_iommu_config(), qos,
            [
                (5, start, backlog_txs(depths, foreign_size)),
                (0, start + skew, own_txs(shape, pages, sizes)),
            ],
        )
        assert counts["decline_channel"] == 0, counts

    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("sizes", ["uniform", "mixed"])
    @pytest.mark.parametrize("shape", [1, 9])
    def test_backlog_drains(self, shape, sizes, qos):
        """Channels backlogged to different depths at a fractional entry:
        some clear mid-stretch, some outlast it.  Queued stretches drain."""
        depths = [0, 40, 80, 120, 160, 200, 300, 600]
        counts = modes_identical(
            baseline_iommu_config(), qos,
            [
                (5, 0.0, backlog_txs(depths, 256)),
                (0, 600.25, own_txs(shape, 60, sizes)),
            ],
        )
        drained = counts["chain_drained"] + counts["cadence_drained"]
        assert counts["queued"] > 0 and drained > counts["queued"], counts
        assert counts["decline_channel"] == 0, counts

    def test_chain_channels_left_busy_drain(self):
        """The chain twin of the cadence's busy-channel case: 1-transaction
        pages behind the same far-ahead backlog all queue, and drain."""
        counts = modes_identical(
            baseline_iommu_config(), "static_partition",
            [
                (5, 1_000_000.0, materialize([(100, 64, 1)])),
                (0, 0.0, materialize([(0, 60, 1)])),
            ],
        )
        assert counts["decline_channel"] == 0, counts
        assert counts["chain_drained"] > 0, counts
        assert counts["queued"] == counts["chain_drained"], counts


# --------------------------------------------------------------------- #
# stretches longer than the TLB: one bulk fill per stretch
# --------------------------------------------------------------------- #

#: The paper's IOMMU with a 32-entry TLB: a stretch fills more pages than
#: the TLB holds, so its fills evict the stretch's own earlier pages.
TLB32 = CAL_CONFIGS[-1]


class _BulkFillSpy:
    """Records every ``TLB.insert_many`` call that took the bulk step, as
    ``(pages, held, free)``: the batch size, the filling tenant's entries
    and the TLB's free entries before the call."""

    def __init__(self, monkeypatch):
        self.bulk = []
        spy = self
        insert_many = TLB.insert_many
        rotate_lru = TLB._rotate_lru
        rotate_fifo = TLB._rotate_fifo
        took = []

        def spied(tlb, vpns, pfns, asid=0):
            took.clear()
            before = (
                len(vpns), tlb.occupancy_of(asid), tlb.entries - tlb.occupancy
            )
            insert_many(tlb, vpns, pfns, asid)
            if took:
                spy.bulk.append(before)

        def spied_lru(tlb, *args):
            took.append(True)
            return rotate_lru(tlb, *args)

        def spied_fifo(tlb, *args):
            done = rotate_fifo(tlb, *args)
            if done:
                took.append(True)
            return done

        monkeypatch.setattr(TLB, "insert_many", spied)
        monkeypatch.setattr(TLB, "_rotate_lru", spied_lru)
        monkeypatch.setattr(TLB, "_rotate_fifo", spied_fifo)


class TestStretchesLongerThanTheTLB:
    """A 32-entry TLB: each chain or cadence stretch hands its fills to one
    ``TLB.insert_many``, which must leave the state the per-event loop's
    fills leave when the stretch evicts its own pages.  A first burst
    takes the tenant to its quota (and, under ``weighted``, the TLB to
    full), so the second burst's stretches rotate the tenant's entries."""

    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("per_page", [1, 9], ids=["chain", "cadence"])
    def test_bulk_fill_matches_per_event(self, qos, per_page, monkeypatch):
        spy = _BulkFillSpy(monkeypatch)
        counts = modes_identical(
            TLB32, qos,
            [
                (0, 0.0, materialize([(0, 60, per_page)])),
                (0, 200_000.0, materialize([(100, 120, per_page)])),
            ],
        )
        regime = "chain" if per_page == 1 else "cadence"
        assert counts[regime + "_drained"] >= 100 * per_page, counts
        if qos == "full_share":
            # More pages than the TLB had free: the LRU rotation.
            assert any(pages > free for pages, _, free in spy.bulk), spy.bulk
        else:
            # More pages than the tenant held: the FIFO rotation.
            assert any(pages > held for pages, held, _ in spy.bulk), spy.bulk


class TestFaultBackoff:
    def test_backoff_survives_fault_returns(self):
        """Every other run faults (the handler maps it) and the FIFO
        path handles each fault in its loop.  The declines before a
        fault keep counting toward the backoff, so the plans the next
        faulting page dooms stop early."""
        chunks = []
        for k in range(150):
            chunks += [(k, 1, 9), k + 1]
        bursts = [(0, 0.0, materialize(chunks))]
        on, counts = run_bursts(
            True, baseline_iommu_config(), "static_partition", bursts
        )
        off, _ = run_bursts(
            False, baseline_iommu_config(), "static_partition", bursts
        )
        assert on == off
        assert on["summary"].faults == 150
        attempts = counts["chain_attempts"] + counts["cadence_attempts"]
        # One attempt per faulting segment (150) without the backoff.
        assert 0 < attempts <= 30, counts


# --------------------------------------------------------------------- #
# the merge streak: PRMB machines with free walkers
# --------------------------------------------------------------------- #

#: PRMB design points without a path cache: wide pools the streak covers
#: end to end, small pools whose tail runs out of walkers, and an 8-slot
#: PRMB whose 16-transaction pages overflow it.
STREAK_CONFIGS = [
    MMUConfig(name="s8", n_walkers=8, prmb_slots=32, path_cache="none"),
    MMUConfig(name="s16p8", n_walkers=16, prmb_slots=8, path_cache="none"),
    MMUConfig(name="w64", n_walkers=64, prmb_slots=32, path_cache="none"),
    MMUConfig(name="w1024", n_walkers=1024, prmb_slots=32, path_cache="none"),
]

#: The paper's wide NeuMMU walker pool without a path cache.
W256 = MMUConfig(name="w256", n_walkers=256, prmb_slots=32, path_cache="none")


def streak_txs(chunks, per_page_offset=0):
    """Chunks -> transactions: ``(first page, pages, per page)`` streams
    of 256 B runs from offset ``per_page_offset``, or an int, a page that
    faults until the handler maps it."""
    txs = []
    for chunk in chunks:
        if isinstance(chunk, int):
            txs.append((FAULT_BASE + chunk * PAGE_SIZE_4K, 256))
            continue
        first, count, per_page = chunk
        txs.extend(pages_txs(first, min(count, N_PAGES - first), per_page,
                             offset=per_page_offset))
    return txs


def run_streak(streak_on, config, bursts, memory_config=None,
               before_plan=None):
    """Run ``(asid, start_cycle, transactions)`` bursts on a PRMB machine
    under full sharing, ASIDs 0 and 5, with the merge streak on or its
    plan forced to decline; returns ``(state, counts)``.  The state holds
    the walker pool, PTS, PRMB, TLB and channels both before and after
    the final drain.  ``before_plan`` is called with the calendar before
    every streak plan attempt."""
    original = CompletionCalendar.plan_streak

    def planned(cal, *args, **kwargs):
        if before_plan is not None:
            before_plan(cal)
        return original(cal, *args, **kwargs) if streak_on else 0

    with mock.patch.object(CompletionCalendar, "plan_streak", planned):
        mmu = MMU(config, None)
        tables = {0: build_table(first_pfn=10), 5: build_table(500_000)}
        for asid, table in tables.items():
            mmu.register_context(asid, table)
        memory = MainMemory(memory_config)
        engine = TranslationEngine(mmu, memory)

        def demand_map(vpn, cycle, asid):
            tables[asid].map_range(
                vpn << 12, PAGE_SIZE_4K,
                first_pfn=2_000_000 + (vpn & 0xFFFF) * 8 + asid,
            )
            mmu.shootdown(vpn, asid)
            return cycle + 2500.0

        engine.fault_handler = demand_map
        results = [
            engine.run_burst(
                TransactionStream.from_pairs(txs, PAGE_SIZE_4K), start, asid
            )
            for asid, start, txs in bursts
        ]
        pool, pts, tlb = mmu.pool, mmu.pts, mmu.tlb
        live = {
            "heap": sorted(pool.heap),
            "seq": pool._seq,
            "free": list(pool._free),
            "walk_of": list(pool._walk_of),
            "vpn": list(pool._vpn),
            "completion": list(pool._completion_of),
            "occupied": [buf._occupied for buf in pool._buffers],
            "pts": [(k, list(v)) for k, v in pts._by_vpn.items()],
            "pts_count": pts._count,
            "channels": tuple(memory._channel_free),
            "tlb": list(tlb._set.items()),
        }
        mmu.drain()
        prmb = pool.prmb_stats
        state = {
            "results": results,
            "live": live,
            "summary": mmu.summary(),
            "mmu": mmu.stats.snapshot(),
            "mem": (memory.total_bytes, memory.total_accesses),
            "pts": (pts.lookups, pts.hits, pts._count, list(pts._by_vpn)),
            "tlb": (tlb.hits, tlb.misses, list(tlb._set.items())),
            "prmb": (prmb.merges, prmb.rejects_full, prmb.peak_occupancy),
            "free": list(pool._free),
        }
        counts = {}
        for cal in engine.calendars.values():
            for key, value in cal.counts().items():
                counts[key] = counts.get(key, 0) + value
        return state, counts


def streak_identical(config, bursts, memory_config=None):
    """Run ``bursts`` with the streak on and declined; both must be
    bit-identical.  Returns the streak-on leg's counts."""
    on, counts = run_streak(True, config, bursts, memory_config)
    off, _ = run_streak(False, config, bursts, memory_config)
    assert on == off
    return counts


#: One streak segment: (first page, pages, 256 B transactions per page).
#: Runs of 1..16 fit a 4 KB page; under the 8-slot PRMB, runs above 9
#: overflow it.
_streak_segment = st.tuples(
    st.integers(0, N_PAGES - 64), st.integers(1, 64), st.integers(1, 16),
)

#: One burst: (asid, start cycle, chunks), recurring pages across chunks
#: and bursts, mid-stream faulting pages.
_streak_burst = st.tuples(
    st.sampled_from([0, 0, 5]), _start,
    st.lists(st.one_of(_streak_segment, _fault), min_size=1, max_size=4),
)


class TestStreak:
    @pytest.mark.parametrize("config", STREAK_CONFIGS, ids=lambda c: c.name)
    @given(
        spec=st.lists(_streak_burst, min_size=1, max_size=3),
        offset=st.sampled_from([0, 0, 3]),
        wide=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_streak_matches_heap(self, config, spec, offset, wide):
        """Wide and walker-short pools, runs of 1..16 (some longer than
        the PRMB), recurring and TLB-resident pages, walks of an earlier
        burst in flight, fractional and binade-edge entries, channels
        another tenant left busy, faults mid-stream, two ASIDs."""
        bursts = [
            (asid, start, streak_txs(chunks, offset))
            for asid, start, chunks in spec
        ]
        streak_identical(config, bursts, WIDE_MEMORY if wide else None)

    @pytest.mark.parametrize("start", [0.0, 777.25, 1000.5])
    @pytest.mark.parametrize("per_page", [4, 6, 16])
    def test_drains_wide_pool(self, per_page, start):
        """256 walkers never run short: nearly every transaction drains
        (runs of 4 or more on the same channels leave each transfer time
        to finish before its channel comes round again)."""
        counts = streak_identical(
            W256, [(0, start, pages_txs(0, 200, per_page))]
        )
        assert counts["streak_drained"] >= 190 * per_page, counts
        assert counts["streak_plans"] <= 2, counts

    def test_walker_short_tail_declines_then_resumes(self):
        """Eight walkers: long pages fill the pool, and a later burst of
        two-transaction pages enters just as one walk completes, so its
        second lead would find no walker free and the plan declines.  A
        burst on the idle pool then drains its first eight pages, and
        later stretches of eight between stalls."""
        counts = streak_identical(
            STREAK_CONFIGS[0],
            [
                (0, 0.0, pages_txs(0, 8, 16)),
                (0, 400.0, materialize([(20, 40, 2)])),
                (0, 20_000.0, pages_txs(100, 100, 4)),
            ],
        )
        assert counts["decline_window"] > 0, counts
        assert counts["streak_drained"] >= 8 * 4, counts

    def test_earlier_burst_walks_retire_inside(self):
        """Walks of an earlier burst (and of the other ASID) complete
        inside the next burst's streak, merged in ``(ready, seq)``
        order with the streak's own."""
        counts = streak_identical(
            W256,
            [
                (5, 0.0, pages_txs(200, 30, 8, offset=8)),
                (0, 50.0, pages_txs(0, 120, 8)),
                (5, 400.0, pages_txs(100, 40, 8, offset=8)),
            ],
            WIDE_MEMORY,
        )
        assert counts["streak_drained"] >= 180 * 8, counts

    def test_binade_edge_declines_then_resumes(self):
        """A fractional entry using every mantissa bit just below 2**20:
        a streak stops short of the power of two, the per-event loop
        crosses it, planning resumes."""
        start = float((1 << 20) - 3000) + 0.25 + 2.0 ** -33
        counts = streak_identical(W256, [(0, start, pages_txs(0, 200, 16))])
        assert counts["decline_exact"] > 0, counts
        assert counts["streak_drained"] >= 150 * 16, counts

    def test_channels_left_busy_decline(self):
        """The other ASID's transfers queued far ahead on every channel:
        every streak plan declines on channel queueing."""
        counts = streak_identical(
            W256,
            [
                (5, 1_000_000.0, streak_txs([(100, 64, 1)])),
                (0, 0.0, pages_txs(0, 60, 9)),
            ],
        )
        assert counts["decline_channel"] > 0, counts
        assert counts["streak_drained"] == 0, counts

    def test_short_declines(self):
        """Runs longer than the 8-slot PRMB, resident pages and a faulting
        page end every scan before the minimum stretch."""
        config = STREAK_CONFIGS[1]
        counts = streak_identical(
            config,
            [
                (0, 0.0, pages_txs(0, 20, 12)),
                (0, 9_000.0, streak_txs([(20, 1, 4), 3, (21, 1, 4), (0, 20, 4)])),
            ],
        )
        assert counts["decline_short"] > 0, counts

    def test_fault_mid_stream(self):
        """A faulting page ends the streak; the kernel's leading step hands
        it to the fault handler and planning resumes after it."""
        counts = streak_identical(
            W256, [(0, 0.0, streak_txs([(0, 40, 6), 5, (40, 40, 6)]))]
        )
        assert counts["streak_plans"] >= 2, counts
        assert counts["streak_drained"] >= 70 * 6, counts

    def test_tpreg_builds_no_streak_calendar(self):
        """Path caches make completions depend on the walker: the TPreg
        NeuMMU builds no streak calendar."""
        from repro.core.mmu import neummu_config

        _, counts = run_streak(
            True, neummu_config(), [(0, 0.0, pages_txs(0, 60, 16))]
        )
        assert counts == {}


def zero_counts(cal):
    cal.chain_attempts = cal.chain_plans = cal.chain_drained = 0
    cal.cadence_attempts = cal.cadence_plans = cal.cadence_drained = 0
    cal.streak_attempts = cal.streak_plans = cal.streak_drained = 0
    cal.queued = 0
    cal.declines = dict.fromkeys(cal.declines, 0)


class TestCounts:
    def test_counts_are_observation_only(self):
        """Zeroing the counts before every plan leaves every output
        bit-identical: no simulation path reads them."""
        bursts = [
            (9, 0.0, materialize([(100, 40, 1)])),
            (5, 33_000.0, pages_txs(200, 1, 1, offset=15)),
            (0, 30_000.0, pages_txs(0, 60, 9)),
        ]
        plain, counts = run_bursts(
            True, baseline_iommu_config(), "weighted", bursts, WIDE_MEMORY
        )
        zeroed, _ = run_bursts(
            True, baseline_iommu_config(), "weighted", bursts, WIDE_MEMORY,
            before_plan=zero_counts,
        )
        assert counts["cadence_drained"] and counts["chain_drained"], counts
        assert plain == zeroed

    def test_streak_counts_are_observation_only(self):
        """The same for the merge streak on a PRMB machine: a walker-short
        tail, busy channels and a binade edge make it plan and decline."""
        bursts = [
            (5, 1_000_000.0, streak_txs([(100, 16, 1)])),
            (0, 0.0, pages_txs(0, 60, 9)),
            (0, float((1 << 20) - 3000) + 0.25 + 2.0 ** -33,
             pages_txs(60, 120, 6)),
        ]
        config = STREAK_CONFIGS[0]
        plain, counts = run_streak(True, config, bursts)
        zeroed, _ = run_streak(True, config, bursts, before_plan=zero_counts)
        assert counts["streak_drained"] and counts["decline_window"], counts
        assert plain == zeroed


# --------------------------------------------------------------------- #
# multi-tenant: all 9 QoS policy × arbitration combos
# --------------------------------------------------------------------- #


def _tenant_cell(qos, arbitration, calendar_on):
    from repro.npu.simulator import run_multi_tenant
    from repro.workloads.registry import DenseWorkloadFactory

    with calendar_mode(calendar_on):
        return run_multi_tenant(
            DenseWorkloadFactory("RNN-2", 1),
            baseline_iommu_config(),
            2,
            arbitration=arbitration,
            qos=qos,
            weights=(2.0, 1.0),
        )


class TestTenantCombos:
    def test_contended_cell_identical(self):
        """Fast tier: the deepest quota regime, calendar on vs off."""
        on = _tenant_cell("static_partition", "round_robin", True)
        off = _tenant_cell("static_partition", "round_robin", False)
        assert on == off

    @pytest.mark.slow
    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("arbitration", ARBITRATION_POLICIES)
    def test_all_nine_combos_identical(self, qos, arbitration):
        on = _tenant_cell(qos, arbitration, True)
        off = _tenant_cell(qos, arbitration, False)
        assert on == off
