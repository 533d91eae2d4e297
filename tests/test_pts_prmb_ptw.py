"""Tests for the pending-translation scoreboard, PRMB and walker pool."""

import pytest

from repro.core.mmu import MMU, MMUConfig
from repro.core.prmb import MergeBuffer, MergeBufferStats
from repro.core.pts import PendingTranslationScoreboard
from repro.core.ptw import WalkerPool
from repro.core.walk_info import WalkInfo


def make_walk(vpn, levels=4):
    l1 = vpn & 511
    l2 = (vpn >> 9) & 511
    l3 = (vpn >> 18) & 511
    l4 = (vpn >> 27) & 511
    path = (l4, l3, l2) if levels == 4 else (l4, l3)
    return WalkInfo(
        vpn=vpn,
        pfn=vpn + 1,
        page_size=4096,
        levels=levels,
        path=path,
        entry_pas=tuple(0x1000 * (i + 1) + vpn for i in range(levels)),
    )


def make_mmu(n_walkers, prmb_slots=0, path_cache="none", qos="full_share"):
    """An MMU without contexts: walks start from explicit ``WalkInfo``s
    (``MMU.start_walk``) and retire through ``MMU.process_completions``."""
    config = MMUConfig(
        n_walkers=n_walkers, prmb_slots=prmb_slots, path_cache=path_cache, qos=qos
    )
    return MMU(config, None)


class TestPTS:
    def test_register_and_lookup(self):
        pts = PendingTranslationScoreboard(capacity=4)
        assert pts.lookup(10) is None
        pts.register(10, walker=0)
        assert pts.lookup(10) == [0]
        assert pts.hits == 1
        assert pts.lookups == 2

    def test_multiple_walkers_same_vpn(self):
        pts = PendingTranslationScoreboard(capacity=4)
        pts.register(10, 0)
        pts.register(10, 1)  # redundant walk
        assert pts.lookup(10) == [0, 1]
        assert pts.distinct_pages == 1
        assert pts.in_flight == 2

    def test_release(self):
        pts = PendingTranslationScoreboard(capacity=4)
        pts.register(10, 0)
        pts.register(10, 1)
        pts.release(10, 0)
        assert pts.lookup(10) == [1]
        pts.release(10, 1)
        assert pts.lookup(10) is None
        assert pts.in_flight == 0

    def test_release_unknown_raises(self):
        pts = PendingTranslationScoreboard(capacity=4)
        with pytest.raises(KeyError):
            pts.release(10, 0)

    def test_capacity_enforced(self):
        pts = PendingTranslationScoreboard(capacity=2)
        pts.register(1, 0)
        pts.register(2, 1)
        with pytest.raises(RuntimeError):
            pts.register(3, 2)

    def test_peek_no_stats(self):
        pts = PendingTranslationScoreboard(capacity=2)
        pts.register(1, 0)
        pts.peek(1)
        assert pts.lookups == 0


class TestMergeBuffer:
    def test_positions_are_drain_order(self):
        buf = MergeBuffer(slots=3)
        assert buf.try_merge() == 1
        assert buf.try_merge() == 2
        assert buf.try_merge() == 3
        assert buf.try_merge() == 0  # full

    def test_drain_resets(self):
        mmu = make_mmu(n_walkers=1, prmb_slots=2)
        walker, completion = mmu.start_walk(make_walk(1), 0.0)
        buf = mmu.pool._buffers[walker]
        buf.try_merge()
        buf.try_merge()
        assert buf.occupied == 2
        mmu.process_completions(completion)
        assert buf.occupied == 0
        assert buf.try_merge() == 1

    def test_zero_slots_always_rejects(self):
        buf = MergeBuffer(slots=0)
        assert buf.try_merge() == 0
        assert buf.stats.rejects_full == 1

    def test_stats(self):
        stats = MergeBufferStats()
        buf = MergeBuffer(slots=2, stats=stats)
        buf.try_merge()
        buf.try_merge()
        buf.try_merge()
        assert stats.merges == 2
        assert stats.rejects_full == 1
        assert stats.peak_occupancy == 2

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            MergeBuffer(slots=-1)


class TestWalkerPool:
    def test_walk_duration_is_levels_times_latency(self):
        pool = WalkerPool(n_walkers=2, walk_latency_per_level=100)
        _, completion = pool.start_walk(make_walk(5), cycle=10.0)
        assert completion == pytest.approx(10.0 + 400.0)

    def test_2mb_walk_is_three_levels(self):
        pool = WalkerPool(n_walkers=1, walk_latency_per_level=100)
        _, completion = pool.start_walk(make_walk(5, levels=3), cycle=0.0)
        assert completion == pytest.approx(300.0)

    def test_allocation_exhaustion(self):
        pool = WalkerPool(n_walkers=2)
        pool.start_walk(make_walk(1), 0.0)
        pool.start_walk(make_walk(2), 0.0)
        assert pool.free_walkers == 0
        with pytest.raises(RuntimeError):
            pool.start_walk(make_walk(3), 0.0)

    def test_completion_frees_walker(self):
        mmu = make_mmu(n_walkers=1)
        _, completion = mmu.start_walk(make_walk(1), 0.0)
        assert mmu.pool.free_walkers == 0
        mmu.process_completions(completion)
        assert mmu.pool.free_walkers == 1
        assert mmu.pts.in_flight == 0
        assert mmu.tlb_contains(1)

    def test_completion_respects_cycle(self):
        mmu = make_mmu(n_walkers=2)
        mmu.start_walk(make_walk(1), 0.0)  # completes at 400
        mmu.start_walk(make_walk(2), 100.0)  # completes at 500
        mmu.process_completions(450.0)
        assert mmu.tlb_contains(1)
        assert not mmu.tlb_contains(2)
        assert mmu.pool.free_walkers == 1
        assert mmu.pool.earliest_completion() == pytest.approx(500.0)

    def test_merge_ready_cycles_follow_drain_order(self):
        pool = WalkerPool(n_walkers=1, prmb_slots=2)
        walker, completion = pool.start_walk(make_walk(1), 0.0)
        first = pool.merge_into(walker)
        second = pool.merge_into(walker)
        assert first == pytest.approx(completion + 1)
        assert second == pytest.approx(completion + 2)
        assert pool.merge_into(walker) == -1.0  # full

    def test_completion_reports_merged_count(self):
        # Under a share policy the tenant's parked-request count drops by
        # the walk's merged count when it retires.
        mmu = make_mmu(n_walkers=1, prmb_slots=4, qos="static_partition")
        pool = mmu.pool
        walker, completion = mmu.start_walk(make_walk(1), 0.0)
        pool.merge_into(walker)
        pool.merge_into(walker)
        assert pool.prmb_occupancy_of(0) == 2
        mmu.process_completions(completion)
        assert pool.prmb_occupancy_of(0) == 0
        assert pool._buffers[walker].occupied == 0

    def test_tpreg_reduces_second_walk(self):
        mmu = make_mmu(n_walkers=1, path_cache="tpreg")
        _, completion = mmu.start_walk(make_walk(100), 0.0)
        mmu.process_completions(completion)
        # Adjacent page: same L4/L3/L2 path, so only the leaf is read.
        _, second = mmu.start_walk(make_walk(101), completion)
        assert second - completion == pytest.approx(100.0)
        assert mmu.pool.stats.levels_skipped == 3

    def test_tpreg_is_per_walker(self):
        mmu = make_mmu(n_walkers=2, path_cache="tpreg")
        w0, c0 = mmu.start_walk(make_walk(100), 0.0)
        mmu.process_completions(c0)
        # The free list is LIFO: the warm walker takes the next walk, and
        # only the leaf is read.
        w1, c1 = mmu.start_walk(make_walk(101), c0)
        assert w1 == w0
        assert c1 - c0 == pytest.approx(100.0)
        # The other walker never walked: its register is cold even though
        # walker w0's is warm, so the walk takes all four levels.
        w2, c2 = mmu.start_walk(make_walk(102), c0)
        assert w2 != w0
        assert c2 - c0 == pytest.approx(400.0)

    def test_stats_accumulate(self):
        pool = WalkerPool(n_walkers=4)
        pool.start_walk(make_walk(1), 0.0)
        pool.start_walk(make_walk(1), 0.0, redundant=True)
        assert pool.stats.walks == 2
        assert pool.stats.redundant_walks == 1
        assert pool.stats.level_accesses == 8
        assert pool.stats.mean_levels_per_walk == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkerPool(0)
        with pytest.raises(ValueError):
            WalkerPool(1, walk_latency_per_level=0)
