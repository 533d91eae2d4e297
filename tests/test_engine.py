"""Timing tests for the translation/memory burst engine.

These pin the cycle-level semantics with hand-computed scenarios: the
per-cycle issue port, TLB/PRMB/walker interplay, DMA blocking, fault
handling, and the memory bandwidth bound that defines the oracle.
"""

import pytest

from repro.core.engine import TranslationEngine
from repro.core.mmu import MMU, MMUConfig, TranslationFault, oracle_config
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.dram import MainMemory, MemoryConfig
from repro.memory.page_table import PageTable

BASE = 0x7F00_0000_0000


def build(mmu_config, n_pages=256, channels=8, bandwidth=600.0, latency=100, **kw):
    table = PageTable()
    table.map_range(BASE, n_pages * PAGE_SIZE_4K, first_pfn=10)
    mmu = MMU(mmu_config, table)
    memory = MainMemory(
        MemoryConfig(
            channels=channels,
            bandwidth_bytes_per_cycle=bandwidth,
            access_latency_cycles=latency,
        )
    )
    return TranslationEngine(mmu, memory, **kw), mmu, memory


def txs_for_pages(pages, per_page=1, size=256):
    """Transactions touching `pages` in order, `per_page` txs each."""
    out = []
    for p in pages:
        for i in range(per_page):
            out.append((BASE + p * PAGE_SIZE_4K + i * size, size))
    return out


class TestOracleTiming:
    def test_single_transaction(self):
        engine, _, _ = build(oracle_config())
        result = engine.run_burst([(BASE, 256)], start_cycle=0.0)
        # Transfer 256/75 on one channel + 100 latency.
        assert result.data_end_cycle == pytest.approx(256 / 75 + 100)
        assert result.issue_end_cycle == pytest.approx(1.0)
        assert result.stall_cycles == 0.0

    def test_issue_rate_one_per_cycle(self):
        engine, _, _ = build(oracle_config())
        result = engine.run_burst(txs_for_pages(range(64)), 0.0)
        assert result.issue_end_cycle == pytest.approx(64.0)

    def test_large_burst_is_bandwidth_bound(self):
        engine, _, _ = build(oracle_config(), n_pages=4096)
        txs = txs_for_pages(range(2048), per_page=16, size=256)
        result = engine.run_burst(txs, 0.0)
        total = sum(size for _, size in txs)
        issue_time = len(txs)  # 1/cycle, above the 600 B/cy demand at 256 B
        # With 256 B/cycle demanded of a 600 B/cycle memory, issue limits.
        assert result.data_end_cycle == pytest.approx(issue_time + 256 / 75 + 100, rel=0.05)
        assert result.bytes_moved == total

    def test_counts_requests(self):
        engine, mmu, _ = build(oracle_config())
        engine.run_burst(txs_for_pages(range(10)), 0.0)
        assert mmu.stats.requests == 10


class TestTranslatedTiming:
    def test_single_miss_walk_then_data(self):
        engine, mmu, _ = build(MMUConfig(n_walkers=8, prmb_slots=0))
        result = engine.run_burst([(BASE, 256)], 0.0)
        # Walk 400, then data: 400 + 256/75 + 100.
        assert result.data_end_cycle == pytest.approx(400 + 256 / 75 + 100)
        assert mmu.pool.stats.walks == 1

    def test_merged_requests_complete_after_walk(self):
        engine, mmu, _ = build(MMUConfig(n_walkers=8, prmb_slots=8))
        result = engine.run_burst(txs_for_pages([0], per_page=4), 0.0)
        # One walk at cycle 0 completes at 400; merged requests drain at
        # 401, 402, 403; last data = 403 + transfer + latency.
        assert mmu.pool.stats.walks == 1
        assert mmu.stats.merges == 3
        assert result.data_end_cycle == pytest.approx(403 + 256 / 75 + 100)

    def test_dma_blocks_when_translation_bandwidth_gone(self):
        engine, mmu, _ = build(MMUConfig(n_walkers=2, prmb_slots=0))
        # Three distinct pages, 2 walkers, no merging: the third translation
        # stalls until the first walk completes at 400.
        result = engine.run_burst(txs_for_pages([0, 1, 2]), 0.0)
        assert result.stall_cycles == pytest.approx(400 - 2, abs=1)
        assert mmu.stats.stall_events == 1

    def test_post_walk_hits_use_tlb(self):
        engine, mmu, _ = build(MMUConfig(n_walkers=1, prmb_slots=0))
        txs = txs_for_pages([0]) + txs_for_pages([0])
        # Force sequential: second tx issued 1 cycle later, still a PTS hit
        # (walk in flight), no merge capacity, no free walker -> stalls to
        # 400, then retries and hits the TLB.
        result = engine.run_burst(txs, 0.0)
        assert mmu.stats.tlb_hits == 1
        assert mmu.pool.stats.walks == 1

    def test_run_bursts_chains_issue_not_data(self):
        engine, _, _ = build(oracle_config())
        bursts = [txs_for_pages(range(8)), txs_for_pages(range(8, 16))]
        results, data_end = engine.run_bursts(bursts, 0.0)
        # Second burst starts issuing when the first finishes issuing.
        assert results[1].start_cycle == pytest.approx(results[0].issue_end_cycle)
        assert data_end >= max(r.data_end_cycle for r in results) - 1e-9

    def test_timeline_histogram(self):
        engine, _, _ = build(oracle_config(), timeline_window=10)
        engine.run_burst(txs_for_pages(range(25)), 0.0)
        series = dict(engine.timeline_series())
        assert series[0] == 10
        assert series[10] == 10
        assert series[20] == 5

    def test_stats_requests_not_inflated_by_stalls(self):
        engine, mmu, _ = build(MMUConfig(n_walkers=1, prmb_slots=0))
        engine.run_burst(txs_for_pages([0, 1, 2, 3]), 0.0)
        assert mmu.stats.requests == 4


class TestFaultHandling:
    def test_unhandled_fault_raises(self):
        engine, _, _ = build(MMUConfig(n_walkers=8), n_pages=1)
        with pytest.raises(TranslationFault):
            engine.run_burst([(BASE + 64 * PAGE_SIZE_4K, 256)], 0.0)

    @pytest.mark.parametrize("batched", [True, False])
    def test_oracle_unmapped_page_faults(self, batched):
        """Regression: the oracle fast path must not swallow page faults.

        The seed's inlined oracle path skipped MMU.translate and silently
        "translated" unmapped pages; both engine paths must now probe the
        resolver and raise, counting the fault like mmu.py does.
        """
        engine, mmu, _ = build(oracle_config(), n_pages=1)
        engine.batched = batched
        mapped = [(BASE + k * 256, 256) for k in range(4)]
        with pytest.raises(TranslationFault):
            engine.run_burst(mapped + [(BASE + 64 * PAGE_SIZE_4K, 256)], 0.0)
        assert mmu.stats.faults == 1
        # The mapped transactions before the fault still count; the
        # faulting one does not (MMU.translate parity).
        assert mmu.stats.requests == len(mapped)

    @pytest.mark.parametrize("batched", [True, False])
    def test_oracle_fault_mid_run_counts_prefix(self, batched):
        """Faults inside a same-page run keep request accounting exact."""
        engine, mmu, _ = build(oracle_config(), n_pages=2)
        engine.batched = batched
        txs = [(BASE + k * 256, 256) for k in range(20)]  # 2 mapped pages
        txs += [(BASE + 64 * PAGE_SIZE_4K + k * 256, 256) for k in range(4)]
        with pytest.raises(TranslationFault) as excinfo:
            engine.run_burst(txs, 0.0)
        assert excinfo.value.vpn == (BASE + 64 * PAGE_SIZE_4K) >> 12
        assert mmu.stats.requests == 20
        assert mmu.stats.faults == 1

    def test_fault_handler_installs_and_charges(self):
        table = PageTable()
        table.map_range(BASE, PAGE_SIZE_4K, first_pfn=10)
        mmu = MMU(MMUConfig(n_walkers=8), table)
        handled = []

        def handler(vpn, cycle, asid):
            va = vpn << 12
            table.map_page(va, pfn=999)
            handled.append((vpn, asid))
            return cycle + 1000.0  # migration cost

        memory = MainMemory()
        engine = TranslationEngine(mmu, memory, fault_handler=handler)
        missing = BASE + 5 * PAGE_SIZE_4K
        result = engine.run_burst([(missing, 256)], 0.0)
        assert handled == [(missing >> 12, 0)]
        # 1000 fault + 400 walk + transfer + latency.
        assert result.data_end_cycle == pytest.approx(1400 + 256 / 75 + 100)
        assert result.stall_cycles == pytest.approx(1000.0)
        assert mmu.stats.faults == 1

    def test_oracle_pays_fault_but_not_walk(self):
        table = PageTable()
        table.map_range(BASE, PAGE_SIZE_4K, first_pfn=10)
        mmu = MMU(oracle_config(), table)

        def handler(vpn, cycle, asid):
            table.map_page(vpn << 12, pfn=999)
            return cycle + 1000.0

        engine = TranslationEngine(mmu, MainMemory(), fault_handler=handler)
        missing = BASE + 5 * PAGE_SIZE_4K
        result = engine.run_burst([(missing, 256)], 0.0)
        assert result.data_end_cycle == pytest.approx(1000 + 256 / 75 + 100)


class TestFaultExceptionSafety:
    """A fault that raises mid-burst on the FIFO path (the baseline
    IOMMU's) leaves the state the reference loop leaves at the same
    raise: the path flushes its deferred counters and restores the heap
    and the walk sequence before the exception leaves it, and like the
    reference it never adds the burst to ``memory.total_*``."""

    FAULT_VA = BASE + 200 * PAGE_SIZE_4K  # beyond every mapped page

    @staticmethod
    def failing_handler(vpn, cycle, asid):
        raise RuntimeError(f"migration of VPN 0x{vpn:x} failed")

    def state_after_raise(self, batched, tenants, handler):
        qos = "static_partition" if tenants == 2 else "full_share"
        mmu = MMU(MMUConfig(name="iommu", n_walkers=8, prmb_slots=0, qos=qos), None)
        for asid in range(tenants):
            table = PageTable()
            table.map_range(BASE, 96 * PAGE_SIZE_4K, first_pfn=10 + asid * 1000)
            mmu.register_context(asid, table)
        memory = MainMemory()
        engine = TranslationEngine(mmu, memory, fault_handler=handler)
        engine.batched = batched
        last = tenants - 1
        if tenants == 2:
            # The other tenant's walks are in flight when the fault raises.
            engine.run_burst(txs_for_pages(range(40, 52), per_page=16), 0.0, 0)
        # Fresh pages long enough for the completion calendar, hits on a
        # resident page, walks of a fresh page, then the fault.
        txs = txs_for_pages(range(30), per_page=16) + txs_for_pages([3], 4)
        txs += txs_for_pages([70], 3)
        txs += [(self.FAULT_VA + k * 256, 256) for k in range(4)]
        txs += txs_for_pages(range(60, 64), per_page=16)
        with pytest.raises((TranslationFault, RuntimeError)):
            engine.run_burst(txs, 11.5, last)
        pool, pts, tlb = mmu.pool, mmu.pts, mmu.tlb
        return {
            "stats": mmu.stats.snapshot(),
            "tlb": list(tlb._set.items()),
            "tlb_counts": (tlb.hits, tlb.misses, dict(tlb._asid_occupancy)),
            "pts": [(key, list(w)) for key, w in pts._by_vpn.items()],
            "pts_counts": (pts.lookups, pts.hits, pts.in_flight),
            # The heap's list order is not observable (every key is
            # distinct, so pops come out in sorted order either way).
            "heap": sorted(pool.heap),
            "free": list(pool._free),
            "seq": pool._seq,
            "pool_stats": vars(pool.stats).copy(),
            "busy": {a: sorted(b) for a, b in pool._busy_by_asid.items() if b},
            "channels": list(memory._channel_free),
            "mem": (memory.total_bytes, memory.total_accesses),
            "plans": sum(
                cal.counts()["chain_plans"] + cal.counts()["cadence_plans"]
                for cal in engine.calendars.values()
            ),
        }

    @pytest.mark.parametrize("tenants", [1, 2])
    @pytest.mark.parametrize("handler", ["none", "failing"])
    def test_fifo_fault_leaves_reference_state(self, tenants, handler):
        fault_handler = self.failing_handler if handler == "failing" else None
        fast = self.state_after_raise(True, tenants, fault_handler)
        reference = self.state_after_raise(False, tenants, fault_handler)
        assert fast.pop("plans") > 0  # a calendar drain preceded the fault
        reference.pop("plans")
        assert fast == reference
        assert fast["stats"]["faults"] == 1
        assert fast["heap"], "the fault must raise with walks in flight"
