"""Behavioural tests for the MMU translation state machine."""

import pytest

from repro.core.mmu import (
    MMU,
    MMUConfig,
    TranslationFault,
    baseline_iommu_config,
    neummu_config,
    oracle_config,
)
from repro.core.ptw import WalkerPool
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.memory.page_table import PageTable

BASE = 0x7F00_0000_0000


def make_table(n_pages=64, page_size=PAGE_SIZE_4K):
    pt = PageTable()
    pt.map_range(BASE, n_pages * page_size, first_pfn=1000, page_size=page_size)
    return pt


def vpn_at(index, page_size=PAGE_SIZE_4K):
    return (BASE + index * page_size) >> (page_size.bit_length() - 1)


class TestConfigs:
    def test_factories(self):
        assert baseline_iommu_config().n_walkers == 8
        assert baseline_iommu_config().prmb_slots == 0
        assert neummu_config().n_walkers == 128
        assert neummu_config().prmb_slots == 32
        assert neummu_config().path_cache == "tpreg"
        assert oracle_config().oracle

    def test_with_page_size(self):
        cfg = neummu_config().with_page_size(PAGE_SIZE_2M)
        assert cfg.page_size == PAGE_SIZE_2M
        assert cfg.n_walkers == 128

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            MMUConfig(path_cache="bogus")
        with pytest.raises(ValueError):
            MMUConfig(n_walkers=0)
        with pytest.raises(ValueError):
            MMUConfig(prmb_slots=-1)
        with pytest.raises(ValueError):
            MMUConfig(tlb_entries=0)

    def test_negative_latencies_rejected(self):
        with pytest.raises(ValueError, match="tlb_hit_latency"):
            MMUConfig(tlb_hit_latency=-1)
        with pytest.raises(ValueError, match="l1_tlb_latency"):
            MMUConfig(l1_tlb_latency=-1)
        with pytest.raises(ValueError, match="walk_latency_per_level"):
            MMUConfig(walk_latency_per_level=-100)

    def test_latency_boundaries(self):
        # Zero TLB latencies are physically meaningful; a zero-latency
        # walk is not (the walker pool rejects it too).
        assert MMUConfig(tlb_hit_latency=0).tlb_hit_latency == 0
        assert MMUConfig(l1_tlb_latency=0).l1_tlb_latency == 0
        with pytest.raises(ValueError, match="walk_latency_per_level"):
            MMUConfig(walk_latency_per_level=0)
        assert MMUConfig(walk_latency_per_level=1).walk_latency_per_level == 1

    def test_fractional_walk_latency_rejected(self):
        # One issue per cycle plus integral walk latencies keep every
        # cycle of a completion-calendar stretch an integer offset from
        # its entry cycle; the config and the walker pool enforce the
        # second half at construction.
        with pytest.raises(ValueError, match="walk_latency_per_level"):
            MMUConfig(walk_latency_per_level=100.5)
        with pytest.raises(ValueError, match="walk latency"):
            WalkerPool(1, walk_latency_per_level=100.5)

    def test_oracle_skips_latency_validation(self):
        # The oracle has no TLB or walkers; nonsense latencies are inert
        # there, mirroring the existing capacity checks.
        cfg = MMUConfig(oracle=True, tlb_hit_latency=-5, walk_latency_per_level=-1)
        assert cfg.oracle


class TestOracle:
    def test_translate_is_free(self):
        mmu = MMU(oracle_config(), make_table())
        ready, _ = mmu.translate(vpn_at(0), cycle=123.0)
        assert ready == 123.0
        assert mmu.stats.requests == 1

    def test_faults_on_unmapped(self):
        mmu = MMU(oracle_config(), make_table(n_pages=1))
        with pytest.raises(TranslationFault):
            mmu.translate(vpn_at(50), cycle=0.0)
        assert mmu.stats.faults == 1

    def test_summary_reports_all_hits(self):
        mmu = MMU(oracle_config(), make_table())
        mmu.translate(vpn_at(0), 0.0)
        summary = mmu.summary()
        assert summary.tlb_hit_rate == 1.0
        assert summary.walks == 0


class TestTranslateFlows:
    def test_miss_starts_walk_with_table1_latency(self):
        mmu = MMU(baseline_iommu_config(), make_table())
        ready, _ = mmu.translate(vpn_at(0), cycle=0.0)
        assert ready == pytest.approx(400.0)  # 4 levels x 100
        assert mmu.pool.stats.walks == 1

    def test_tlb_hit_after_walk_completes(self):
        mmu = MMU(baseline_iommu_config(), make_table())
        ready, _ = mmu.translate(vpn_at(0), 0.0)
        mmu.process_completions(ready)
        ready2, _ = mmu.translate(vpn_at(0), ready)
        assert ready2 == pytest.approx(ready + 5)  # TLB hit latency
        assert mmu.stats.tlb_hits == 1

    def test_same_page_merges_with_prmb(self):
        cfg = MMUConfig(n_walkers=4, prmb_slots=2)
        mmu = MMU(cfg, make_table())
        first, _ = mmu.translate(vpn_at(0), 0.0)
        merged, _ = mmu.translate(vpn_at(0), 1.0)
        assert merged == pytest.approx(first + 1)
        assert mmu.stats.merges == 1
        assert mmu.pool.stats.walks == 1

    def test_same_page_without_prmb_goes_redundant(self):
        mmu = MMU(baseline_iommu_config(), make_table())
        mmu.translate(vpn_at(0), 0.0)
        mmu.translate(vpn_at(0), 1.0)
        assert mmu.stats.merges == 0
        assert mmu.pool.stats.walks == 2
        assert mmu.pool.stats.redundant_walks == 1
        assert mmu.stats.redundant_walk_requests == 1

    def test_prmb_overflow_spills_to_redundant_walk(self):
        cfg = MMUConfig(n_walkers=4, prmb_slots=1)
        mmu = MMU(cfg, make_table())
        mmu.translate(vpn_at(0), 0.0)  # walk on walker A
        mmu.translate(vpn_at(0), 1.0)  # merges (1 slot)
        mmu.translate(vpn_at(0), 2.0)  # PRMB full -> redundant walk
        assert mmu.stats.merges == 1
        assert mmu.pool.stats.redundant_walks == 1

    def test_blocks_when_everything_busy(self):
        cfg = MMUConfig(n_walkers=2, prmb_slots=0)
        mmu = MMU(cfg, make_table())
        mmu.translate(vpn_at(0), 0.0)
        mmu.translate(vpn_at(1), 1.0)
        ready, retry = mmu.translate(vpn_at(2), 2.0)
        assert ready is None
        assert retry == pytest.approx(400.0)  # earliest completion
        assert mmu.stats.stall_events == 1
        # Blocked attempts are not double-counted as requests.
        assert mmu.stats.requests == 2

    def test_retry_after_block_succeeds(self):
        cfg = MMUConfig(n_walkers=1, prmb_slots=0)
        mmu = MMU(cfg, make_table())
        mmu.translate(vpn_at(0), 0.0)
        _, retry = mmu.translate(vpn_at(1), 1.0)
        mmu.process_completions(retry)
        ready, _ = mmu.translate(vpn_at(1), retry)
        assert ready == pytest.approx(retry + 400.0)

    def test_fault_on_unmapped_page(self):
        mmu = MMU(baseline_iommu_config(), make_table(n_pages=1))
        with pytest.raises(TranslationFault):
            mmu.translate(vpn_at(10), 0.0)
        assert mmu.stats.faults == 1

    def test_2mb_walk_is_three_levels(self):
        table = make_table(n_pages=4, page_size=PAGE_SIZE_2M)
        mmu = MMU(baseline_iommu_config(page_size=PAGE_SIZE_2M), table)
        ready, _ = mmu.translate(BASE >> 21, 0.0)
        assert ready == pytest.approx(300.0)

    def test_drain_retires_everything(self):
        mmu = MMU(baseline_iommu_config(), make_table())
        mmu.translate(vpn_at(0), 0.0)
        mmu.translate(vpn_at(1), 1.0)
        mmu.drain()
        assert mmu.pool.free_walkers == 8
        assert mmu.pts.in_flight == 0
        assert mmu.tlb.contains(vpn_at(0))


class TestSummary:
    def test_summary_consistency(self):
        mmu = MMU(neummu_config(), make_table())
        for i in range(8):
            mmu.translate(vpn_at(i), float(i))
        mmu.drain()
        summary = mmu.summary()
        assert summary.requests == 8
        assert summary.walks == 8
        assert summary.walk_level_accesses + summary.walk_levels_skipped == 8 * 4
        assert 0 <= summary.tpreg_l4_rate <= 1

    def test_walk_rate_and_accesses_per_request(self):
        mmu = MMU(baseline_iommu_config(), make_table())
        for i in range(4):
            mmu.translate(vpn_at(i), float(i))
        mmu.drain()
        summary = mmu.summary()
        assert summary.walk_rate == pytest.approx(1.0)
        assert summary.accesses_per_request == pytest.approx(4.0)

    def test_as_dict_complete(self):
        mmu = MMU(baseline_iommu_config(), make_table())
        mmu.translate(vpn_at(0), 0.0)
        mmu.drain()
        d = mmu.summary().as_dict()
        assert d["requests"] == 1
        assert d["walks"] == 1
        assert "tpreg_l2_rate" in d


class TestTPregIntegration:
    def test_neummu_skips_upper_levels_on_stream(self):
        """Sequential pages in one 2 MB region share the full path."""
        mmu = MMU(MMUConfig(n_walkers=1, prmb_slots=0, path_cache="tpreg"), make_table())
        first, _ = mmu.translate(vpn_at(0), 0.0)
        assert first == pytest.approx(400.0)
        mmu.process_completions(first)
        second, _ = mmu.translate(vpn_at(1), first)
        # TPreg full-path hit: leaf-only walk.
        assert second - first == pytest.approx(100.0)
