"""Multi-tenant address spaces: ASID isolation, shootdown, shared-MMU runs.

Two tenants sharing one translation stack must never observe each other's
translations (same VPN, different page tables, different PFNs), teardown
and page migration must leave no stale state anywhere, and a shared-MMU
run must degrade — never accelerate — each tenant versus running alone.
"""

import pytest

from repro.core.mmu import (
    MMU,
    SharedMMU,
    MMUConfig,
    baseline_iommu_config,
    neummu_config,
    oracle_config,
)
from repro.core.mmu_cache import TranslationPathCache, UnifiedPageTableCache
from repro.core.tlb import TLB, TwoLevelTLB
from repro.core.tpreg import TPreg
from repro.memory.address import PAGE_SIZE_4K, tagged_vpn
from repro.memory.page_table import PageTable
from repro.npu.simulator import (
    MultiTenantSimulator,
    NPUSimulator,
    run_multi_tenant,
    run_workload,
)
from repro.workloads.cnn import Workload
from repro.workloads.layers import ConvLayer, DenseLayer

BASE = 0x7F00_0000_0000


def table_mapping(first_pfn, n_pages=64):
    table = PageTable()
    table.map_range(BASE, n_pages * PAGE_SIZE_4K, first_pfn=first_pfn)
    return table


def tiny_workload(batch=1, tag="t"):
    return Workload(
        name=f"tiny_{tag}_b{batch:02d}",
        batch=batch,
        layers=(
            ConvLayer("c1", batch, 28, 28, 16, 64, kernel=3, pad=1),
            DenseLayer("fc", batch, 28 * 28 * 64, 256),
        ),
    )


VPN = BASE >> 12


class TestTaggedStructures:
    def test_tagged_vpn_identity_for_asid0(self):
        assert tagged_vpn(0x1234) == 0x1234
        assert tagged_vpn(0x1234, 3) != 0x1234
        with pytest.raises(ValueError):
            tagged_vpn(1, -1)

    def test_tlb_no_cross_asid_hit(self):
        tlb = TLB(16)
        tlb.insert(VPN, 111, asid=1)
        assert tlb.lookup(VPN, asid=2) is None
        assert tlb.lookup(VPN) is None  # asid 0 also isolated
        assert tlb.lookup(VPN, asid=1) == 111

    def test_tlb_same_vpn_different_pfn_coexist(self):
        tlb = TLB(16)
        tlb.insert(VPN, 111, asid=1)
        tlb.insert(VPN, 222, asid=2)
        assert tlb.lookup(VPN, asid=1) == 111
        assert tlb.lookup(VPN, asid=2) == 222

    def test_tlb_invalidate_is_per_asid(self):
        tlb = TLB(16)
        tlb.insert(VPN, 111, asid=1)
        tlb.insert(VPN, 222, asid=2)
        assert tlb.invalidate(VPN, asid=1)
        assert not tlb.contains(VPN, asid=1)
        assert tlb.contains(VPN, asid=2)

    def test_tlb_invalidate_asid_sweeps_only_that_space(self):
        tlb = TLB(64)
        for vpn in range(VPN, VPN + 5):
            tlb.insert(vpn, vpn, asid=1)
            tlb.insert(vpn, vpn + 100, asid=2)
        assert tlb.invalidate_asid(1) == 5
        assert tlb.occupancy == 5
        for vpn in range(VPN, VPN + 5):
            assert not tlb.contains(vpn, asid=1)
            assert tlb.lookup(vpn, asid=2) == vpn + 100

    def test_two_level_tlb_isolation(self):
        tlb = TwoLevelTLB(l1_entries=4, l2_entries=16)
        tlb.insert(VPN, 111, asid=1)
        pfn, _ = tlb.lookup(VPN, asid=2)
        assert pfn is None
        pfn, _ = tlb.lookup(VPN, asid=1)
        assert pfn == 111
        assert tlb.invalidate_asid(1) >= 1
        assert not tlb.contains(VPN, asid=1)

    def test_tpreg_asid_mismatch_never_skips(self):
        reg = TPreg()
        mmu_a = MMU(neummu_config(), table_mapping(10))
        table_b = table_mapping(500)
        mmu_a.register_context(1, table_b)
        walk_a = mmu_a.resolver.resolve_vpn(VPN)
        walk_b = mmu_a.resolver_for(1).resolve_vpn(VPN)
        assert walk_a.path == walk_b.path  # identical VA layout...
        reg.fill(walk_a)
        assert reg.lookup(walk_b) == 0  # ...but no cross-context skip
        assert reg.lookup(walk_a) == len(walk_a.path)
        reg.invalidate_asid(1)
        assert reg.path is not None  # holds asid 0's path
        reg.invalidate_asid(0)
        assert reg.path is None

    @pytest.mark.parametrize("cache_cls", [TranslationPathCache, UnifiedPageTableCache])
    def test_shared_path_caches_are_asid_tagged(self, cache_cls):
        mmu = MMU(neummu_config(), table_mapping(10))
        mmu.register_context(1, table_mapping(500))
        walk_a = mmu.resolver.resolve_vpn(VPN)
        walk_b = mmu.resolver_for(1).resolve_vpn(VPN)
        cache = cache_cls(16)
        cache.fill(walk_a)
        assert cache.lookup(walk_b) == 0
        assert cache.lookup(walk_a) > 0
        cache.invalidate_asid(0)
        assert cache.lookup(walk_a) == 0


class TestMMUContexts:
    def test_contexts_translate_to_their_own_frames(self):
        mmu = MMU(neummu_config(), table_mapping(10))
        mmu.register_context(1, table_mapping(500))
        walk_a = mmu.resolver_for(0).resolve_vpn(VPN)
        walk_b = mmu.resolver_for(1).resolve_vpn(VPN)
        assert walk_a.pfn == 10
        assert walk_b.pfn == 500
        assert walk_a.asid == 0 and walk_b.asid == 1

    def test_no_cross_context_tlb_pts_hits(self):
        """Context 1 walking a VPN gives context 2 no TLB hit, no merge."""
        config = MMUConfig(name="x", n_walkers=4, prmb_slots=4)
        mmu = MMU(config, None)
        mmu.register_context(1, table_mapping(10))
        mmu.register_context(2, table_mapping(500))
        ready, _ = mmu.translate(VPN, 0.0, asid=1)
        assert ready is not None
        # Context 1's walk is in flight: context 2 must not merge into it.
        assert mmu.pts.peek(VPN, asid=1) is not None
        assert mmu.pts.peek(VPN, asid=2) is None
        merges_before = mmu.stats.merges
        mmu.translate(VPN, 1.0, asid=2)
        assert mmu.stats.merges == merges_before
        mmu.drain()
        # Both walks retired into distinct, correctly-tagged TLB entries.
        assert mmu.tlb.lookup(VPN, asid=1) == 10
        assert mmu.tlb.lookup(VPN, asid=2) == 500
        assert mmu.tlb.lookup(VPN) is None

    def test_same_context_still_merges(self):
        config = MMUConfig(name="x", n_walkers=4, prmb_slots=4)
        mmu = MMU(config, None)
        mmu.register_context(1, table_mapping(10))
        mmu.translate(VPN, 0.0, asid=1)
        mmu.translate(VPN, 1.0, asid=1)
        assert mmu.stats.merges == 1

    def test_unregistered_asid_raises(self):
        mmu = MMU(neummu_config(), table_mapping(10))
        with pytest.raises(KeyError):
            mmu.translate(VPN, 0.0, asid=9)
        with pytest.raises(KeyError):
            mmu.resolver_for(9)

    def test_missing_default_context_raises_keyerror_too(self):
        """ASID 0 gets the same documented KeyError as any other ASID."""
        mmu = MMU(neummu_config(), None)
        mmu.register_context(1, table_mapping(10))
        with pytest.raises(KeyError):
            mmu.translate(VPN, 0.0)
        mmu2 = MMU(oracle_config(), table_mapping(10))
        mmu2.destroy_context(0)
        with pytest.raises(KeyError):
            mmu2.translate(VPN, 0.0)

    def test_duplicate_or_invalid_registration_rejected(self):
        mmu = MMU(neummu_config(), table_mapping(10))
        with pytest.raises(ValueError):
            mmu.register_context(0, table_mapping(99))
        with pytest.raises(ValueError):
            mmu.register_context(-1, table_mapping(99))

    def test_destroy_context_shoots_everything_down(self):
        mmu = MMU(neummu_config(), table_mapping(10))
        mmu.register_context(1, table_mapping(500))
        mmu.translate(VPN, 0.0, asid=1)
        mmu.drain()
        assert mmu.tlb.contains(VPN, asid=1)
        mmu.destroy_context(1)
        assert not mmu.tlb.contains(VPN, asid=1)
        assert 1 not in mmu.contexts
        with pytest.raises(KeyError):
            mmu.destroy_context(1)

    def test_destroy_context_mid_flight_poisons_only_that_tenant(self):
        """Teardown with walks in flight must neither resurrect the dead
        context's translations nor disturb other tenants' walks."""
        mmu = MMU(neummu_config(), table_mapping(10))
        mmu.register_context(1, table_mapping(500))
        mmu.translate(VPN, 0.0, asid=0)
        mmu.translate(VPN, 1.0, asid=1)  # in flight at teardown
        mmu.destroy_context(1)
        assert mmu.pts.in_flight_for(1) == 0
        assert mmu.pts.in_flight_for(0) == 1  # tenant 0 untouched
        mmu.drain()
        assert mmu.tlb.lookup(VPN, asid=1) is None
        assert mmu.tlb.lookup(VPN, asid=0) == 10

    def test_shootdown_drops_tlb_and_memoized_walk(self):
        """A migrated page must never translate to its old PFN."""
        table = table_mapping(10)
        mmu = MMU(neummu_config(), table)
        mmu.translate(VPN, 0.0)
        mmu.drain()
        assert mmu.tlb.lookup(VPN) == 10
        # Migrate: remap the page to a new frame.
        table.map_page(BASE, 4321)
        mmu.shootdown(VPN)
        assert mmu.tlb.lookup(VPN) is None
        assert mmu.resolver.resolve_vpn(VPN).pfn == 4321
        ready, _ = mmu.translate(VPN, 100.0)
        assert ready is not None
        mmu.drain()
        assert mmu.tlb.lookup(VPN) == 4321

    def test_shootdown_poisons_in_flight_walk(self):
        """A walk racing the shootdown must not resurrect the stale PFN."""
        table = table_mapping(10)
        mmu = MMU(neummu_config(), table)
        mmu.translate(VPN, 0.0)  # walk for PFN 10 now in flight
        table.map_page(BASE, 4321)  # migrate mid-walk
        mmu.shootdown(VPN)
        assert mmu.pts.peek(VPN) is None  # nothing can merge into it
        mmu.drain()  # the poisoned walk completes...
        assert mmu.tlb.lookup(VPN) is None  # ...without filling the TLB
        assert not mmu._poisoned_walkers  # and the poison mark is consumed
        ready, _ = mmu.translate(VPN, 1000.0)
        assert ready is not None
        mmu.drain()
        assert mmu.tlb.lookup(VPN) == 4321

    def test_fresh_walk_after_shootdown_fills_normally(self):
        """The poison belongs to the stale walk, not the page: a new walk
        started after the shootdown installs the new PFN even while the
        old walk is still in flight."""
        table = table_mapping(10)
        mmu = MMU(neummu_config(), table)
        mmu.translate(VPN, 0.0)  # stale walk in flight
        table.map_page(BASE, 4321)
        mmu.shootdown(VPN)
        ready, _ = mmu.translate(VPN, 1.0)  # fresh walk, new PFN
        assert ready is not None
        mmu.drain()  # retires both walks
        assert mmu.tlb.lookup(VPN) == 4321
        assert not mmu._poisoned_walkers

    def test_poison_is_per_page_and_per_asid(self):
        config = MMUConfig(name="x", n_walkers=8, prmb_slots=0)
        mmu = MMU(config, table_mapping(10))
        mmu.register_context(1, table_mapping(500))
        mmu.translate(VPN, 0.0, asid=0)
        mmu.translate(VPN, 1.0, asid=1)
        mmu.translate(VPN + 1, 2.0, asid=0)
        mmu.shootdown(VPN, asid=0)  # poison only (asid 0, VPN)
        mmu.drain()
        assert mmu.tlb.lookup(VPN, asid=0) is None
        assert mmu.tlb.lookup(VPN, asid=1) == 500
        assert mmu.tlb.lookup(VPN + 1, asid=0) == 11


class TestSharedMMU:
    def test_tenant_usage_attribution_sums_to_total(self):
        shared = SharedMMU(neummu_config())
        shared.add_tenant(0, table_mapping(10))
        shared.add_tenant(1, table_mapping(500))
        txs = [(BASE + k * 256, 256) for k in range(512)]
        shared.run_bursts(0, [txs], 0.0)
        shared.run_bursts(1, [txs], 0.0)
        stats = shared.mmu.stats
        assert sum(u.requests for u in shared.usage.values()) == stats.requests
        assert sum(u.merges for u in shared.usage.values()) == stats.merges
        assert shared.usage[0].requests == len(txs)
        assert shared.usage[1].requests == len(txs)

    def test_remove_tenant_keeps_usage_readable(self):
        shared = SharedMMU(neummu_config())
        shared.add_tenant(0, table_mapping(10))
        txs = [(BASE + k * 256, 256) for k in range(64)]
        shared.run_bursts(0, [txs], 0.0)
        usage = shared.remove_tenant(0)
        assert usage.requests == 64
        assert 0 not in shared.mmu.contexts

    def test_oracle_shared_mmu_counts_requests(self):
        shared = SharedMMU(oracle_config())
        shared.add_tenant(3, table_mapping(10))
        txs = [(BASE + k * 256, 256) for k in range(64)]
        shared.run_bursts(3, [txs], 0.0)
        assert shared.usage[3].requests == 64
        assert shared.usage[3].walks == 0
        # RunSummary's oracle convention carries over: free hits.
        assert shared.usage[3].tlb_hit_rate == 1.0

    def test_remove_tenant_mid_flight_leaves_others_undisturbed(self):
        shared = SharedMMU(MMUConfig(name="x", n_walkers=8, prmb_slots=0))
        shared.add_tenant(0, table_mapping(10))
        shared.add_tenant(1, table_mapping(500))
        shared.mmu.translate(VPN, 0.0, asid=0)
        shared.mmu.translate(VPN, 1.0, asid=1)
        shared.remove_tenant(1)
        # Tenant 0's walk is still in flight — not retired early.
        assert shared.mmu.pts.in_flight_for(0) == 1
        shared.mmu.drain()
        assert shared.mmu.tlb.lookup(VPN, asid=0) == 10
        assert shared.mmu.tlb.lookup(VPN, asid=1) is None


class TestMultiTenantSimulator:
    @pytest.fixture(scope="class")
    def isolated(self):
        return {
            name: run_workload(tiny_workload(), config)
            for name, config in (
                ("iommu", baseline_iommu_config()),
                ("neummu", neummu_config()),
            )
        }

    def test_single_tenant_matches_isolated_exactly(self, isolated):
        """A 1-tenant shared run is the single-tenant simulator, bit for bit."""
        for name, config in (
            ("iommu", baseline_iommu_config()),
            ("neummu", neummu_config()),
        ):
            shared = run_multi_tenant(tiny_workload, config, 1)
            assert shared.tenants[0].total_cycles == isolated[name].total_cycles
            assert (
                shared.mmu_summary.requests == isolated[name].mmu_summary.requests
            )

    @pytest.mark.parametrize("config_factory", [baseline_iommu_config, neummu_config])
    def test_sharing_never_speeds_a_tenant_up(self, config_factory, isolated):
        config = config_factory()
        result = run_multi_tenant(tiny_workload, config, 2)
        iso_cycles = isolated[config.name].total_cycles
        for tenant in result.tenants:
            assert tenant.total_cycles >= iso_cycles * 0.999
        assert result.makespan_cycles == max(
            t.total_cycles for t in result.tenants
        )

    def test_iommu_contends_harder_than_neummu(self, isolated):
        """The 8-walker IOMMU's shared-pool slowdown dwarfs NeuMMU's."""
        slow = {}
        for name, config in (
            ("iommu", baseline_iommu_config()),
            ("neummu", neummu_config()),
        ):
            result = run_multi_tenant(tiny_workload, config, 2)
            iso = isolated[name].total_cycles
            slow[name] = max(t.total_cycles for t in result.tenants) / iso
        assert slow["iommu"] > slow["neummu"]

    def test_per_tenant_requests_match_isolated_workload(self, isolated):
        result = run_multi_tenant(tiny_workload, neummu_config(), 2)
        expected = isolated["neummu"].mmu_summary.requests
        for tenant in result.tenants:
            assert tenant.usage.requests == expected
        assert result.mmu_summary.requests == 2 * expected

    def test_priority_runs_first_tenant_at_isolated_speed(self, isolated):
        result = run_multi_tenant(
            tiny_workload, neummu_config(), 2, arbitration="priority"
        )
        t0, t1 = result.tenants
        assert t0.total_cycles == isolated["neummu"].total_cycles
        assert t1.total_cycles > t0.total_cycles

    def test_heterogeneous_tenants(self):
        sim = MultiTenantSimulator(
            [tiny_workload(tag="a"), tiny_workload(batch=2, tag="b")],
            neummu_config(),
        )
        result = sim.run()
        assert len(result.tenants) == 2
        assert result.tenants[0].workload != result.tenants[1].workload
        assert result.tenant(1).usage.requests > result.tenant(0).usage.requests

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiTenantSimulator([], neummu_config())
        with pytest.raises(ValueError):
            MultiTenantSimulator(
                [tiny_workload()], neummu_config(), arbitration="coin_flip"
            )
        with pytest.raises(ValueError):
            run_multi_tenant(tiny_workload, neummu_config(), 0)
        with pytest.raises(ValueError):
            NPUSimulator(
                tiny_workload(),
                neummu_config(),
                shared_mmu=SharedMMU(neummu_config()),
                timeline_window=100,
            )
