"""Tests for the sparse case study: links, sharding, recsys, demand paging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mmu import baseline_iommu_config, neummu_config, oracle_config
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.npu.config import InterconnectConfig, NPUConfig
from repro.sparse.demand_paging import (
    DemandPagingConfig,
    DemandPagingSimulator,
    demand_paging_cell,
)
from repro.sparse.multi_npu import shard_model
from repro.sparse.numa import HostRuntime, LinkModel, nvlink_link, pcie_link
from repro.sparse.recsys import TRANSPORTS, LatencyBreakdown, RecSysSystem
from repro.workloads.embedding import dlrm, ncf

MB = 1024 * 1024


class TestLinkModel:
    def test_bulk_transfer(self):
        link = LinkModel("x", latency_cycles=150, bandwidth_bytes_per_cycle=16)
        assert link.bulk_transfer_cycles(1600) == pytest.approx(150 + 100)
        assert link.bulk_transfer_cycles(0) == 0.0

    def test_efficiency_derates_bandwidth(self):
        link = LinkModel("x", 0, 100, efficiency=0.5)
        assert link.effective_bandwidth == 50

    def test_gather_latency_vs_bandwidth_bound(self):
        link = LinkModel("x", latency_cycles=100, bandwidth_bytes_per_cycle=1000)
        # Tiny requests: latency-bound (n * lat / outstanding).
        lat_bound = link.gather_cycles(64, 8, outstanding=4)
        assert lat_bound == pytest.approx(100 + 64 * 100 / 4)
        # Huge requests: bandwidth-bound.
        bw_bound = link.gather_cycles(64, 100_000, outstanding=64)
        assert bw_bound == pytest.approx(100 + 64 * 100_000 / 1000)

    def test_table1_links(self):
        inter = InterconnectConfig()
        pcie = pcie_link(inter)
        nvl = nvlink_link(inter)
        assert pcie.bandwidth_bytes_per_cycle == 16
        assert nvl.bandwidth_bytes_per_cycle == 160
        assert pcie.latency_cycles == 150

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel("x", -1, 10)
        with pytest.raises(ValueError):
            LinkModel("x", 0, 0)
        with pytest.raises(ValueError):
            LinkModel("x", 0, 10, efficiency=1.5)
        link = LinkModel("x", 0, 10)
        with pytest.raises(ValueError):
            link.bulk_transfer_cycles(-1)
        with pytest.raises(ValueError):
            link.gather_cycles(1, 1, outstanding=0)

    def test_host_runtime_staging(self):
        host = HostRuntime(host_memory_bandwidth_bytes_per_cycle=100)
        assert host.staging_copy_cycles(1000) == pytest.approx(10.0)


class TestSharding:
    def test_round_robin_placement(self):
        sharded = shard_model(dlrm(), 4)
        assert sharded.owner_of(0) == 0
        assert sharded.owner_of(5) == 1
        assert len(sharded.local_tables(0)) == 2  # 8 tables over 4 NPUs

    def test_all_tables_placed_once(self):
        sharded = shard_model(dlrm(), 4)
        placed = [t.name for shard in sharded.shards for t in shard.tables]
        assert sorted(placed) == sorted(t.name for t in dlrm().tables)

    def test_alltoall_volume_conservation(self):
        """Total bytes sent equals total bytes received."""
        sharded = shard_model(dlrm(), 4)
        batch = 64
        sent = sum(sharded.alltoall_send_bytes(n, batch) for n in range(4))
        received = sum(sharded.alltoall_recv_bytes(n, batch) for n in range(4))
        assert sent == received == sharded.alltoall_total_bytes(batch)

    def test_uneven_batch_and_tables_still_conserve(self):
        """The seed's rounded send/recv formulas leaked bytes whenever
        batch % n_npus != 0 (dlrm, 3 NPUs, batch 64: 2,796,202 sent vs
        2,752,512 received); the shared matrix cannot."""
        for n_npus, batch in ((3, 64), (4, 130), (5, 7), (7, 1)):
            sharded = shard_model(dlrm(), n_npus)
            sent = sum(sharded.alltoall_send_bytes(i, batch) for i in range(n_npus))
            recv = sum(sharded.alltoall_recv_bytes(i, batch) for i in range(n_npus))
            assert sent == recv == sharded.alltoall_total_bytes(batch)

    @settings(max_examples=60, deadline=None)
    @given(
        n_npus=st.integers(min_value=1, max_value=12),
        batch=st.integers(min_value=1, max_value=512),
        n_tables=st.integers(min_value=1, max_value=17),
        dim=st.sampled_from([16, 64, 96]),
    )
    def test_alltoall_conservation_property(self, n_npus, batch, n_tables, dim):
        """sum(sends) == sum(recvs) over randomized shardings, and the
        per-(sender, receiver) matrix is consistent with both projections."""
        from repro.workloads.embedding import (
            EmbeddingTableSpec,
            MLPStack,
            RecSysModel,
        )

        model = RecSysModel(
            name="prop",
            tables=tuple(
                EmbeddingTableSpec(f"t{i}", rows=1000, dim=dim)
                for i in range(n_tables)
            ),
            lookups_per_table=1,
            bottom_mlp=None,
            top_mlp=MLPStack("top", (dim, 1)),
            interaction="elementwise",
        )
        sharded = shard_model(model, n_npus)
        matrix = sharded.alltoall_matrix(batch)
        sends = [sharded.alltoall_send_bytes(i, batch) for i in range(n_npus)]
        recvs = [sharded.alltoall_recv_bytes(i, batch) for i in range(n_npus)]
        assert sum(sends) == sum(recvs) == sharded.alltoall_total_bytes(batch)
        for npu in range(n_npus):
            assert sends[npu] == sum(matrix[npu])
            assert recvs[npu] == sum(row[npu] for row in matrix)
            assert matrix[npu][npu] == 0
        assert sum(sharded.batch_slices(batch)) == batch
        per_npu = sharded.lookup_bytes_per_npu(batch)
        assert len(per_npu) == n_npus
        assert sharded.max_lookup_bytes(batch) == max(per_npu)

    def test_single_npu_has_no_exchange(self):
        sharded = shard_model(ncf(), 1)
        assert sharded.alltoall_total_bytes(64) == 0

    def test_owner_bounds(self):
        sharded = shard_model(ncf(), 2)
        with pytest.raises(IndexError):
            sharded.owner_of(99)

    def test_rejects_zero_npus(self):
        with pytest.raises(ValueError):
            shard_model(ncf(), 0)


class TestRecSysLatency:
    @pytest.fixture(scope="class", params=["ncf", "dlrm"])
    def system(self, request):
        model = ncf() if request.param == "ncf" else dlrm()
        return RecSysSystem(model, n_npus=4)

    def test_breakdown_components_positive(self, system):
        bars = system.compare_transports(batch=8)
        for breakdown in bars.values():
            assert breakdown.gemm > 0
            assert breakdown.embedding > 0
            assert breakdown.other > 0
            assert breakdown.total > 0

    def test_transport_ordering(self, system):
        """Figure 15's ordering: baseline ≥ NUMA(slow) ≥ NUMA(fast)."""
        for batch in (1, 8, 64):
            bars = system.compare_transports(batch)
            assert bars["baseline"].total >= bars["numa_slow"].total
            assert bars["numa_slow"].total >= bars["numa_fast"].total * 0.999

    def test_only_embedding_phase_changes(self, system):
        bars = system.compare_transports(batch=8)
        gemms = {t: bars[t].gemm for t in TRANSPORTS}
        assert len(set(gemms.values())) == 1

    def test_baseline_embedding_dominates(self, system):
        """Figure 15: the MMU-less copy path makes embedding the largest
        latency component."""
        breakdown = system.run_batch(8, "baseline")
        assert breakdown.embedding > breakdown.gemm

    def test_normalization(self, system):
        breakdown = system.run_batch(8, "baseline")
        norm = breakdown.normalized_to(breakdown)
        assert norm["total"] == pytest.approx(1.0)
        parts = norm["gemm"] + norm["reduction"] + norm["other"] + norm["embedding"]
        assert parts == pytest.approx(1.0)

    def test_invalid_transport_rejected(self, system):
        with pytest.raises(ValueError):
            system.run_batch(8, "teleport")
        with pytest.raises(ValueError):
            system.run_batch(0, "baseline")


FAST_DP = DemandPagingConfig(batches=12, warm_batches=5, table_rows=200_000,
                             local_budget_bytes=48 * MB)


class TestDemandPaging:
    def test_faults_and_migration_happen(self):
        result = demand_paging_cell(
            dlrm(), oracle_config(PAGE_SIZE_4K), batch=8, system=FAST_DP
        )
        assert result.faults_per_batch > 0
        assert result.migrated_bytes_per_batch > 0

    def test_local_tables_never_fault_alone(self):
        """With a single NPU every table is local: no faults at all."""
        system = DemandPagingConfig(
            batches=4, warm_batches=1, table_rows=50_000, n_npus=1
        )
        result = demand_paging_cell(
            ncf(), oracle_config(PAGE_SIZE_4K), batch=4, system=system
        )
        assert result.faults_per_batch == 0

    def test_budget_respected(self):
        sim = DemandPagingSimulator(
            dlrm(), oracle_config(PAGE_SIZE_4K), batch=8, system=FAST_DP
        )
        sim.run()
        assert sim._resident_bytes <= FAST_DP.local_budget_bytes

    def test_figure16_orderings(self):
        """The paper's Figure 16 shape: NeuMMU(4K) ≈ oracle ≫ IOMMU(4K);
        2 MB pages are catastrophic regardless of MMU."""
        oracle = demand_paging_cell(
            dlrm(), oracle_config(PAGE_SIZE_4K), batch=8, system=FAST_DP
        )
        neummu_4k = demand_paging_cell(
            dlrm(), neummu_config(page_size=PAGE_SIZE_4K), batch=8, system=FAST_DP
        )
        iommu_4k = demand_paging_cell(
            dlrm(), baseline_iommu_config(page_size=PAGE_SIZE_4K), batch=8,
            system=FAST_DP,
        )
        neummu_2m = demand_paging_cell(
            dlrm(), neummu_config(page_size=PAGE_SIZE_2M), batch=8, system=FAST_DP
        )
        ref = oracle.total_cycles_per_batch
        assert ref / neummu_4k.total_cycles_per_batch > 0.9
        assert ref / iommu_4k.total_cycles_per_batch < 0.6
        assert ref / neummu_2m.total_cycles_per_batch < 0.5

    def test_2mb_migrates_more_bytes(self):
        small = demand_paging_cell(
            dlrm(), oracle_config(PAGE_SIZE_4K), batch=8, system=FAST_DP
        )
        large = demand_paging_cell(
            dlrm(), oracle_config(PAGE_SIZE_2M), batch=8, system=FAST_DP
        )
        assert large.migrated_bytes_per_batch > small.migrated_bytes_per_batch * 10

    @pytest.mark.parametrize(
        "config_factory", [oracle_config, neummu_config, baseline_iommu_config]
    )
    def test_migrated_pages_never_translate_to_stale_pfns(self, config_factory):
        """Migration shootdown regression: after a full fault/evict/refault
        run, every cached translation — memoized walks and TLB entries —
        agrees with the page table's *current* frame for that page."""
        thrash = DemandPagingConfig(
            batches=12, warm_batches=5, table_rows=200_000,
            local_budget_bytes=1 * MB,  # force eviction + frame recycling
        )
        sim = DemandPagingSimulator(
            dlrm(), config_factory(PAGE_SIZE_4K), batch=8, system=thrash
        )
        sim.run()
        assert sim.evictions > 0  # the run genuinely recycled frames
        table = sim.space.page_table
        resolver = sim.mmu.resolver
        checked = 0
        for vpn, cached in list(resolver._cache.items()):
            if cached is None:
                continue
            va = vpn << sim._vpn_shift
            assert table.is_mapped(va), f"memoized walk for unmapped VPN 0x{vpn:x}"
            assert cached.pfn == table.walk(va).pfn
            checked += 1
        assert checked > 0
        if sim.mmu.tlb is not None:
            for vpn, pfn in sim.mmu.tlb._set.items():
                va = vpn << sim._vpn_shift
                assert table.is_mapped(va), f"stale TLB entry 0x{vpn:x}"
                assert pfn == table.walk(va).pfn

    def test_zipf_reuse_reduces_faults_over_time(self):
        """After warm-up, hot pages are resident: steady-state faults per
        batch must be well below the cold-start worst case."""
        sim = DemandPagingSimulator(
            dlrm(), oracle_config(PAGE_SIZE_4K), batch=8, system=FAST_DP
        )
        result = sim.run()
        lookups = max(1, 8 // FAST_DP.n_npus) * dlrm().lookups_per_sample
        remote_fraction = 0.75  # 6 of 8 tables are remote
        worst_case = lookups * remote_fraction
        assert result.faults_per_batch < worst_case * 0.8
