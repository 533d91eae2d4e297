"""Shape tests for the per-figure experiments: the paper's claims.

``neummu run <figure>`` renders a figure (``--batches 1 4 8`` for the
paper's full grid); this module holds its qualitative claims.  Each
experiment runs on a trimmed grid and its *shape* assertions (who wins,
by what factor, where the knees fall) are checked.  Committed goldens
(``tests/*_default*``, ``tests/*_b08*``), compared byte for byte in CI,
pin the rendered values themselves.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis import (
    ExperimentRunner,
    ParallelRunner,
    dense_pairs,
    fig6_page_divergence,
    fig7_translation_bursts,
    fig8_baseline_iommu,
    fig10_prmb_sweep,
    fig11_ptw_sweep,
    fig12a_ptw_no_prmb,
    fig12b_energy_sweep,
    fig13_tpreg_hit_rates,
    fig14_va_trace,
    fig15_numa,
    fig16_demand_paging,
    headline_claims,
    large_pages_dense,
    multilevel_tlb_ablation,
    overhead_area,
    prefetch_ablation,
    sensitivity_large_batch,
    sensitivity_tlb,
    spatial_npu,
    table1_config,
    tpc_vs_uptc,
)
from repro.sparse.demand_paging import DemandPagingConfig

B1 = (1,)
MB = 1024 * 1024

#: Default-grid Figure 6 rows, rendered by the per-row loop decomposition.
FIG6_DEFAULT_GRID = Path(__file__).with_name("fig6_default_grid.json")

#: ``run fig7 --out DIR``'s render of the default grid.
FIG7_DEFAULT = Path(__file__).with_name("fig7_default.txt")


@pytest.fixture(scope="module")
def runner():
    """Shared runner: its memo answers each distinct run once per module.

    Oracles and any cell two tests both request are simulated once and
    then served as the same stored result.
    """
    return ExperimentRunner()


class TestStaticFigures:
    def test_table1_values(self):
        fig = table1_config()
        assert fig.value("memory bandwidth (GB/s)", "value") == 600
        assert fig.value("IOMMU walkers", "value") == 8

    def test_overhead_matches_paper(self):
        fig = overhead_area()
        assert fig.value("PRMB", "kb") == 32.0
        assert fig.value("TPreg", "kb") == 2.0
        assert fig.value("total", "area_mm2") == pytest.approx(0.10, rel=0.1)

    def test_dense_pairs_grid(self):
        assert len(dense_pairs((1,))) == 6
        assert len(dense_pairs((1, 8))) == 12


class TestCharacterization:
    def test_fig6_divergence_scale(self):
        fig = fig6_page_divergence(batches=B1)
        # Section III-C: multi-MB tiles touch >1K distinct pages.
        assert max(fig.column("max_pages")) > 1000
        assert all(m >= a for m, a in zip(fig.column("max_pages"), fig.column("avg_pages")))

    def test_fig6_default_grid_matches_pinned_rows(self):
        # Every network at b01/b04/b08.  Only b04/b08 have IA tiles that
        # loop over several batch rows (CNN-3 splits H under the full
        # batch), so the b01 grid alone misses that outer level.
        pinned = json.loads(FIG6_DEFAULT_GRID.read_text())
        fig = fig6_page_divergence()
        assert [dict(label=r.label, **r.values) for r in fig.rows] == pinned

    def test_fig7_bursts_saturate_issue_port(self):
        fig = fig7_translation_bursts()
        assert [row.label for row in fig.rows] == ["CNN-1/b01", "RNN-1/b01"]
        assert fig.value("RNN-1/b01", "peak") == 1000
        assert fig.value("RNN-1/b01", "full_rate_frac") > 0.5
        assert fig.mean("full_rate_frac") > 0.5
        # Pinned absolutely: timeline capture runs only the reference
        # loop, so no engine-mode diff can check this figure.
        assert fig.render() + "\n" == FIG7_DEFAULT.read_text()

    def test_fig14_trace_ascends_within_stream(self):
        fig = fig14_va_trace(max_rows=10)
        assert fig.rows
        w_rows = [r for r in fig.rows if r.label.startswith("w@")]
        starts = [r.values["va_lo_mb"] for r in w_rows[:3]]
        assert starts == sorted(starts)


class _FirstBatch(Exception):
    """Raised once a figure's first batch has been recorded."""


class TestOneBatchPerFigure:
    """Each figure hands the runner its whole grid in one batch call."""

    @pytest.mark.parametrize(
        "experiment, oracles, cells",
        [
            (tpc_vs_uptc, 0, 12),
            (spatial_npu, 6, 12),
            (sensitivity_tlb, 6, 18),
            (prefetch_ablation, 6, 24),
            (multilevel_tlb_ablation, 6, 12),
        ],
    )
    def test_first_batch_is_the_whole_grid(self, experiment, oracles, cells):
        batches = []

        def first_batch(self, requests):
            batches.append(list(requests))
            raise _FirstBatch

        with mock.patch.object(ParallelRunner, "run_many", first_batch):
            with pytest.raises(_FirstBatch):
                experiment()
        [batch] = batches
        assert len(batch) == oracles + cells
        assert sum(r.mmu_config.oracle for r in batch) == oracles
        labels = [label for label, _ in dense_pairs(B1)]
        assert sorted({r.label for r in batch}) == sorted(labels)


@pytest.mark.slow
class TestDenseResults:
    """Dense sweep suite — tens of seconds; excluded from the fast tier."""

    def test_fig8_iommu_loss(self, runner):
        fig = fig8_baseline_iommu(batches=B1, runner=runner)
        # Paper: ~95% average overhead.
        assert fig.mean("normalized_perf") < 0.25

    def test_tpc_skips_at_least_as_much_as_uptc(self, runner):
        fig = tpc_vs_uptc(batches=B1, runner=runner)
        # Section IV-C: virtual-path tags skip at least as many walk
        # references as physical-entry tags.
        assert fig.mean("tpc_skip_rate") >= fig.mean("uptc_skip_rate") - 0.01

    def test_spatial_npu_neummu_near_oracle(self):
        fig = spatial_npu(batches=B1)
        # Section VI-B: NeuMMU stays within a few percent of the oracle.
        assert fig.mean("neummu_perf") > 0.95
        assert fig.mean("iommu_perf") < fig.mean("neummu_perf")

    def test_large_batch_common_layers(self, runner):
        fig = sensitivity_large_batch(batches=(32,), runner=runner)
        # Section VI-C: IOMMU ~5.9% of oracle at large batch; NeuMMU ~99.9%.
        assert fig.mean("neummu_perf") > 0.95
        assert fig.mean("iommu_perf") < 0.3

    def test_prefetch_cannot_replace_merging(self, runner):
        fig = prefetch_ablation(depths=(0, 4), batches=B1, runner=runner)
        # Prefetching never hurts but stays far from the oracle:
        # translation throughput, not anticipation, is the constraint.
        assert fig.mean("pf4") >= fig.mean("pf0") - 0.01
        assert fig.mean("pf4") < 0.7

    def test_multilevel_tlb_barely_helps(self, runner):
        fig = multilevel_tlb_ablation(batches=B1, runner=runner)
        # Section III-C: an L1/L2 TLB hierarchy moves the IOMMU by at
        # most a few percent.
        assert abs(fig.mean("two_level") - fig.mean("single_level")) < 0.05

    def test_fig10_prmb_monotone(self, runner):
        fig = fig10_prmb_sweep(slots=(1, 8, 32), batches=B1, runner=runner)
        assert fig.mean("prmb1") <= fig.mean("prmb8") + 0.01
        assert fig.mean("prmb8") <= fig.mean("prmb32") + 0.01

    def test_fig11_128_walkers_near_oracle(self, runner):
        fig = fig11_ptw_sweep(ptws=(8, 128), batches=B1, runner=runner)
        assert fig.mean("ptw128") > 0.95
        assert fig.mean("ptw8") < fig.mean("ptw128")

    def test_fig12a_needs_many_walkers_without_prmb(self, runner):
        fig = fig12a_ptw_no_prmb(ptws=(128, 1024), batches=B1, runner=runner)
        # Without merging, 128 walkers are NOT enough...
        assert fig.mean("ptw128") < 0.9
        # ...but 1024 get there (paper Figure 12a).
        assert fig.mean("ptw1024") > 0.9

    def test_fig12b_energy_grows_without_merging(self, runner):
        fig = fig12b_energy_sweep(
            pairs=((32, 128), (1, 4096)), batches=B1, runner=runner
        )
        nominal = fig.value("[32,128]", "normalized_energy")
        no_merge = fig.value("[1,4096]", "normalized_energy")
        # Paper: up to ~7.1x more energy without PRMB filtering.
        assert no_merge > 3 * nominal
        assert fig.value("[1,4096]", "normalized_perf") > 0.9

    def test_fig13_hit_rates_match_paper_bands(self, runner):
        fig = fig13_tpreg_hit_rates(batches=B1, runner=runner)
        assert fig.mean("l4") > 0.95
        assert fig.mean("l3") > 0.95
        assert 0.2 < fig.mean("l2") < 0.95

    def test_headline_claims(self, runner):
        fig = headline_claims(batches=B1, runner=runner)
        assert fig.mean("neummu_perf") > 0.97
        assert fig.mean("iommu_perf") < 0.25
        assert fig.mean("energy_ratio") > 3.0
        assert fig.mean("walk_access_ratio") > 3.0

    def test_large_pages_fix_dense_iommu(self, runner):
        fig = large_pages_dense(batches=B1, runner=runner)
        assert fig.mean("iommu_2m") > 0.85
        assert fig.mean("iommu_2m") > fig.mean("iommu_4k") + 0.3
        assert fig.mean("neummu_2m") > 0.95

    def test_sensitivity_tlb_barely_helps(self, runner):
        fig = sensitivity_tlb(entries_sweep=(128, 2048), batches=B1, runner=runner)
        small = fig.mean("tlb128")
        big = fig.mean("tlb2048")
        # Section III-C: TLB capacity is not the bottleneck.
        assert abs(big - small) < 0.05


class TestSparseResults:
    def test_fig15_numa_orderings(self):
        fig = fig15_numa(batches=(8, 64))
        for model in ("NCF", "DLRM"):
            for batch in ("b08", "b64"):
                base = fig.value(f"{model}/{batch}/baseline", "total")
                slow = fig.value(f"{model}/{batch}/numa_slow", "total")
                fast = fig.value(f"{model}/{batch}/numa_fast", "total")
                assert base == pytest.approx(1.0)
                assert fast <= slow <= base

    def test_fig16_shapes(self):
        trimmed = DemandPagingConfig(
            batches=10, warm_batches=4, table_rows=200_000,
            local_budget_bytes=48 * MB,
        )
        for system in (trimmed, DemandPagingConfig()):
            fig = fig16_demand_paging(batches=(8,), system=system)
            neummu_4k = fig.value("DLRM/b08/neummu/4K", "normalized_perf")
            iommu_4k = fig.value("DLRM/b08/iommu/4K", "normalized_perf")
            neummu_2m = fig.value("DLRM/b08/neummu/2M", "normalized_perf")
            # Paper: NeuMMU recovers small pages (~96% of oracle); large
            # pages are catastrophic for sparse access regardless of MMU.
            assert neummu_4k > 0.85, system
            assert iommu_4k < 0.6, system
            assert neummu_2m < 0.5, system


class TestHeterogeneousTenants:
    def test_tenants_mix_measures_each_tenant_against_itself(self):
        from repro.analysis import multi_tenant_contention

        fig = multi_tenant_contention(mix="recsys,RECSYS-2")
        labels = [row.label for row in fig.rows]
        assert labels == [
            f"{config}/t{asid}"
            for config in ("oracle", "iommu", "neummu")
            for asid in (0, 1)
        ]
        for row in fig.rows:
            # Heterogeneous tenants have different isolated baselines.
            assert row.values["isolated_mcycles"] > 0
            assert row.values["slowdown"] >= 0.99
        assert "RECSYS-1+RECSYS-2" in fig.title

    def test_tenants_mix_rejects_count_mismatch(self):
        from repro.analysis import multi_tenant_contention

        with pytest.raises(ValueError, match="does not match"):
            multi_tenant_contention(mix="recsys,RECSYS-2", tenants=3)

    def test_paging_tenants_budget_validation(self):
        from repro.analysis import paging_tenants

        with pytest.raises(ValueError, match="budgets"):
            paging_tenants(mix="recsys,RECSYS-2", budgets_mb=(32,))
