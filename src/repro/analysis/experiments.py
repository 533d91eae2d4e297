"""One experiment per paper table/figure.

Each ``fig*``/``tab*`` function regenerates the corresponding evaluation
artifact of the paper and returns a :class:`~repro.analysis.figures.FigureResult`.
Absolute cycle counts differ from the authors' in-house simulator; the
*shapes* — who wins, by what factor, where the knees fall — are the
reproduction targets (see EXPERIMENTS.md for the side-by-side record).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.mmu import MMUConfig, baseline_iommu_config, neummu_config, oracle_config
from ..core.qos import SHARE_POLICIES, default_arbitration, jain_index
from ..energy.accounting import energy_ratio, translation_energy
from ..energy.cacti import neummu_overhead
from ..memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from ..npu.config import NPUConfig
from ..npu.simulator import NPUSimulator
from ..npu.spatial import SpatialArrayModel
from ..sparse.demand_paging import DemandPagingConfig, demand_paging_cell
from ..sparse.recsys import TRANSPORTS, RecSysSystem
from ..workloads.embedding import dlrm, ncf
from ..workloads.registry import (
    DENSE_BATCHES,
    CommonLayerFactory,
    dense_workload,
)
from .figures import FigureResult, Series, geometric_mean
from .parallel import RunRequest, TenantRunRequest
from .runner import ExperimentRunner, dense_pairs

#: Figure 10's sweep of PRMB mergeable slots.
PRMB_SLOT_SWEEP = (1, 2, 4, 8, 16, 32)

#: Figures 11/12a's sweep of page-table walker counts.
PTW_SWEEP = (8, 16, 32, 64, 128, 256, 512, 1024)

#: Figure 12b's [PRMB slots, walkers] pairs with constant product 4096.
ENERGY_PAIRS = (
    (512, 8),
    (256, 16),
    (128, 32),
    (64, 64),
    (32, 128),
    (16, 256),
    (8, 512),
    (4, 1024),
    (2, 2048),
    (1, 4096),
)

#: Batched experiments whose ``batches`` is their own study axis, not the
#: dense figures' grid: the large-batch common-layer study (32/64/128)
#: and Figure 15's recsys batches (1/8/64).  ``run all --batches`` and
#: ``report --batches`` leave them on their own axes; naming one in
#: ``run`` still forwards ``--batches``.
OWN_BATCH_AXIS = frozenset({"sens_batch", "fig15"})


# --------------------------------------------------------------------- #
# Table I                                                                #
# --------------------------------------------------------------------- #


def table1_config() -> FigureResult:
    """Table I: the baseline NPU/IOMMU/system configuration."""
    cfg = NPUConfig()
    fig = FigureResult(
        figure_id="table1",
        title="Baseline NPU configuration",
        columns=["value"],
    )
    fig.add("systolic array", value=float(cfg.array_rows))
    fig.add("frequency (GHz)", value=cfg.frequency_hz / 1e9)
    fig.add("IA scratchpad (MB)", value=cfg.ia_spm_bytes / 2**20)
    fig.add("W scratchpad (MB)", value=cfg.w_spm_bytes / 2**20)
    fig.add("memory channels", value=float(cfg.memory.channels))
    fig.add("memory bandwidth (GB/s)", value=cfg.memory.bandwidth_bytes_per_cycle)
    fig.add("memory latency (cycles)", value=float(cfg.memory.access_latency_cycles))
    iommu = baseline_iommu_config()
    fig.add("IOTLB entries", value=float(iommu.tlb_entries))
    fig.add("TLB hit latency (cycles)", value=float(iommu.tlb_hit_latency))
    fig.add("IOMMU walkers", value=float(iommu.n_walkers))
    fig.add("walk latency/level (cycles)", value=float(iommu.walk_latency_per_level))
    inter = cfg.interconnect
    fig.add("NUMA latency (cycles)", value=float(inter.numa_latency_cycles))
    fig.add("CPU-NPU bandwidth (GB/s)", value=inter.cpu_npu_bandwidth_bytes_per_cycle)
    fig.add("NPU-NPU bandwidth (GB/s)", value=inter.npu_npu_bandwidth_bytes_per_cycle)
    return fig


# --------------------------------------------------------------------- #
# Figure 6 — page divergence                                             #
# --------------------------------------------------------------------- #


def fig6_page_divergence(
    batches: Sequence[int] = DENSE_BATCHES,
    npu_config: Optional[NPUConfig] = None,
) -> FigureResult:
    """Figure 6: max/avg distinct 4 KB pages per DMA tile fetch."""
    fig = FigureResult(
        figure_id="fig6",
        title="Page divergence per tile (4 KB pages)",
        columns=["max_pages", "avg_pages", "fetches"],
        notes=["paper: up to ~2000 max, hundreds on average per tile"],
    )
    for label, factory in dense_pairs(batches):
        sim = NPUSimulator(factory(), oracle_config(), npu_config=npu_config)
        divergence = sim.page_divergence()["all"]
        fig.add(
            label,
            max_pages=float(divergence.max_pages),
            avg_pages=divergence.mean_pages,
            fetches=float(divergence.fetches),
        )
    return fig


# --------------------------------------------------------------------- #
# Figure 7 — translation bursts                                          #
# --------------------------------------------------------------------- #


def fig7_translation_bursts(
    workloads: Sequence[str] = ("CNN-1", "RNN-1"),
    batch: int = 1,
    window: int = 1000,
) -> FigureResult:
    """Figure 7: translations requested per 1000-cycle window.

    Run under the oracle so the histogram reflects the *demanded* rate of
    the DMA (the paper's y-axis: 1000 ⇒ a full-rate burst).
    """
    fig = FigureResult(
        figure_id="fig7",
        title=f"Translation-request bursts ({window}-cycle windows)",
        columns=["windows", "peak", "mean", "busy_frac", "full_rate_frac"],
        notes=[
            "busy_frac: windows with any requests; full_rate_frac: windows at "
            ">=90% of the 1-per-cycle issue rate (the bursts of Fig. 7)",
        ],
    )
    for name in workloads:
        sim = NPUSimulator(
            dense_workload(name, batch),
            oracle_config(),
            timeline_window=window,
        )
        sim.run()
        series = sim.engine.timeline_series()
        counts = [count for _, count in series]
        if not counts:
            continue
        full = sum(1 for c in counts if c >= 0.9 * window)
        fig.add(
            f"{name}/b{batch:02d}",
            windows=float(len(counts)),
            peak=float(max(counts)),
            mean=sum(counts) / len(counts),
            busy_frac=1.0,
            full_rate_frac=full / len(counts),
        )
    return fig


# --------------------------------------------------------------------- #
# Figure 8 — baseline IOMMU                                              #
# --------------------------------------------------------------------- #


def fig8_baseline_iommu(
    batches: Sequence[int] = DENSE_BATCHES,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Figure 8: normalized performance of the baseline IOMMU (4 KB)."""
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="fig8",
        title="Baseline IOMMU normalized performance (4 KB pages)",
        columns=["normalized_perf"],
        notes=["paper: average ~0.05 (95% overhead)"],
    )
    config = baseline_iommu_config()
    pairs = dense_pairs(batches)
    requests = [RunRequest(label, factory, config) for label, factory in pairs]
    for (label, _), (norm, _) in zip(pairs, runner.normalized_many(requests)):
        fig.add(label, normalized_perf=norm)
    fig.notes.append(f"measured average: {fig.mean('normalized_perf'):.3f}")
    return fig


# --------------------------------------------------------------------- #
# Figure 10 — PRMB slot sweep                                            #
# --------------------------------------------------------------------- #


def fig10_prmb_sweep(
    slots: Sequence[int] = PRMB_SLOT_SWEEP,
    batches: Sequence[int] = DENSE_BATCHES,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Figure 10: sensitivity to PRMB mergeable slots (8 walkers)."""
    runner = runner or ExperimentRunner()
    columns = [f"prmb{n}" for n in slots]
    fig = FigureResult(
        figure_id="fig10",
        title="Normalized performance vs PRMB mergeable slots (8 PTWs)",
        columns=columns,
        notes=["paper: 8-32 slots capture the burst locality; avg plateau ~0.11"],
    )
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(
            label,
            factory,
            MMUConfig(name=f"prmb{n}", n_walkers=8, prmb_slots=n, path_cache="none"),
        )
        for label, factory in pairs
        for n in slots
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        values = {f"prmb{n}": next(normalized)[0] for n in slots}
        fig.rows.append(Series(label=label, values=values))
    for n in slots:
        fig.notes.append(f"avg prmb{n}: {fig.mean(f'prmb{n}'):.3f}")
    return fig


# --------------------------------------------------------------------- #
# Figures 11 / 12a — PTW scaling                                         #
# --------------------------------------------------------------------- #


def _ptw_sweep(
    figure_id: str,
    title: str,
    prmb_slots: int,
    ptws: Sequence[int],
    batches: Sequence[int],
    runner: Optional[ExperimentRunner],
    notes: List[str],
) -> FigureResult:
    runner = runner or ExperimentRunner()
    columns = [f"ptw{n}" for n in ptws]
    fig = FigureResult(figure_id=figure_id, title=title, columns=columns, notes=notes)
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(
            label,
            factory,
            MMUConfig(
                name=f"ptw{n}",
                n_walkers=n,
                prmb_slots=prmb_slots,
                path_cache="none",
            ),
        )
        for label, factory in pairs
        for n in ptws
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        values = {f"ptw{n}": next(normalized)[0] for n in ptws}
        fig.rows.append(Series(label=label, values=values))
    for n in ptws:
        fig.notes.append(f"avg ptw{n}: {fig.mean(f'ptw{n}'):.3f}")
    return fig


def fig11_ptw_sweep(
    ptws: Sequence[int] = PTW_SWEEP,
    batches: Sequence[int] = DENSE_BATCHES,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Figure 11: walker-count sweep with PRMB(32)."""
    return _ptw_sweep(
        "fig11",
        "Normalized performance vs PTW count (PRMB=32)",
        prmb_slots=32,
        ptws=ptws,
        batches=batches,
        runner=runner,
        notes=["paper: 8 PTWs ~0.11 avg; 128 PTWs ~0.99 avg"],
    )


def fig12a_ptw_no_prmb(
    ptws: Sequence[int] = PTW_SWEEP,
    batches: Sequence[int] = DENSE_BATCHES,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Figure 12a: walker-count sweep *without* PRMB."""
    return _ptw_sweep(
        "fig12a",
        "Normalized performance vs PTW count (no PRMB)",
        prmb_slots=0,
        ptws=ptws,
        batches=batches,
        runner=runner,
        notes=["paper: matching NeuMMU needs ~1024 walkers without merging"],
    )


# --------------------------------------------------------------------- #
# Figure 12b — performance/energy of [PRMB, PTW] pairs                   #
# --------------------------------------------------------------------- #


def fig12b_energy_sweep(
    pairs: Sequence[Tuple[int, int]] = ENERGY_PAIRS,
    batches: Sequence[int] = (1,),
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Figure 12b: performance and energy for [M PRMB, N PTW], M·N const.

    Energy is the translation-path energy (walk DRAM references dominate),
    normalized to the nominal [32, 128] NeuMMU point; performance is
    normalized to the oracle.  Values are geometric means over workloads.
    """
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="fig12b",
        title="Performance and energy across [PRMB slots, PTWs] (M*N=4096)",
        columns=["normalized_perf", "normalized_energy"],
        notes=[
            "paper: [1,4096] burns up to ~7.1x the energy of [32,128] at "
            "equal performance",
        ],
    )
    workloads = dense_pairs(batches)
    energies: Dict[Tuple[int, int], float] = {}
    perfs: Dict[Tuple[int, int], float] = {}
    requests = [
        RunRequest(
            label,
            factory,
            MMUConfig(
                name=f"[{slots},{walkers}]",
                n_walkers=walkers,
                prmb_slots=slots,
                path_cache="none",
            ),
        )
        for slots, walkers in pairs
        for label, factory in workloads
    ]
    normalized = iter(runner.normalized_many(requests))
    for slots, walkers in pairs:
        per_wl_perf: List[float] = []
        per_wl_energy: List[float] = []
        for _ in workloads:
            norm, result = next(normalized)
            per_wl_perf.append(norm)
            breakdown = translation_energy(result.mmu_summary)
            per_wl_energy.append(breakdown.total_pj)
        perfs[(slots, walkers)] = geometric_mean(per_wl_perf)
        energies[(slots, walkers)] = geometric_mean(per_wl_energy)
    reference = energies.get((32, 128)) or next(iter(energies.values()))
    for slots, walkers in pairs:
        fig.add(
            f"[{slots},{walkers}]",
            normalized_perf=perfs[(slots, walkers)],
            normalized_energy=energies[(slots, walkers)] / reference,
        )
    return fig


# --------------------------------------------------------------------- #
# Figure 13 — TPreg hit rates                                            #
# --------------------------------------------------------------------- #


def fig13_tpreg_hit_rates(
    batches: Sequence[int] = DENSE_BATCHES,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Figure 13: TPreg L4/L3/L2 tag-match rates under NeuMMU."""
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="fig13",
        title="TPreg tag hit rate per level (single register per PTW)",
        columns=["l4", "l3", "l2"],
        notes=["paper (TPC, avg): L4 99.5% / L3 99.5% / L2 63.1%"],
    )
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(label, factory, neummu_config()) for label, factory in pairs
    ]
    for (label, _), result in zip(pairs, runner.run_many(requests)):
        summary = result.mmu_summary
        fig.add(
            label,
            l4=summary.tpreg_l4_rate,
            l3=summary.tpreg_l3_rate,
            l2=summary.tpreg_l2_rate,
        )
    for col in ("l4", "l3", "l2"):
        fig.notes.append(f"avg {col}: {fig.mean(col):.3f}")
    return fig


# --------------------------------------------------------------------- #
# Figure 14 — VA trace                                                   #
# --------------------------------------------------------------------- #


def fig14_va_trace(
    workload: str = "CNN-1", batch: int = 1, max_rows: int = 40
) -> FigureResult:
    """Figure 14: virtual-address regions touched by consecutive tiles."""
    sim = NPUSimulator(
        dense_workload(workload, batch), oracle_config(), trace_va=True
    )
    result = sim.run()
    fig = FigureResult(
        figure_id="fig14",
        title=f"VA regions per tile fetch ({workload} b{batch:02d})",
        columns=["step", "va_lo_mb", "va_hi_mb", "span_kb"],
        notes=[
            "VAs are MB offsets from the first tensor segment; the "
            "streaming pattern walks ascending VA within a handful of "
            "large segments (IA and W), as in the paper's trace",
        ],
    )
    trace = result.va_trace[:max_rows]
    base = min(lo for _, lo, _, _ in trace) if trace else 0
    for step, lo, hi, tensor in trace:
        fig.add(
            f"{tensor}@{step}",
            step=float(step),
            va_lo_mb=(lo - base) / 2**20,
            va_hi_mb=(hi - base) / 2**20,
            span_kb=(hi - lo) / 1024.0,
        )
    return fig


# --------------------------------------------------------------------- #
# Section IV-C — TPC vs UPTC                                             #
# --------------------------------------------------------------------- #


def tpc_vs_uptc(
    batches: Sequence[int] = (1,),
    entries: int = 16,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Section IV-C: translation-path-cache design comparison.

    TPC's virtual-path tagging beats UPTC's physical-entry tagging on walk
    reduction (paper: TPC removes 59% more walk references).
    """
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="tpc_vs_uptc",
        title=f"TPC vs UPTC ({entries} entries) walk-reference reduction",
        columns=["tpc_skip_rate", "uptc_skip_rate", "tpc_accesses", "uptc_accesses"],
        notes=["paper: TPC tag hits 99.5/99.5/63.1%; UPTC 92.4%"],
    )
    pairs = dense_pairs(batches)
    kinds = ("tpc", "uptc")
    requests = [
        RunRequest(
            label,
            factory,
            MMUConfig(
                name=kind,
                n_walkers=128,
                prmb_slots=32,
                path_cache=kind,
                path_cache_entries=entries,
            ),
        )
        for label, factory in pairs
        for kind in kinds
    ]
    results = iter(runner.run_many(requests))
    for label, _ in pairs:
        accesses: Dict[str, float] = {}
        skip_rates: Dict[str, float] = {}
        for kind in kinds:
            summary = next(results).mmu_summary
            accesses[kind] = float(summary.walk_level_accesses)
            total_skippable = summary.walk_level_accesses + summary.walk_levels_skipped
            skip_rates[kind] = (
                summary.walk_levels_skipped / total_skippable if total_skippable else 0.0
            )
        fig.add(
            label,
            tpc_skip_rate=skip_rates["tpc"],
            uptc_skip_rate=skip_rates["uptc"],
            tpc_accesses=accesses["tpc"],
            uptc_accesses=accesses["uptc"],
        )
    return fig


# --------------------------------------------------------------------- #
# Section IV-D — headline claims                                         #
# --------------------------------------------------------------------- #


def headline_claims(
    batches: Sequence[int] = DENSE_BATCHES,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Section IV-D: NeuMMU vs baseline IOMMU, all three headline numbers.

    Paper: IOMMU ⇒ 95% average overhead; NeuMMU ⇒ 0.06% overhead,
    16.3× less translation energy, 18.8× fewer walk memory references.
    """
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="headline",
        title="NeuMMU vs baseline IOMMU (per workload)",
        columns=[
            "iommu_perf",
            "neummu_perf",
            "energy_ratio",
            "walk_access_ratio",
        ],
    )
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(label, factory, config)
        for config in (baseline_iommu_config(), neummu_config())
        for label, factory in pairs
    ]
    results = runner.normalized_many(requests)
    iommu_results = results[: len(pairs)]
    neummu_results = results[len(pairs):]
    for (label, _), (iommu_norm, iommu_result), (neummu_norm, neummu_result) in zip(
        pairs, iommu_results, neummu_results
    ):
        iommu_energy = translation_energy(iommu_result.mmu_summary)
        neummu_energy = translation_energy(neummu_result.mmu_summary, uses_tpreg=True)
        iommu_walk = max(1, iommu_result.mmu_summary.walk_level_accesses)
        neummu_walk = max(1, neummu_result.mmu_summary.walk_level_accesses)
        fig.add(
            label,
            iommu_perf=iommu_norm,
            neummu_perf=neummu_norm,
            energy_ratio=energy_ratio(iommu_energy, neummu_energy),
            walk_access_ratio=iommu_walk / neummu_walk,
        )
    fig.notes.append(
        f"avg IOMMU perf {fig.mean('iommu_perf'):.3f} | "
        f"avg NeuMMU perf {fig.mean('neummu_perf'):.4f} | "
        f"avg energy ratio {fig.mean('energy_ratio'):.1f}x | "
        f"avg walk-access ratio {fig.mean('walk_access_ratio'):.1f}x"
    )
    return fig


# --------------------------------------------------------------------- #
# Figure 15 — NUMA for embeddings                                        #
# --------------------------------------------------------------------- #


def fig15_numa(batches: Sequence[int] = (1, 8, 64), n_npus: int = 4) -> FigureResult:
    """Figure 15: recsys latency breakdown across transports."""
    fig = FigureResult(
        figure_id="fig15",
        title="Recsys latency breakdown (normalized to MMU-less baseline)",
        columns=["total", "embedding", "gemm", "reduction", "other"],
        notes=["paper: NUMA(slow)/NUMA(fast) cut latency 31%/71% on average"],
    )
    reductions = {"numa_slow": [], "numa_fast": []}
    for model in (ncf(), dlrm()):
        system = RecSysSystem(model, n_npus=n_npus)
        for batch in batches:
            bars = system.compare_transports(batch)
            reference = bars["baseline"]
            for transport in TRANSPORTS:
                norm = bars[transport].normalized_to(reference)
                fig.add(
                    f"{model.name}/b{batch:02d}/{transport}",
                    total=norm["total"],
                    embedding=norm["embedding"],
                    gemm=norm["gemm"],
                    reduction=norm["reduction"],
                    other=norm["other"],
                )
                if transport in reductions:
                    reductions[transport].append(1.0 - norm["total"])
    for transport, values in reductions.items():
        if values:
            fig.notes.append(
                f"avg {transport} latency reduction: {sum(values)/len(values):.1%}"
            )
    return fig


# --------------------------------------------------------------------- #
# Figure 16 — demand paging                                              #
# --------------------------------------------------------------------- #


def fig16_demand_paging(
    batches: Sequence[int] = (1, 4, 8),
    system: Optional[DemandPagingConfig] = None,
) -> FigureResult:
    """Figure 16: demand paging at 4 KB vs 2 MB, IOMMU vs NeuMMU.

    All cells normalized to the 4 KB-page oracular MMU, per the paper.
    """
    system = system or DemandPagingConfig()
    fig = FigureResult(
        figure_id="fig16",
        title="Demand paging for sparse embeddings (normalized to 4 KB oracle)",
        columns=["normalized_perf", "faults_per_batch", "migrated_kb_per_batch"],
        notes=[
            "paper: baseline IOMMU ~17% at 4 KB; NeuMMU recovers to ~96%; "
            "2 MB pages unrecoverable for sparse access",
        ],
    )
    for model_factory in (ncf, dlrm):
        for batch in batches:
            model = model_factory()
            oracle = demand_paging_cell(
                model, oracle_config(PAGE_SIZE_4K), batch, system
            )
            reference = oracle.total_cycles_per_batch
            cells = [
                ("iommu/4K", baseline_iommu_config(page_size=PAGE_SIZE_4K)),
                ("neummu/4K", neummu_config(page_size=PAGE_SIZE_4K)),
                ("iommu/2M", baseline_iommu_config(page_size=PAGE_SIZE_2M)),
                ("neummu/2M", neummu_config(page_size=PAGE_SIZE_2M)),
            ]
            for cell_label, config in cells:
                result = demand_paging_cell(model, config, batch, system)
                fig.add(
                    f"{model.name}/b{batch:02d}/{cell_label}",
                    normalized_perf=reference / result.total_cycles_per_batch,
                    faults_per_batch=result.faults_per_batch,
                    migrated_kb_per_batch=result.migrated_bytes_per_batch / 1024.0,
                )
    return fig


# --------------------------------------------------------------------- #
# Section VI-A — large pages on dense networks                           #
# --------------------------------------------------------------------- #


def large_pages_dense(
    batches: Sequence[int] = (1,),
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Section VI-A: 2 MB pages mostly fix the IOMMU for dense DNNs."""
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="large_pages",
        title="Dense networks with 2 MB pages",
        columns=["iommu_2m", "neummu_2m", "iommu_4k"],
        notes=["paper: IOMMU overhead drops to ~4% average with 2 MB pages"],
    )
    pairs = dense_pairs(batches)
    grid = [
        baseline_iommu_config(page_size=PAGE_SIZE_2M),
        neummu_config(page_size=PAGE_SIZE_2M),
        baseline_iommu_config(),
    ]
    requests = [
        RunRequest(label, factory, config)
        for label, factory in pairs
        for config in grid
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        iommu_2m, _ = next(normalized)
        neummu_2m, _ = next(normalized)
        iommu_4k, _ = next(normalized)
        fig.add(label, iommu_2m=iommu_2m, neummu_2m=neummu_2m, iommu_4k=iommu_4k)
    fig.notes.append(
        f"avg IOMMU 2M {fig.mean('iommu_2m'):.3f} vs 4K {fig.mean('iommu_4k'):.3f}"
    )
    return fig


# --------------------------------------------------------------------- #
# Section VI-B — spatial-array NPU                                       #
# --------------------------------------------------------------------- #


def spatial_npu(
    batches: Sequence[int] = (1,),
) -> FigureResult:
    """Section VI-B: NeuMMU on a spatial (DaDianNao/Eyeriss-style) NPU."""
    npu = NPUConfig()
    runner = ExperimentRunner(
        npu_config=npu, compute_model=SpatialArrayModel(npu)
    )
    fig = FigureResult(
        figure_id="spatial",
        title="Spatial-array NPU: IOMMU vs NeuMMU",
        columns=["iommu_perf", "neummu_perf"],
        notes=["paper: NeuMMU within ~2% of oracle on the spatial design"],
    )
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(label, factory, config)
        for label, factory in pairs
        for config in (baseline_iommu_config(), neummu_config())
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        iommu_norm, _ = next(normalized)
        neummu_norm, _ = next(normalized)
        fig.add(label, iommu_perf=iommu_norm, neummu_perf=neummu_norm)
    fig.notes.append(f"avg NeuMMU perf: {fig.mean('neummu_perf'):.4f}")
    return fig


# --------------------------------------------------------------------- #
# Section VI-C — sensitivity                                             #
# --------------------------------------------------------------------- #


def sensitivity_tlb(
    entries_sweep: Sequence[int] = (128, 512, 2048),
    batches: Sequence[int] = (1,),
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Section III-C/VI-C: TLB capacity barely moves the needle."""
    runner = runner or ExperimentRunner()
    columns = [f"tlb{n}" for n in entries_sweep]
    fig = FigureResult(
        figure_id="sens_tlb",
        title="IOMMU normalized performance vs TLB entries",
        columns=columns,
        notes=["paper: even 128K entries buys <0.02% over 2K (8 PTWs)"],
    )
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(
            label,
            factory,
            replace(baseline_iommu_config(tlb_entries=n), name=f"tlb{n}"),
        )
        for label, factory in pairs
        for n in entries_sweep
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        values = {f"tlb{n}": next(normalized)[0] for n in entries_sweep}
        fig.rows.append(Series(label=label, values=values))
    return fig


def sensitivity_large_batch(
    batches: Sequence[int] = (32, 64, 128),
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Section VI-C: large-batch common-layer study.

    Full-network simulation at these batches is intractable (the paper hit
    the same wall), so each network's representative layer runs alone.
    """
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="sens_batch",
        title="Common-layer large-batch study (IOMMU vs NeuMMU)",
        columns=["iommu_perf", "neummu_perf"],
        notes=["paper: IOMMU ~5.9% of oracle; NeuMMU ~99.9%"],
    )
    points = [
        (f"{name}/b{batch}", CommonLayerFactory(name, batch))
        for name in ("CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3")
        for batch in batches
    ]
    requests = [
        RunRequest(label, factory, config)
        for label, factory in points
        for config in (baseline_iommu_config(), neummu_config())
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in points:
        iommu_norm, _ = next(normalized)
        neummu_norm, _ = next(normalized)
        fig.add(label, iommu_perf=iommu_norm, neummu_perf=neummu_norm)
    fig.notes.append(
        f"avg IOMMU {fig.mean('iommu_perf'):.3f} | avg NeuMMU {fig.mean('neummu_perf'):.4f}"
    )
    return fig


# --------------------------------------------------------------------- #
# Extension studies (beyond the paper's evaluated grid)                  #
# --------------------------------------------------------------------- #


def prefetch_ablation(
    depths: Sequence[int] = (0, 1, 2, 4),
    batches: Sequence[int] = (1,),
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Extension: can next-page translation prefetching save the IOMMU?

    The paper cites CPU TLB-prefetching work (§VII) but does not evaluate
    it.  Dense tile streams are perfectly sequential (Figure 14), the
    best case for a stream prefetcher — yet on the 8-walker IOMMU the
    prefetcher competes with demand bursts for the same walkers, so it
    cannot substitute for PRMB + walker scaling.
    """
    runner = runner or ExperimentRunner()
    columns = [f"pf{d}" for d in depths] + ["pf_accuracy"]
    fig = FigureResult(
        figure_id="prefetch",
        title="Next-page translation prefetching on the 8-walker IOMMU",
        columns=columns,
        notes=[
            "extension study: sequential prefetch cannot replace "
            "merging + translation throughput",
        ],
    )
    pairs = dense_pairs(batches)
    requests = [
        RunRequest(
            label,
            factory,
            MMUConfig(
                name=f"pf{depth}", n_walkers=8, prmb_slots=0, prefetch_depth=depth
            ),
        )
        for label, factory in pairs
        for depth in depths
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        values: Dict[str, float] = {}
        accuracy = 0.0
        for depth in depths:
            norm, result = next(normalized)
            values[f"pf{depth}"] = norm
            if depth == max(depths):
                accuracy = result.mmu_summary.prefetch_accuracy
        values["pf_accuracy"] = accuracy
        fig.rows.append(Series(label=label, values=values))
    for depth in depths:
        fig.notes.append(f"avg pf{depth}: {fig.mean(f'pf{depth}'):.3f}")
    return fig


def multilevel_tlb_ablation(
    batches: Sequence[int] = (1,),
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Extension: a GPU-style L1/L2 TLB hierarchy on the baseline IOMMU.

    Section III-C argues locality-centric structures cannot absorb NPU
    translation bursts; this makes the claim concrete for the multi-level
    TLB the GPU-MMU literature leans on.
    """
    runner = runner or ExperimentRunner()
    fig = FigureResult(
        figure_id="mltlb",
        title="Single- vs two-level TLB on the baseline IOMMU",
        columns=["single_level", "two_level", "two_level_hit_rate"],
        notes=["capacity/latency tweaks do not fix a throughput problem"],
    )
    pairs = dense_pairs(batches)
    two_level = MMUConfig(name="mltlb", n_walkers=8, prmb_slots=0, l1_tlb_entries=64)
    requests = [
        RunRequest(label, factory, config)
        for label, factory in pairs
        for config in (baseline_iommu_config(), two_level)
    ]
    normalized = iter(runner.normalized_many(requests))
    for label, _ in pairs:
        single, _ = next(normalized)
        two, result = next(normalized)
        fig.add(
            label,
            single_level=single,
            two_level=two,
            two_level_hit_rate=result.mmu_summary.tlb_hit_rate,
        )
    fig.notes.append(
        f"avg single {fig.mean('single_level'):.3f} vs "
        f"two-level {fig.mean('two_level'):.3f}"
    )
    return fig


# --------------------------------------------------------------------- #
# Multi-tenant shared-MMU contention (beyond the paper's grid)           #
# --------------------------------------------------------------------- #


def multi_tenant_contention(
    workload: str = "CNN-1",
    batch: int = 1,
    tenants: Optional[int] = None,
    arbitration: Optional[str] = None,
    qos: str = "full_share",
    weights: Optional[Sequence[float]] = None,
    npu_config: Optional[NPUConfig] = None,
    mix: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Extension: N tenant models contending for one shared MMU.

    The scale-out serving regime the paper's single-address-space study
    cannot express: each tenant owns a private (ASID-tagged) address space
    but shares the TLB, PTS/walker pool, PRMB capacity and memory
    bandwidth.  Per-tenant slowdown is each tenant's shared-run cycles over
    its isolated single-tenant cycles under the *same* MMU config — the
    shared-pool contention penalty, reported for the canonical IOMMU and
    NeuMMU design points (plus the oracle, which isolates pure
    memory-bandwidth contention from translation contention).

    ``mix`` replaces the N identical copies with a heterogeneous tenant
    list resolved through the registry (``"cnn,rnn,recsys"`` — see
    :func:`repro.workloads.registry.mix_factories`); each tenant's
    slowdown is then measured against *its own* isolated run.
    ``qos``/``weights`` select the QoS share policy governing the shared
    structures (see :mod:`repro.core.qos`); the defaults reproduce the
    historical full-sharing run bit for bit.  ``arbitration`` defaults to
    :func:`~repro.core.qos.default_arbitration` of ``weights``:
    ``weighted_quantum`` under unequal weights, ``round_robin`` otherwise.

    ``runner`` shards the grid — one isolated run per distinct tenant
    workload plus one shared cell per design point — across processes
    when its ``jobs > 1``; results are bit-identical to the serial path.
    """
    from ..workloads.registry import DenseWorkloadFactory, mix_factories

    if mix is not None:
        factories = mix_factories(mix, batch)
        if tenants is not None and tenants != len(factories):
            raise ValueError(
                f"--tenants {tenants} does not match the {len(factories)}"
                f"-tenant mix {mix!r}; drop --tenants or make them agree"
            )
        label = "+".join(f.name for f in factories)
    else:
        if tenants is None:
            tenants = 2
        if tenants <= 0:
            raise ValueError("need at least one tenant")
        factories = [DenseWorkloadFactory(workload, batch)] * tenants
        label = f"{tenants} x {workload}"
    if arbitration is None:
        arbitration = default_arbitration(weights)
    qualifier = arbitration if qos == "full_share" else f"{arbitration}, {qos}"
    fig = FigureResult(
        figure_id="tenants",
        title=f"Shared-MMU contention: {label}/b{batch:02d} ({qualifier})",
        columns=[
            "shared_mcycles",
            "isolated_mcycles",
            "slowdown",
            "tlb_hit_rate",
            "merges",
            "stall_mcycles",
        ],
        notes=[
            "slowdown = shared-run cycles / isolated same-config cycles; "
            "oracle rows isolate memory-bandwidth contention from "
            "translation contention",
        ],
    )
    runner = runner or ExperimentRunner(npu_config=npu_config or NPUConfig())
    configs = (oracle_config(), baseline_iommu_config(), neummu_config())
    # Tenants of one workload share its isolated run (a runner memo hit).
    requests = [
        RunRequest(
            f"{config.name}/isolated/{factory.name}/b{batch:02d}", factory, config
        )
        for config in configs
        for factory in factories
    ] + [
        TenantRunRequest(
            label=f"{config.name}/{qos}/{label}/b{batch:02d}",
            factories=tuple(factories),
            mmu_config=config,
            arbitration=arbitration,
            qos=qos,
            weights=tuple(weights) if weights is not None else None,
        )
        for config in configs
    ]
    results = runner.run_many(requests)
    n = len(factories)
    for c, config in enumerate(configs):
        isolated = results[c * n: (c + 1) * n]
        shared = results[len(configs) * n + c].result
        slowdowns = []
        for tenant, iso in zip(shared.tenants, isolated):
            usage = tenant.usage
            iso_cycles = iso.total_cycles
            slowdown = tenant.total_cycles / iso_cycles
            slowdowns.append(slowdown)
            fig.add(
                f"{config.name}/t{tenant.asid}",
                shared_mcycles=tenant.total_cycles / 1e6,
                isolated_mcycles=iso_cycles / 1e6,
                slowdown=slowdown,
                tlb_hit_rate=usage.tlb_hit_rate,
                merges=float(usage.merges),
                stall_mcycles=usage.stall_cycles / 1e6,
            )
        fig.notes.append(
            f"{config.name}: mean slowdown {sum(slowdowns) / len(slowdowns):.3f} "
            f"(makespan {shared.makespan_cycles / 1e6:.2f} Mcycles)"
        )
    return fig


def fairness(
    workload: str = "CNN-1",
    batch: int = 1,
    tenants: int = 2,
    weights: Optional[Sequence[float]] = None,
    arbitration: str = "weighted_quantum",
    npu_config: Optional[NPUConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Extension: per-tenant slowdown + Jain's index per QoS share policy.

    Sweeps the QoS layer's three share policies (``full_share``,
    ``static_partition``, ``weighted``) over the same shared-MMU
    contention run and reports each tenant's slowdown versus its isolated
    same-config run, plus Jain's fairness index of those slowdowns per
    (design point, policy).  Default weights descend from the tenant
    count (t0 heaviest), so the weighted rows show whether a reservation
    actually buys the heavy tenant latency — the partition-vs-share
    tradeoff Kim et al. and Picorel et al. identify for translation
    structures.

    Arbitration defaults to ``weighted_quantum``: share policies make
    tenants progress at different rates, and its clock-ordered service
    bounds the cross-tenant clock skew that whole-tile-step round robin
    would let couple every tenant to one makespan through the shared
    memory channels (see :class:`~repro.core.qos.WeightedQuantumArbiter`).

    ``runner`` shards the grid — two isolated baselines plus 2 configs ×
    3 policies of shared cells, all independent — across processes when
    its ``jobs > 1``; results are bit-identical to the serial path.
    """
    from ..workloads.registry import DenseWorkloadFactory

    if weights is None:
        weights = tuple(float(tenants - i) for i in range(tenants))
    weights = tuple(weights)
    runner = runner or ExperimentRunner(npu_config=npu_config or NPUConfig())
    factory = DenseWorkloadFactory(workload, batch)
    fig = FigureResult(
        figure_id="fairness",
        title=(
            f"QoS fairness: {tenants} x {workload}/b{batch:02d} "
            f"({arbitration}, weights {'/'.join(f'{w:g}' for w in weights)})"
        ),
        columns=["weight", "slowdown", "jain_index", "stall_mcycles"],
        notes=[
            "slowdown = shared-run cycles / isolated same-config cycles; "
            "jain_index = (sum s)^2 / (n * sum s^2) over each policy's "
            "per-tenant slowdowns (1.0 = perfectly even)",
        ],
    )
    configs = (baseline_iommu_config(), neummu_config())
    label = f"{workload}/b{batch:02d}"
    requests = [
        RunRequest(f"{config.name}/isolated/{label}", factory, config)
        for config in configs
    ] + [
        TenantRunRequest(
            label=f"{config.name}/{qos}/{label}",
            factories=(factory,) * tenants,
            mmu_config=config,
            arbitration=arbitration,
            qos=qos,
            weights=weights,
        )
        for config in configs
        for qos in SHARE_POLICIES
    ]
    results = runner.run_many(requests)
    isolated_by_config = dict(zip(configs, results[: len(configs)]))
    outcomes = iter(results[len(configs):])
    for config in configs:
        isolated = isolated_by_config[config]
        for qos in SHARE_POLICIES:
            shared = next(outcomes).result
            slowdowns = [
                tenant.total_cycles / isolated.total_cycles
                for tenant in shared.tenants
            ]
            index = jain_index(slowdowns)
            for tenant, slowdown in zip(shared.tenants, slowdowns):
                fig.add(
                    f"{config.name}/{qos}/t{tenant.asid}",
                    weight=weights[tenant.asid],
                    slowdown=slowdown,
                    jain_index=index,
                    stall_mcycles=tenant.usage.stall_cycles / 1e6,
                )
            fig.notes.append(
                f"{config.name}/{qos}: jain {index:.3f}, "
                f"max slowdown {max(slowdowns):.3f}, "
                f"makespan {shared.makespan_cycles / 1e6:.2f} Mcycles"
            )
    return fig


def paging_tenants(
    mix: str = "cnn,rnn,recsys",
    batch: int = 1,
    arbitration: str = "weighted_quantum",
    weights: Optional[Sequence[float]] = None,
    budgets_mb: Optional[Sequence[float]] = None,
    tiering=None,
    npu_config: Optional[NPUConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Extension: heterogeneous tenants demand-paging over one fabric.

    The ROADMAP's multi-tenant demand-paging study: a heterogeneous
    tenant mix (CNN + RNN + recsys by default, registry-resolved via
    :func:`repro.workloads.registry.mix_factories`) runs demand-paged —
    tensors unmapped until first touch, page moves streamed over one
    shared :class:`~repro.memory.tiering.MigrationFabric`, per-tenant
    local budgets evicting through the ASID-tagged shootdown path — and
    the three QoS share policies govern the fabric's transfer slots
    alongside the TLB/walker/PRMB quotas.  Each tenant's slowdown is its
    shared paged run over its *isolated* paged run (same budget, private
    fabric), so the figure isolates contention, not paging itself;
    ``fabric_share`` is the tenant's exact fraction of migrated bytes.

    Byte conservation on the fabric is asserted exactly: per-tenant
    migrated bytes sum to the fabric total, every one a whole page.

    ``runner`` shards the grid — one isolated paged baseline per tenant
    per design point plus 2 configs × 3 policies of shared cells —
    across processes when its ``jobs > 1``, bit-identical to serial.
    """
    from ..memory.tiering import TieringConfig
    from ..workloads.registry import mix_factories

    MB = 1024 * 1024
    factories = mix_factories(mix, batch)
    n = len(factories)
    tier_cfg = tiering if tiering is not None else TieringConfig()
    if budgets_mb is not None:
        if len(budgets_mb) != n:
            raise ValueError(
                f"got {len(budgets_mb)} budgets for the {n}-tenant mix "
                f"{mix!r}; pass exactly one MB budget per tenant"
            )
        budgets = [int(b * MB) for b in budgets_mb]
    else:
        budgets = [tier_cfg.default_budget_bytes] * n
    if weights is None:
        # t0 heaviest, as in the fairness figure: the weighted rows show
        # whether a fabric reservation buys the heavy tenant latency.
        weights = tuple(float(n - i) for i in range(n))
    weights = tuple(weights)
    runner = runner or ExperimentRunner(npu_config=npu_config or NPUConfig())
    mix_label = "+".join(f.name for f in factories)
    fig = FigureResult(
        figure_id="paging_tenants",
        title=(
            f"Multi-tenant demand paging: {mix_label}/b{batch:02d} over one "
            f"migration fabric ({arbitration}, weights "
            f"{'/'.join(f'{w:g}' for w in weights)})"
        ),
        columns=["slowdown", "faults", "migrated_mb", "fabric_share"],
        notes=[
            "slowdown = shared paged run / isolated paged run (same "
            "budget, private fabric); fabric_share = tenant's exact "
            "fraction of bytes migrated over the shared fabric",
        ],
    )
    configs = (baseline_iommu_config(), neummu_config())
    requests = [
        RunRequest(
            f"{config.name}/isolated/{factory.name}/b{batch:02d}",
            factory,
            config,
            tiering=tier_cfg,
            memory_budget=budgets[i],
        )
        for config in configs
        for i, factory in enumerate(factories)
    ] + [
        TenantRunRequest(
            label=f"{config.name}/{qos}/{mix_label}/b{batch:02d}",
            factories=tuple(factories),
            mmu_config=config,
            arbitration=arbitration,
            qos=qos,
            weights=weights,
            tiering=tier_cfg,
            memory_budgets=tuple(budgets),
        )
        for config in configs
        for qos in SHARE_POLICIES
    ]
    results = runner.run_many(requests)
    n_isolated = len(configs) * n
    outcomes = iter(results[n_isolated:])
    for c, config in enumerate(configs):
        isolated = results[c * n: (c + 1) * n]
        for qos in SHARE_POLICIES:
            outcome = next(outcomes)
            shared = outcome.result
            paging = outcome.paging
            assert paging is not None  # every tenant pages in this figure
            faults_of = dict(paging.faults)
            per_tenant_bytes = dict(paging.migrated_bytes)
            # Exact conservation: every migrated byte is attributed to
            # exactly one tenant, and every move is a whole page.
            if sum(per_tenant_bytes.values()) != paging.fabric_total_bytes:
                raise AssertionError(
                    f"fabric byte-conservation violation under {qos}: "
                    f"{per_tenant_bytes} != {paging.fabric_total_bytes}"
                )
            moved = paging.fabric_total_migrations * config.page_size
            if paging.fabric_total_bytes != moved:
                raise AssertionError(
                    f"fabric moved partial pages under {qos}: "
                    f"{paging.fabric_total_bytes} bytes in "
                    f"{paging.fabric_total_migrations} migrations"
                )
            total_bytes = paging.fabric_total_bytes or 1
            slowdowns = []
            for tenant, iso in zip(shared.tenants, isolated):
                t_bytes = per_tenant_bytes[tenant.asid]
                slowdown = tenant.total_cycles / iso.total_cycles
                slowdowns.append(slowdown)
                fig.add(
                    f"{config.name}/{qos}/t{tenant.asid}",
                    slowdown=slowdown,
                    faults=float(faults_of[tenant.asid]),
                    migrated_mb=t_bytes / MB,
                    fabric_share=t_bytes / total_bytes,
                )
            fig.notes.append(
                f"{config.name}/{qos}: jain {jain_index(slowdowns):.3f}, "
                f"max slowdown {max(slowdowns):.3f}, fabric "
                f"{paging.fabric_total_migrations} moves / "
                f"{paging.fabric_total_bytes / MB:.1f} MB (conserved exactly)"
            )
    return fig


# --------------------------------------------------------------------- #
# Section IV-E — implementation overhead                                 #
# --------------------------------------------------------------------- #


def overhead_area() -> FigureResult:
    """Section IV-E: SRAM storage / area / leakage of NeuMMU's additions."""
    overhead = neummu_overhead()
    fig = FigureResult(
        figure_id="overhead",
        title="NeuMMU implementation overhead (CACTI-style, 32 nm)",
        columns=["kb", "area_mm2", "leakage_mw"],
        notes=["paper: 32 KB PRMB + 2 KB TPreg + PTS = 0.10 mm^2, 13.65 mW"],
    )
    for name, est in (
        ("PRMB", overhead.prmb),
        ("TPreg", overhead.tpreg),
        ("PTS", overhead.pts),
        ("total", overhead.total),
    ):
        fig.add(
            name,
            kb=est.capacity_bytes / 1024.0,
            area_mm2=est.area_mm2,
            leakage_mw=est.leakage_mw,
        )
    return fig
