"""Batched-engine fast path vs the seed's per-transaction reference path.

Replays real DMA transaction streams — the linearized tile fetches of a
dense workload (Section III-C's streaming case) — through the raw
:class:`~repro.core.engine.TranslationEngine` under the three canonical
MMU configurations at both evaluated page sizes (Table I's 4 KB and
Section VI-A's 2 MB), once with the batched fast path and once with the
per-transaction reference path (the seed engine's semantics, kept as the
golden fallback).

Asserts that (a) every sweep cell produces bit-identical results on both
paths and (b) the sweep's geometric-mean wall-clock speedup is >= 3x.

Run it as ``PYTHONPATH=src python -m benchmarks.bench_engine_fastpath``
(a few minutes); the weekly CI job does.
"""

from __future__ import annotations

import gc
import math
import time

from repro.analysis.figures import FigureResult, geometric_mean
from repro.core.engine import TranslationEngine
from repro.core.mmu import (
    MMU,
    baseline_iommu_config,
    neummu_config,
    oracle_config,
)
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.memory.dram import MainMemory
from repro.npu.simulator import NPUSimulator
from repro.workloads.registry import dense_workload

#: Streaming-heavy dense networks (long same-page runs per tile fetch —
#: the Section III-C streaming case the batched fast path targets).
WORKLOADS = ("CNN-2", "CNN-3")

#: The canonical design points at both evaluated page sizes.
CONFIGS = tuple(
    make(page_size=page_size)
    for page_size in (PAGE_SIZE_4K, PAGE_SIZE_2M)
    for make in (oracle_config, baseline_iommu_config, neummu_config)
)

#: Cap on replayed transactions per workload (keeps one cell ~100 ms).
MAX_TRANSACTIONS = 120_000


def _streams(workload_name: str, page_size: int):
    """The workload's first tile-fetch bursts, DMA-linearized and annotated."""
    sim = NPUSimulator(dense_workload(workload_name, 1), oracle_config(page_size))
    sim.dma.run_page_size = page_size
    bursts = []
    total = 0
    for schedule in sim.schedules:
        for step in schedule.steps:
            for fetch in step.fetches:
                txs = sim.dma.transactions(fetch)
                bursts.append(txs)
                total += len(txs)
                if total >= MAX_TRANSACTIONS:
                    return sim, bursts
    return sim, bursts


def _replay(sim, bursts, mmu_config, batched: bool):
    """Run the bursts through a fresh engine; returns (seconds, results).

    The MMU's walk resolver binds the page table's shared walk memo, so
    after the first replay over a table the timed region measures engine
    steady state rather than first-touch functional page walks (which
    both paths pay identically).
    """
    mmu = MMU(mmu_config, sim.address_space.page_table)
    engine = TranslationEngine(mmu, MainMemory())
    engine.batched = batched
    gc.disable()
    started = time.perf_counter()
    results, data_end = engine.run_bursts(bursts, 0.0)
    elapsed = time.perf_counter() - started
    gc.enable()
    mmu.drain()
    return elapsed, (results, data_end, mmu.summary())


def fastpath_sweep(repeats: int = 3) -> FigureResult:
    """Wall-clock comparison over the config x page-size x workload grid."""
    fig = FigureResult(
        figure_id="engine_fastpath",
        title="Batched fast path vs per-transaction reference engine",
        columns=["ref_ms", "batched_ms", "speedup"],
        notes=[
            "identical BurstResults/RunSummary asserted per cell; "
            "speedup = best-of-N reference time / best-of-N batched time",
        ],
    )
    speedups = []
    for workload_name in WORKLOADS:
        for config in CONFIGS:
            sim, bursts = _streams(workload_name, config.page_size)
            # Warm the page table's walk memo once (untimed): first-touch
            # functional walks cost both paths the same and are not what
            # this benchmark compares.
            _replay(sim, bursts, config, True)
            best = {True: math.inf, False: math.inf}
            outcomes = {}
            for _ in range(repeats):
                for batched in (True, False):
                    elapsed, outcome = _replay(sim, bursts, config, batched)
                    best[batched] = min(best[batched], elapsed)
                    outcomes.setdefault(batched, outcome)
            assert outcomes[True] == outcomes[False], (
                f"fast path diverged on {workload_name}/{config.name}"
            )
            speedup = best[False] / best[True]
            speedups.append(speedup)
            page_kb = config.page_size // 1024
            fig.add(
                f"{workload_name}/{config.name}/{page_kb}K",
                ref_ms=best[False] * 1e3,
                batched_ms=best[True] * 1e3,
                speedup=speedup,
            )
    fig.notes.append(f"geomean speedup: {geometric_mean(speedups):.2f}x")
    return fig


if __name__ == "__main__":
    figure = fastpath_sweep()
    print(figure.render())
    # >= 3x wall-clock on the dense sweep, with the reference path
    # standing in for the seed engine (same semantics).
    assert geometric_mean(figure.column("speedup")) >= 3.0
