"""Metric declarations: names, units, direction, bounds, and what moves what.

``END_TO_END`` metrics come from untraced passes (``--trace 0``);
``PER_LAYER`` metrics from a run that alternates untraced and traced
passes (``--trace 1``).  ``BENCHMARK.json`` at the repository root lists
the same metrics; the benchmark's tests keep the two in step.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

#: Every metric name matches this and is at most 64 characters long.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: name -> (unit, better, bound as a share of the parent's median).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "ref_cpu_s": ("s", "lower", 0.25),
    "tile_fetches_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> (unit, better, the end-to-end metric and workload it should move).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "setup.construct_s": ("s", "lower", "setup_s on every workload"),
    "setup.simulators": ("count", "lower", "setup_s on every workload"),
    "layout.tile_extents.self_s": (
        "s", "lower", "ref_cpu_s on page_divergence; ~5% of dense_report"),
    "layout.tile_extents.calls": ("count", "lower", "ref_cpu_s on page_divergence"),
    "layout.extents": ("count", "lower", "ref_cpu_s on page_divergence"),
    "dma.transactions.self_s": (
        "s", "lower", "tile_fetches_per_s on dense_report"),
    "dma.transactions.calls": ("count", "lower", "ref_cpu_s on dense_report"),
    "dma.transactions.count": ("count", "lower", "ref_cpu_s on dense_report"),
    "dma.distinct_pages.self_s": ("s", "lower", "ref_cpu_s on page_divergence"),
    "dma.distinct_pages.calls": ("count", "lower", "ref_cpu_s on page_divergence"),
    "sim.single.self_s": ("s", "lower", "ref_cpu_s on dense_report"),
    "sim.multi.self_s": ("s", "lower", "ref_cpu_s on qos_sweep; absent from dense_report"),
    "sim.steps": ("count", "lower", "exact; moves only with the workload"),
    "sim.simulated_steps": ("count", "lower", "ref_cpu_s on dense_report and qos_sweep"),
    "sim.fast_reuse_ratio": ("ratio", "higher", "ref_cpu_s on dense_report and qos_sweep"),
    "sim.cycles": (
        "cycles", "lower", "exact simulated time; must not move in a speed-only change"),
    "engine.prmb.self_s": ("s", "lower", "tile_fetches_per_s on dense_report"),
    "engine.no_prmb.self_s": (
        "s", "lower", "ref_cpu_s on qos_sweep and the Fig. 8 cells of dense_report"),
    "engine.oracle.self_s": ("s", "lower", "ref_cpu_s on dense_report"),
    "engine.bursts": ("count", "lower", "exact; ref_cpu_s on dense_report and qos_sweep"),
    "engine.translations": ("count", "lower", "exact; must not move in a speed-only change"),
    "engine.ns_per_translation": ("ns", "lower", "ref_cpu_s on dense_report and qos_sweep"),
    "engine.translations_per_s": ("1/s", "higher", "ref_cpu_s on dense_report and qos_sweep"),
    "mmu.requests": ("count", "lower", "exact; must not move in a speed-only change"),
    "mmu.tlb_hits": ("count", "higher", "exact; must not move in a speed-only change"),
    "mmu.merges": ("count", "higher", "exact; must not move in a speed-only change"),
    "mmu.walks": ("count", "lower", "exact; must not move in a speed-only change"),
    "mmu.redundant_walks": ("count", "lower", "exact; must not move in a speed-only change"),
    "mmu.walk_level_accesses": ("count", "lower", "exact; must not move in a speed-only change"),
    "mmu.stall_events": ("count", "lower", "exact; must not move in a speed-only change"),
    "mmu.stall_cycles": ("cycles", "lower", "exact; must not move in a speed-only change"),
    "mmu.faults": ("count", "lower", "exact; must not move in a speed-only change"),
    "mmu.shootdown.calls": ("count", "lower", "exact; ref_cpu_s on demand_paging"),
    "mmu.shootdown.self_s": ("s", "lower", "ref_cpu_s on demand_paging"),
    "mmu.drain.self_s": ("s", "lower", "ref_cpu_s on every engine workload"),
    "qos.tenant_stall_cycles": (
        "cycles", "lower", "exact; pins multi-tenant behaviour on qos_sweep"),
    "qos.tenant_walks": ("count", "lower", "exact; pins multi-tenant behaviour on qos_sweep"),
    "tiering.handle_fault.self_s": ("s", "lower", "ref_cpu_s on demand_paging; zero elsewhere"),
    "tiering.faults": ("count", "lower", "exact; demand_paging only"),
    "tiering.evictions": ("count", "lower", "exact; demand_paging only"),
    "tiering.fabric_bytes": ("bytes", "lower", "exact; demand_paging only"),
    "parallel.run_many.self_s": ("s", "lower", "ref_cpu_s on dense_report and qos_sweep"),
    "parallel.cells": ("count", "lower", "exact; ref_cpu_s on dense_report and qos_sweep"),
    "figure.self_s": ("s", "lower", "ref_cpu_s on dense_report and page_divergence"),
    "bench.other.self_s": ("s", "lower", "time in timed segments outside every layer span"),
    "trace.attributed_frac": ("ratio", "higher", "share of a traced pass inside layer spans"),
    "trace.overhead_frac": (
        "ratio", "lower", "traced ref_cpu_s over untraced ref_cpu_s, minus one"),
    "bench.wall_s": ("s", "lower", "raw wall seconds of a pass's timed segments"),
    "bench.cpu_s": ("s", "lower", "raw process CPU seconds of a pass's timed segments"),
    "check.failed_frac": ("ratio", "lower", "share of checked outputs that failed"),
}
