"""Translation-trace capture and replay.

A downstream user evaluating an MMU design rarely wants to re-specify a
whole network: they have a *trace* — the DMA's sequence of (VA, size)
transactions, burst by burst.  This module makes traces first-class:

* :func:`capture_trace` records the transaction stream of any workload on
  the Table-I NPU (tile order, burst boundaries and all);
* :class:`TranslationTrace` saves/loads a compact, diff-able text format;
* :func:`replay_trace` pushes a trace through any
  :class:`~repro.core.mmu.MMUConfig`, synthesizing the page table the
  trace needs, and returns burst timings plus the MMU summary.

Replay is exactly the engine the simulator uses, so a captured trace
reproduces the same translation behaviour as the full simulation — minus
compute phases, which is precisely what an MMU study wants to isolate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..core.engine import BurstResult, TranslationEngine
from ..core.mmu import MMU, MMUConfig
from ..core.stats import RunSummary
from ..core.stream import Transaction
from ..memory.address import PAGE_SIZE_4K, page_number
from ..memory.dram import MainMemory
from ..memory.page_table import PageTable
from .config import NPUConfig
from .dma import DMAEngine

#: Trace-file format marker (first line of every saved trace).
_MAGIC = "neummu-trace-v1"


@dataclass
class TranslationTrace:
    """A DMA transaction stream grouped into bursts (tile fetches)."""

    name: str
    bursts: List[List[Transaction]] = field(default_factory=list)

    @property
    def transaction_count(self) -> int:
        """Total transactions across all bursts."""
        return sum(len(b) for b in self.bursts)

    @property
    def total_bytes(self) -> int:
        """Total bytes the trace moves."""
        return sum(size for burst in self.bursts for _, size in burst)

    def distinct_pages(self, page_size: int = PAGE_SIZE_4K) -> int:
        """Distinct pages the trace touches at ``page_size``."""
        pages = set()
        for burst in self.bursts:
            for va, size in burst:
                pages.add(page_number(va, page_size))
                pages.add(page_number(va + size - 1, page_size))
        return len(pages)

    # ------------------------------------------------------------------ #
    # persistence                                                        #
    # ------------------------------------------------------------------ #

    def save(self, path: Path) -> Path:
        """Write the trace as text: one ``va size`` pair per line, bursts
        separated by ``B`` markers."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [_MAGIC, self.name]
        for burst in self.bursts:
            lines.append(f"B {len(burst)}")
            for va, size in burst:
                lines.append(f"{va:x} {size}")
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def load(cls, path: Path) -> "TranslationTrace":
        """Read a trace written by :meth:`save`."""
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != _MAGIC:
            raise ValueError(f"{path} is not a {_MAGIC} file")
        if len(lines) < 2:
            raise ValueError(f"{path} is truncated: missing trace name")
        trace = cls(name=lines[1])
        current: Optional[List[Transaction]] = None
        for lineno, line in enumerate(lines[2:], start=3):
            if not line.strip():
                continue
            if line.startswith("B "):
                current = []
                trace.bursts.append(current)
                continue
            if current is None:
                raise ValueError(f"{path}:{lineno}: transaction before burst marker")
            va_hex, size_str = line.split()
            current.append((int(va_hex, 16), int(size_str)))
        return trace


def capture_trace(workload, npu_config: Optional[NPUConfig] = None) -> TranslationTrace:
    """Record the DMA transaction stream a workload generates.

    One burst per tile fetch, in schedule order — the exact stream the
    simulator replays, captured without running any timing.
    """
    from .simulator import NPUSimulator  # deferred: simulator imports dma too
    from ..core.mmu import oracle_config

    sim = NPUSimulator(workload, oracle_config(), npu_config=npu_config)
    dma = DMAEngine(sim.npu_config)
    trace = TranslationTrace(name=workload.name)
    for schedule in sim.schedules:
        for step in schedule.steps:
            for fetch in step.fetches:
                trace.bursts.append(list(dma.transactions(fetch)))
    return trace


@dataclass
class ReplayResult:
    """Outcome of replaying a trace through one MMU configuration."""

    trace_name: str
    mmu_name: str
    total_cycles: float
    bursts: List[BurstResult]
    mmu_summary: RunSummary

    @property
    def stall_cycles(self) -> float:
        """Total DMA-blocked cycles across the replay."""
        return sum(b.stall_cycles for b in self.bursts)


def synthesize_page_table(
    trace: TranslationTrace, page_size: int = PAGE_SIZE_4K
) -> PageTable:
    """Build a page table mapping every page the trace touches.

    Frames are assigned in ascending-VA order, which is what a fresh
    device allocation gives.
    """
    pages = set()
    for burst in trace.bursts:
        for va, size in burst:
            first = page_number(va, page_size)
            last = page_number(va + size - 1, page_size)
            pages.update(range(first, last + 1))
    table = PageTable()
    for pfn, vpn in enumerate(sorted(pages)):
        table.map_page(vpn * page_size, pfn, page_size)
    return table


def replay_trace(
    trace: TranslationTrace,
    mmu_config: MMUConfig,
    npu_config: Optional[NPUConfig] = None,
    inter_burst_gap: float = 0.0,
) -> ReplayResult:
    """Replay a trace through ``mmu_config``; returns burst-level timing.

    ``inter_burst_gap`` inserts idle cycles between bursts, modelling
    compute phases that separate tile fetches.
    """
    if inter_burst_gap < 0:
        raise ValueError("inter-burst gap cannot be negative")
    npu_config = npu_config or NPUConfig()
    table = synthesize_page_table(trace, mmu_config.page_size)
    mmu = MMU(mmu_config, table)
    engine = TranslationEngine(mmu, MainMemory(npu_config.memory))
    cycle = 0.0
    results: List[BurstResult] = []
    end = 0.0
    for burst in trace.bursts:
        result = engine.run_burst(burst, cycle)
        results.append(result)
        cycle = result.issue_end_cycle + inter_burst_gap
        if result.data_end_cycle > end:
            end = result.data_end_cycle
    mmu.drain()
    return ReplayResult(
        trace_name=trace.name,
        mmu_name=mmu_config.name,
        total_cycles=end,
        bursts=results,
        mmu_summary=mmu.summary(),
    )
