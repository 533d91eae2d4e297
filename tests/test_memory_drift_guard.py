"""Drift guard: the engine's inlined channel arithmetic IS MainMemory.access.

Every engine path — ``_run_burst_reference``, ``_run_burst_oracle``,
``_run_burst_fifo`` and ``_run_burst_kernel`` — inlines the
memory-channel update (pick channel by ``(va >> 8) % channels``, FIFO
service, ``size / channel_bandwidth`` transfer, fixed latency) for
speed.  If :class:`~repro.memory.dram.MainMemory.access` ever changes —
different hash, different rounding, an added parameter — the inlined
copies must change with it.  These property tests replay random
transaction streams through the reference loop (oracular and translated)
and the oracle shortcut, and through a shadow ``MainMemory`` driven
purely by ``access`` calls, and require *exact* float equality on every
observable (per-channel busy-until state, data end, byte/access totals),
so any divergence between the inlined and delegated arithmetic fails
loudly; the parity suites hold the FIFO path and the kernel to the
reference loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import TranslationEngine
from repro.core.mmu import MMU, baseline_iommu_config, oracle_config
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.dram import MainMemory, MemoryConfig
from repro.memory.page_table import PageTable

BASE = 0x7F00_0000_0000
N_PAGES = 64


def mapped_table():
    table = PageTable()
    table.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=10)
    return table


#: Random streams: page index, 256 B slot within the page, and size.
transactions_strategy = st.lists(
    st.tuples(
        st.integers(0, N_PAGES - 1),
        st.integers(0, PAGE_SIZE_4K // 256 - 1),
        st.sampled_from([64, 128, 256, 300, 512]),
    ),
    min_size=1,
    max_size=200,
)

channel_counts = st.sampled_from([1, 2, 8])


def materialize(raw):
    return [
        (BASE + page * PAGE_SIZE_4K + slot * 256, size)
        for page, slot, size in raw
    ]


def delegated_replay(txs, ready_of, channels):
    """Replay ``txs`` through MainMemory.access — the golden arithmetic.

    ``ready_of(index, issue_cycle)`` gives each transaction's release
    cycle toward memory (translation latency included).
    """
    memory = MainMemory(MemoryConfig(channels=channels))
    cycle = 0.0
    data_end = 0.0
    for index, (va, size) in enumerate(txs):
        done = memory.access(ready_of(index, cycle), size, address=va)
        if done > data_end:
            data_end = done
        cycle += 1.0
    return memory, data_end


class TestInlinedChannelArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(raw=transactions_strategy, channels=channel_counts)
    def test_reference_path_matches_delegated_access(self, raw, channels):
        """Oracle + reference loop: ready == issue cycle exactly."""
        txs = materialize(raw)
        mmu = MMU(oracle_config(), mapped_table())
        memory = MainMemory(MemoryConfig(channels=channels))
        engine = TranslationEngine(mmu, memory)
        engine.batched = False
        result = engine.run_burst(txs, 0.0)

        shadow, data_end = delegated_replay(
            txs, lambda index, cycle: cycle, channels
        )
        assert memory._channel_free == shadow._channel_free
        assert result.data_end_cycle == data_end
        assert memory.total_bytes == shadow.total_bytes
        assert memory.total_accesses == shadow.total_accesses

    @settings(max_examples=60, deadline=None)
    @given(raw=transactions_strategy, channels=channel_counts)
    def test_oracle_fast_path_matches_delegated_access(self, raw, channels):
        txs = materialize(raw)
        mmu = MMU(oracle_config(), mapped_table())
        memory = MainMemory(MemoryConfig(channels=channels))
        engine = TranslationEngine(mmu, memory)
        result = engine.run_burst(txs, 0.0)

        shadow, data_end = delegated_replay(
            txs, lambda index, cycle: cycle, channels
        )
        assert memory._channel_free == shadow._channel_free
        assert result.data_end_cycle == data_end
        assert memory.total_bytes == shadow.total_bytes
        assert memory.total_accesses == shadow.total_accesses

    @settings(max_examples=40, deadline=None)
    @given(raw=transactions_strategy, channels=channel_counts)
    def test_translated_reference_matches_delegated_access(
        self, raw, channels
    ):
        """TLB-warm reference loop: ready == cycle + hit latency exactly."""
        config = baseline_iommu_config()
        txs = materialize(raw)
        mmu = MMU(config, mapped_table())
        for page in range(N_PAGES):  # pre-warm: every lookup hits
            mmu.tlb.insert((BASE >> 12) + page, 10 + page)
        memory = MainMemory(MemoryConfig(channels=channels))
        engine = TranslationEngine(mmu, memory)
        engine.batched = False
        result = engine.run_burst(txs, 0.0)

        latency = config.tlb_hit_latency
        shadow, data_end = delegated_replay(
            txs, lambda index, cycle: cycle + latency, channels
        )
        assert memory._channel_free == shadow._channel_free
        assert result.data_end_cycle == data_end
        assert memory.total_bytes == shadow.total_bytes
        assert memory.total_accesses == shadow.total_accesses
