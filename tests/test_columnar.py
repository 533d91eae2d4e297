"""Differential fuzzing: the engine's fast paths vs the reference loop.

A :class:`~repro.core.engine.TranslationEngine` with ``batched`` set
(the default; the ``columnar`` mode here) runs its fast paths (the
oracle shortcut, the FIFO path and the batched kernel) over the DMA's
:class:`~repro.core.stream.TransactionStream`; with ``batched`` cleared
(the ``reference`` mode) it runs the per-transaction reference loop, the
bit-identical golden semantics.  Both modes read the same stream.
Hypothesis drives random bursts spanning multiple ASIDs, page sizes,
QoS share policies, injected translation faults (mapped by the fault
handler, which may also evict an older page) and mid-run policy events
(re-weights, context teardown) through both modes and requires
identical service order and statistics — the same ``BurstResult``
sequences, fault-handler calls, ``RunSummary``, channel state, TLB
contents *in LRU order*, PTS map and counters, in-flight walks, free
list and walk sequence, PRMB statistics and Figure 7 timeline.

Two layers are fuzzed:

* representation: :class:`~repro.core.stream.TransactionStream` must
  yield the exact ``(va, size)`` tuples it was built from and the run
  metadata :func:`golden_runs` derives, for arbitrary streams;
* engine: full translation runs must retire bit-identically in both
  modes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import TranslationEngine
from repro.core.mmu import (
    MMU,
    MMUConfig,
    baseline_iommu_config,
    neummu_config,
    oracle_config,
)
from repro.core.stream import TransactionStream
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.memory.dram import MainMemory
from repro.memory.page_table import PageTable
from repro.npu.simulator import NPUSimulator
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer

BASE = 0x7F00_0000_0000
#: 4 KB pages mapped per context; VAs beyond the span fault.
N_PAGES = 96
#: Disjoint never-mapped region used for fault injection — far enough
#: from ``BASE`` that no 2 MB VPN straddles mapped and unmapped space.
FAULT_BASE = BASE + (1 << 40)

#: Design points spanning the engine's dispatch paths: the FIFO path
#: (baseline IOMMU), the merge-heavy NeuMMU point, a
#: walker/slot-starved point that exercises stall recycling, and a
#: PRMB-less path-cache point whose misses take the kernel's leading step.
FUZZ_CONFIGS = [
    baseline_iommu_config(),
    neummu_config(),
    MMUConfig(name="w2s4", n_walkers=2, prmb_slots=4),
    MMUConfig(name="tpreg0", n_walkers=6, prmb_slots=0, path_cache="tpreg"),
]


def build_table(first_pfn=10):
    table = PageTable()
    table.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=first_pfn)
    return table


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

#: A page index; a negative one selects an unmapped fault page in the
#: disjoint FAULT_BASE region.
_page = st.one_of(
    st.integers(0, N_PAGES - 1),
    st.integers(-8, -1),
)

#: One transaction: (page index, 256 B slot, size).
_tx = st.tuples(
    _page,
    st.integers(0, (PAGE_SIZE_4K // 256) - 2),
    st.sampled_from([64, 128, 256, 256, 256]),
)

_burst = st.lists(_tx, min_size=1, max_size=60)

#: Schedules interleave up to three address spaces (ASIDs 0, 5, 9).
_schedule = st.lists(
    st.tuples(st.sampled_from([0, 5, 9]), _burst), min_size=1, max_size=4
)

_qos = st.sampled_from(["full_share", "static_partition", "weighted"])

#: Streaming variant: (page, run length) pairs expanded into back-to-back
#: 256 B transactions, so resident same-page hit runs are long enough for
#: bulk hit spans and their streaming closed form.
_run = st.tuples(_page, st.integers(1, (PAGE_SIZE_4K // 256) - 1))

_run_burst = st.lists(_run, min_size=1, max_size=12).map(
    lambda runs: [
        (page, slot, 256) for page, length in runs for slot in range(length)
    ]
)

_run_schedule = st.lists(
    st.tuples(st.sampled_from([0, 5, 9]), _run_burst), min_size=1, max_size=4
)


def materialize(burst):
    """(page, slot, size) triples -> (va, size) transactions."""
    txs = []
    for page, slot, size in burst:
        if page < 0:
            base = FAULT_BASE + (-page) * PAGE_SIZE_2M
        else:
            base = BASE + page * PAGE_SIZE_4K
        txs.append((base + slot * 256, size))
    return txs


def golden_runs(txs, page_size):
    """Same-page ``(end_index, streamable)`` runs of ``(va, size)`` pairs,
    derived one transaction at a time."""
    runs = []
    mask = ~(page_size - 1)
    run_page, streamable, prev_end = -1, True, -1
    for idx, (va, size) in enumerate(txs):
        page = va & mask
        if page != run_page:
            if run_page >= 0:
                runs.append((idx, streamable))
            run_page, streamable = page, True
        elif va != prev_end:
            streamable = False
        if size != 256:
            streamable = False
        prev_end = va + size
    if run_page >= 0:
        runs.append((len(txs), streamable))
    return runs


# --------------------------------------------------------------------- #
# representation parity
# --------------------------------------------------------------------- #


class TestColumnarRepresentation:
    @given(_burst, st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M]))
    @settings(max_examples=60, deadline=None)
    def test_columns_project_golden_tuples_and_runs(self, burst, page_size):
        txs = materialize(burst)
        stream = TransactionStream.from_pairs(txs, page_size)
        assert list(stream) == txs
        assert len(stream) == len(txs)
        assert list(stream)[len(txs) // 2] == txs[len(txs) // 2]
        assert list(stream)[1:] == txs[1:]
        assert stream.runs == golden_runs(txs, page_size)

    def test_uniform_size_collapses_column(self):
        txs = [(BASE + k * 256, 256) for k in range(32)]
        stream = TransactionStream.from_pairs(txs)
        assert stream.sizes is None and stream.uniform_size == 256
        assert stream.size_list == [256] * 32
        mixed = TransactionStream.from_pairs(txs + [(BASE, 64)])
        assert mixed.sizes is not None and mixed.uniform_size == 0


# --------------------------------------------------------------------- #
# engine differential fuzzing
# --------------------------------------------------------------------- #


#: Fault pages the evicting handler keeps mapped per context; past it,
#: each fault unmaps an older one.
EVICT_BUDGET = 2


def run_mode(
    mode, config, qos, schedule, page_size, epoch_ops=None, evict=False,
    window=0, start=0.0,
):
    """One full multi-ASID run in ``mode``; returns comparable state.

    ``epoch_ops`` maps a schedule index to a policy event applied after
    that burst: ``("weight", asid, w)`` re-weights a tenant and
    ``("remove", asid)`` destroys its context mid-run, poisoning its
    in-flight walks; later bursts of a removed ASID are skipped.
    ``evict`` makes the fault handler evict, ``window`` turns the
    timeline on and burst ``i`` starts at ``i * 7 + start``.
    """
    cfg = replace(config, qos=qos, page_size=page_size)
    mmu = MMU(cfg, None)
    tables = {
        0: build_table(first_pfn=10),
        5: build_table(first_pfn=500_000),
        9: build_table(first_pfn=900_000),
    }
    mmu.register_context(0, tables[0], weight=2.0)
    mmu.register_context(5, tables[5], weight=1.0)
    mmu.register_context(9, tables[9], weight=1.5)
    memory = MainMemory()
    engine = TranslationEngine(mmu, memory, timeline_window=window)
    engine.batched = mode == "columnar"

    page_bits = page_size.bit_length() - 1
    calls = []
    resident = {asid: [] for asid in tables}
    evictions = []

    def demand_map(vpn, cycle, asid):
        # Deterministic demand-paging stand-in: map the faulting page at
        # a fixed cost so the burst continues identically in both modes.
        calls.append((vpn, cycle, asid))
        tables[asid].map_range(
            vpn << page_bits, page_size,
            first_pfn=2_000_000 + (vpn & 0xFFFF) * 512 + asid,
        )
        # Shoot down the negative-result caches so the retry resolves
        # (mirrors LocalMemoryTier.handle_fault).
        mmu.shootdown(vpn, asid)
        pages = resident[asid]
        pages.append(vpn)
        if evict and len(pages) > EVICT_BUDGET:
            # Unmap the oldest other page whose walk is not in flight and
            # shoot it down, as LocalMemoryTier._evict_over_budget does.
            for old in pages:
                if old != vpn and (
                    mmu.pts is None or mmu.pts.peek(old, asid) is None
                ):
                    pages.remove(old)
                    tables[asid].unmap_page(old << page_bits, page_size)
                    mmu.shootdown(old, asid)
                    evictions.append((old, asid))
                    break
        return cycle + 2500.0

    engine.fault_handler = demand_map
    removed = set()
    results = []
    for i, (asid, burst) in enumerate(schedule):
        if asid not in removed:
            txs = materialize(burst)
            if mode == "columnar":
                txs = TransactionStream.from_pairs(txs, page_size)
            results.append(engine.run_burst(txs, i * 7 + start, asid))
        op = (epoch_ops or {}).get(i)
        if op is not None:
            if op[0] == "weight":
                mmu.share_policy.set_weight(op[1], op[2])
            else:
                mmu.destroy_context(op[1])
                removed.add(op[1])
    state = {
        "results": results,
        "faults": calls,
        "evictions": evictions,
        "stats": mmu.stats.snapshot(),
        "timeline": dict(engine.timeline),
    }
    if mmu.pool is not None:
        pool = mmu.pool
        # The heap's list order is not observable: every key is distinct,
        # so pops come out in sorted order either way.
        state["live"] = (
            sorted(pool.heap),
            list(pool._free),
            pool._seq,
            {a: sorted(b) for a, b in pool._busy_by_asid.items() if b},
            [(key, list(w)) for key, w in mmu.pts._by_vpn.items()],
        )
    mmu.drain()
    state["summary"] = mmu.summary()
    state["channels"] = tuple(memory._channel_free)
    state["mem"] = (memory.total_bytes, memory.total_accesses)
    if mmu.pool is not None:
        state["prmb"] = dict(mmu.pool.prmb_stats.__dict__)
        state["pts"] = (mmu.pts.lookups, mmu.pts.hits, mmu.pts.in_flight)
        # Items in order capture the exact service/insertion sequence.
        state["tlb"] = list(mmu.tlb._set.items())
        state["occupancy"] = dict(mmu.tlb._asid_occupancy)
    return state


def assert_modes_match(config, qos, schedule, page_size=PAGE_SIZE_4K, **kw):
    """Both modes leave the same state; returns the columnar one."""
    columnar = run_mode("columnar", config, qos, schedule, page_size, **kw)
    reference = run_mode("reference", config, qos, schedule, page_size, **kw)
    assert columnar == reference
    return columnar


class TestEngineDifferential:
    @pytest.mark.parametrize(
        "config", FUZZ_CONFIGS, ids=lambda c: c.name
    )
    @given(schedule=_schedule, qos=_qos)
    @settings(max_examples=25, deadline=None)
    def test_columnar_matches_reference(self, config, schedule, qos):
        columnar = run_mode("columnar", config, qos, schedule, PAGE_SIZE_4K)
        reference = run_mode("reference", config, qos, schedule, PAGE_SIZE_4K)
        assert columnar == reference

    @given(schedule=_schedule)
    @settings(max_examples=15, deadline=None)
    def test_large_pages_match(self, schedule):
        config = baseline_iommu_config()
        columnar = run_mode(
            "columnar", config, "weighted", schedule, PAGE_SIZE_2M
        )
        reference = run_mode(
            "reference", config, "weighted", schedule, PAGE_SIZE_2M
        )
        assert columnar == reference

    @given(_burst)
    @settings(max_examples=20, deadline=None)
    def test_faults_counted_identically(self, burst):
        """Injected faults retire with the same count and service order."""
        schedule = [(0, burst)]
        columnar = run_mode(
            "columnar", neummu_config(), "full_share", schedule, PAGE_SIZE_4K
        )
        reference = run_mode(
            "reference", neummu_config(), "full_share", schedule, PAGE_SIZE_4K
        )
        assert columnar == reference
        n_faulting = sum(1 for page, _, _ in burst if page < 0)
        if n_faulting:
            assert columnar["summary"].faults > 0


class TestPolicyEvents:
    """Policy events both fast runners must honour mid-run: a re-weight
    or a context teardown between bursts bumps the policy version, so
    quota memos must refresh.  The reference path consults the policy on
    every transaction, so it is the oracle."""

    @pytest.mark.parametrize(
        "config", FUZZ_CONFIGS, ids=lambda c: c.name
    )
    @given(schedule=_run_schedule, qos=_qos)
    @settings(max_examples=15, deadline=None)
    def test_epoch_bumps(self, config, schedule, qos):
        """Re-weight ASID 5 after the first burst, destroy ASID 9 after
        the second."""
        ops = {0: ("weight", 5, 3.0), 1: ("remove", 9)}
        columnar = run_mode(
            "columnar", config, qos, schedule, PAGE_SIZE_4K, epoch_ops=ops
        )
        reference = run_mode(
            "reference", config, qos, schedule, PAGE_SIZE_4K, epoch_ops=ops
        )
        assert columnar == reference


class TestEvictingFaults:
    """Faults whose handler evicts: it maps the faulting page, then
    unmaps an older page it mapped and shoots it down, so that page's
    TLB entry goes mid-burst and its next touch faults again.  The FIFO
    path and the oracle shortcut handle these faults inside their loops.
    """

    @given(bursts=st.lists(_burst, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_iommu_single_tenant(self, bursts):
        schedule = [(0, burst) for burst in bursts]
        assert_modes_match(
            baseline_iommu_config(), "full_share", schedule, evict=True
        )

    @pytest.mark.parametrize(
        "qos", ["full_share", "static_partition", "weighted"]
    )
    @given(
        schedule=st.lists(
            st.tuples(st.sampled_from([0, 5]), _burst),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_iommu_two_tenants(self, qos, schedule):
        assert_modes_match(baseline_iommu_config(), qos, schedule, evict=True)

    @given(schedule=_schedule)
    @settings(max_examples=25, deadline=None)
    def test_oracle(self, schedule):
        assert_modes_match(oracle_config(), "full_share", schedule, evict=True)

    @given(schedule=_run_schedule)
    @settings(max_examples=25, deadline=None)
    def test_oracle_timeline_fractional_start(self, schedule):
        # Same-page runs of up to 15 transactions cross the 10-cycle
        # windows, so each run's captures must step through them.
        state = assert_modes_match(
            oracle_config(), "full_share", schedule, evict=True,
            window=10, start=0.375,
        )
        issued = sum(len(burst) for _, burst in schedule)
        assert sum(state["timeline"].values()) == issued

    @pytest.mark.parametrize(
        "config", [baseline_iommu_config(), oracle_config()],
        ids=lambda c: c.name,
    )
    def test_evicted_pages_fault_again(self, config):
        pages = (-1, -2, -3, -4, -5, 1, -1, -2)
        burst = [(page, slot, 256) for page in pages for slot in range(12)]
        state = assert_modes_match(
            config, "full_share", [(0, burst), (0, burst)], evict=True
        )
        assert state["evictions"]
        faulted = [vpn for vpn, _, _ in state["faults"]]
        assert len(faulted) > len(set(faulted))


# --------------------------------------------------------------------- #
# full-pipeline mode parity
# --------------------------------------------------------------------- #


class TestPipelineModes:
    @pytest.mark.parametrize("base", [baseline_iommu_config, neummu_config])
    def test_simulator_modes_bit_identical(self, base):
        """``batched`` only selects the engine loop, never any figure."""
        workload = Workload(
            name="mode_fc",
            batch=1,
            layers=(
                DenseLayer("fc1", 1, 2048, 1024),
                DenseLayer("fc2", 1, 1024, 512),
            ),
        )
        results = {}
        for mode in ("columnar", "reference"):
            sim = NPUSimulator(workload, base())
            sim.engine.batched = mode == "columnar"
            results[mode] = sim.run()
        ref, col = results["reference"], results["columnar"]
        assert col.total_cycles == ref.total_cycles
        assert col.mmu_summary == ref.mmu_summary
        assert [l.cycles for l in col.layers] == [l.cycles for l in ref.layers]
