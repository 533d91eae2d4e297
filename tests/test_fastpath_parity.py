"""Golden-parity tests: batched fast path vs per-transaction reference.

The batched engine is an *optimization*, not a semantic change: for any
transaction stream and any MMU configuration it must produce bit-identical
``BurstResult``s, ``RunSummary``s and component state (memory channels,
TLB contents and LRU order, PRMB occupancy/statistics, PTS counters,
the walker pool's per-ASID PRMB occupancy and busy walkers).
These tests sweep randomized and adversarial streams across the design
space to lock that in, and pin the engine's inlined memory arithmetic to
``MainMemory.access``.
"""

import collections
import random
from dataclasses import replace

import pytest

from repro.cli import main
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
from repro.memory.dram import MainMemory, MemoryConfig
from repro.memory.page_table import PageTable
from repro.npu.simulator import MultiTenantSimulator, NPUSimulator
from repro.sparse.demand_paging import DemandPagingConfig, DemandPagingSimulator
from repro.workloads.cnn import Workload
from repro.workloads.embedding import dlrm
from repro.workloads.layers import DenseLayer
from repro.workloads.registry import dense_workload

BASE = 0x7F00_0000_0000
N_PAGES = 4000

#: Configurations spanning every dispatch path of the batched engine:
#: oracle, stall-heavy, merge-heavy, hit-heavy, path caches (``tpreg0``
#: is PRMB-less, so every miss takes the kernel's leading step), tiny
#: TLBs.
PARITY_CONFIGS = [
    oracle_config(),
    baseline_iommu_config(),
    neummu_config(),
    MMUConfig(name="w2", n_walkers=2, prmb_slots=4),
    MMUConfig(name="s1", n_walkers=8, prmb_slots=1),
    MMUConfig(name="w1s2", n_walkers=1, prmb_slots=2),
    MMUConfig(name="tpc", n_walkers=16, prmb_slots=8, path_cache="tpc"),
    MMUConfig(name="tpreg0", n_walkers=6, prmb_slots=0, path_cache="tpreg"),
    MMUConfig(name="tiny_tlb", tlb_entries=4, n_walkers=4, prmb_slots=2),
    # A wide PRMB pool without a path cache: the merge streak's machine.
    MMUConfig(name="w256", n_walkers=256, prmb_slots=32),
    neummu_config(page_size=PAGE_SIZE_2M),
    baseline_iommu_config(page_size=PAGE_SIZE_2M),
]


def build_table(n_pages=N_PAGES):
    table = PageTable()
    table.map_range(BASE, n_pages * PAGE_SIZE_4K, first_pfn=10)
    return table


def random_stream(seed, n):
    """Mixed run lengths, offsets and sizes — streamable and not."""
    rng = random.Random(seed)
    txs = []
    page = 0
    while len(txs) < n:
        run = rng.choice([1, 2, 3, 4, 6, 16, 16, 30])
        base = BASE + page * PAGE_SIZE_4K
        offset = rng.choice([0, 128])
        for k in range(run):
            txs.append(
                (
                    base + (offset + k * 256) % PAGE_SIZE_4K,
                    rng.choice([64, 128, 256, 256, 256]),
                )
            )
        if rng.random() < 0.7:
            page = rng.randrange(N_PAGES)
    return txs[:n]


def streaming_stream(n):
    """Fully contiguous 256 B transactions (the closed-form target)."""
    return [(BASE + k * 256, 256) for k in range(n)]


def make_engine(mmu, memory, batched):
    """An engine pinned to the fast paths (``batched``) or the reference."""
    engine = TranslationEngine(mmu, memory)
    engine.batched = batched
    return engine


def spy_paths(monkeypatch):
    """Count every engine's ``run_burst`` calls and entries into each
    path, by name."""
    calls = collections.Counter()
    for name in (
        "run_burst", "_run_burst_reference", "_run_burst_oracle",
        "_run_burst_fifo", "_run_burst_kernel",
    ):
        method = getattr(TranslationEngine, name)

        def spy(engine, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(engine, *args, **kwargs)

        monkeypatch.setattr(TranslationEngine, name, spy)
    return calls


def pool_bookkeeping(pool):
    """The walker pool's per-ASID PRMB occupancy and busy-walker counts.

    Only non-empty busy sets count: the FIFO path creates them eagerly,
    and an empty set behaves exactly like an absent one.
    """
    return (
        dict(pool._prmb_occ),
        {asid: len(busy) for asid, busy in pool._busy_by_asid.items() if busy},
    )


def run_both(config, bursts_batched, bursts_reference, channels=8):
    """Run the same stream through both paths; return comparable state."""
    out = []
    for batched, bursts in (
        (True, bursts_batched),
        (False, bursts_reference),
    ):
        mmu = MMU(config, build_table())
        memory = MainMemory(MemoryConfig(channels=channels))
        engine = make_engine(mmu, memory, batched)
        results, data_end = engine.run_bursts(bursts, 0.125)
        live = None if mmu.pool is None else pool_bookkeeping(mmu.pool)
        mmu.drain()
        state = {
            "results": results,
            "data_end": data_end,
            "summary": mmu.summary(),
            "channels": tuple(memory._channel_free),
            "mem_totals": (memory.total_bytes, memory.total_accesses),
        }
        if mmu.pool is not None:
            state["prmb"] = dict(mmu.pool.prmb_stats.__dict__)
            state["pts"] = (mmu.pts.lookups, mmu.pts.hits)
            state["tlb"] = list(mmu.tlb._set.items())
            state["pool_live"] = live
            state["pool"] = pool_bookkeeping(mmu.pool)
        out.append(state)
    return out


class TestBurstParity:
    @pytest.mark.parametrize("seed", [7, 38, 69, 100])
    @pytest.mark.parametrize(
        "config", PARITY_CONFIGS, ids=lambda c: f"{c.name}/{c.page_size}"
    )
    def test_random_streams_bit_identical(self, config, seed):
        txs = random_stream(seed, 2000)
        third = len(txs) // 3
        bursts = [txs[:third], txs[third : 2 * third], txs[2 * third :]]
        batched_state, reference_state = run_both(config, bursts, bursts)
        assert batched_state == reference_state

    @pytest.mark.parametrize(
        "config", PARITY_CONFIGS, ids=lambda c: f"{c.name}/{c.page_size}"
    )
    def test_streaming_bursts_bit_identical(self, config):
        txs = streaming_stream(2500)
        batched_state, reference_state = run_both(config, [txs], [txs])
        assert batched_state == reference_state

    @pytest.mark.parametrize(
        "config", PARITY_CONFIGS, ids=lambda c: f"{c.name}/{c.page_size}"
    )
    def test_streams_left_unchanged(self, config):
        """No engine path writes to the stream it reads: the simulator
        shares one stream per tile fetch across runs and engine modes."""
        txs = random_stream(11, 1800) + streaming_stream(700)
        stream = TransactionStream.from_pairs(txs, config.page_size)
        runs = list(stream.runs)
        vas = stream.vas.copy()
        for batched in (True, False):
            mmu = MMU(config, build_table())
            engine = make_engine(mmu, MainMemory(), batched)
            engine.run_burst(stream, 0.0)
            assert list(stream) == txs
            assert stream.runs == runs
            assert (stream.vas == vas).all()


class TestMultiASIDParity:
    """ASID-tagged bursts retire bit-identically on both engine paths."""

    def run_both_tagged(self, config, schedule):
        """``schedule``: (asid, burst) pairs replayed in order."""
        out = []
        for batched in (True, False):
            mmu = MMU(config, build_table())
            other = PageTable()
            other.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=700_000)
            mmu.register_context(5, other)
            memory = MainMemory()
            engine = make_engine(mmu, memory, batched)
            results = [
                engine.run_burst(burst, float(i * 10), asid)
                for i, (asid, burst) in enumerate(schedule)
            ]
            mmu.drain()
            state = {
                "results": results,
                "summary": mmu.summary(),
                "channels": tuple(memory._channel_free),
            }
            if mmu.pool is not None:
                state["tlb"] = list(mmu.tlb._set.items())
                state["pts"] = (mmu.pts.lookups, mmu.pts.hits)
            out.append(state)
        return out

    @pytest.mark.parametrize(
        "config",
        [baseline_iommu_config(), neummu_config(),
         MMUConfig(name="w2", n_walkers=2, prmb_slots=4)],
        ids=lambda c: c.name,
    )
    def test_interleaved_contexts_bit_identical(self, config):
        txs_a = random_stream(21, 900)
        txs_b = streaming_stream(900)
        schedule = [(0, txs_a), (5, txs_b), (5, txs_a), (0, txs_b)]
        batched_state, reference_state = self.run_both_tagged(config, schedule)
        assert batched_state == reference_state

    def test_contexts_fill_distinct_tlb_entries(self):
        config = neummu_config()
        txs = streaming_stream(600)
        batched_state, _ = self.run_both_tagged(config, [(0, txs), (5, txs)])
        pfns = {pfn for _, pfn in batched_state["tlb"]}
        assert any(pfn < 700_000 for pfn in pfns)
        assert any(pfn >= 700_000 for pfn in pfns)


class TestSimulatorParity:
    """Full-pipeline parity: identical RunResults either way."""

    @pytest.mark.parametrize(
        "config",
        [oracle_config(), baseline_iommu_config(), neummu_config(),
         baseline_iommu_config(page_size=PAGE_SIZE_2M)],
        ids=lambda c: f"{c.name}/{c.page_size}",
    )
    def test_small_workload(self, config):
        workload = Workload(
            name="parity_fc",
            batch=1,
            layers=(DenseLayer("fc1", 1, 2048, 1024), DenseLayer("fc2", 1, 1024, 512)),
        )
        results = []
        for batched in (True, False):
            sim = NPUSimulator(workload, config)
            sim.engine.batched = batched
            results.append(sim.run())
        assert results[0].total_cycles == results[1].total_cycles
        assert results[0].mmu_summary == results[1].mmu_summary
        assert [l.cycles for l in results[0].layers] == [
            l.cycles for l in results[1].layers
        ]

    def test_real_network_summary_identical(self):
        results = []
        for batched in (True, False):
            sim = NPUSimulator(dense_workload("RNN-2", 1), neummu_config())
            sim.engine.batched = batched
            results.append(sim.run())
        assert results[0].total_cycles == results[1].total_cycles
        assert results[0].mmu_summary == results[1].mmu_summary
        assert results[0] == results[1]

    @pytest.mark.parametrize("network", ["CNN-2", "RNN-2"])
    @pytest.mark.parametrize("walkers", [16, 256])
    def test_real_network_prmb_identical(self, network, walkers):
        """Figure 11's PRMB(32) design points without a path cache: the
        merge streak drains most of each run (walker-short at 16
        walkers, stall-free at 256), and the whole RunResult (cycles,
        summary, per-layer results) matches the reference loop."""
        config = MMUConfig(
            name=f"ptw{walkers}", n_walkers=walkers, prmb_slots=32,
            path_cache="none",
        )
        results = []
        for batched in (True, False):
            sim = NPUSimulator(dense_workload(network, 1), config)
            sim.engine.batched = batched
            results.append(sim.run())
            if batched:
                drained = sim.engine.calendars[0].counts()["streak_drained"]
        assert results[0] == results[1]
        assert drained > 0

    @pytest.mark.parametrize("network", ["CNN-1", "CNN-3"])
    def test_real_network_iommu_identical(self, network):
        """Figure 8's baseline IOMMU cells whose chain and cadence plans
        run through queued channels (the tenant's own transfers backlog
        them): the whole RunResult matches the reference loop."""
        results = []
        for batched in (True, False):
            sim = NPUSimulator(dense_workload(network, 1), baseline_iommu_config())
            sim.engine.batched = batched
            results.append(sim.run())
            if batched:
                queued = sim.engine.calendars[0].counts()["queued"]
        assert results[0] == results[1]
        assert queued > 0


class TestContendedPathParity:
    """Under non-trivial QoS policies the batched kernel is bit-identical
    to the reference loop: same BurstResults, counters, channel state,
    TLB contents/LRU order, per-ASID occupancy and pool bookkeeping."""

    #: No-PRMB and merge-heavy design points, policied.  ``tpc0`` and
    #: ``tpreg0`` are PRMB-less with a path cache: their misses take the
    #: kernel's inlined leading step, not the FIFO path.
    CONTENDED_CONFIGS = [
        baseline_iommu_config(),
        neummu_config(),
        MMUConfig(name="w2", n_walkers=2, prmb_slots=4),
        MMUConfig(name="s1", n_walkers=8, prmb_slots=1),
        MMUConfig(name="tiny_tlb", tlb_entries=4, n_walkers=4, prmb_slots=2),
    # A wide PRMB pool without a path cache: the merge streak's machine.
    MMUConfig(name="w256", n_walkers=256, prmb_slots=32),
        MMUConfig(name="tpc0", n_walkers=16, prmb_slots=0, path_cache="tpc"),
        MMUConfig(name="tpreg0", n_walkers=6, prmb_slots=0, path_cache="tpreg"),
    ]

    def run_both_policied(self, config, qos, schedule, w0=2.0):
        out = []
        for batched in (True, False):
            mmu = MMU(replace(config, qos=qos), None)
            mmu.register_context(0, build_table(), weight=w0)
            other = PageTable()
            other.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=500_000)
            mmu.register_context(5, other, weight=1.0)
            memory = MainMemory(MemoryConfig())
            engine = make_engine(mmu, memory, batched)
            results = [
                engine.run_burst(burst, float(i * 7), asid)
                for i, (asid, burst) in enumerate(schedule)
            ]
            live = pool_bookkeeping(mmu.pool)
            mmu.drain()
            out.append(
                {
                    "results": results,
                    "summary": mmu.summary(),
                    "channels": tuple(memory._channel_free),
                    "mem": (memory.total_bytes, memory.total_accesses),
                    "prmb": dict(mmu.pool.prmb_stats.__dict__),
                    "pts": (mmu.pts.lookups, mmu.pts.hits, mmu.pts.in_flight),
                    "tlb": list(mmu.tlb._set.items()),
                    "occupancy": dict(mmu.tlb._asid_occupancy),
                    "pool_live": live,
                    "pool": pool_bookkeeping(mmu.pool),
                }
            )
        return out

    @pytest.mark.parametrize("qos", ["static_partition", "weighted"])
    @pytest.mark.parametrize(
        "config", CONTENDED_CONFIGS, ids=lambda c: c.name
    )
    def test_policied_streams_bit_identical(self, config, qos):
        txs_a = random_stream(38, 1500)
        txs_b = streaming_stream(800) + random_stream(39, 700)
        schedule = [(0, txs_a), (5, txs_b), (5, txs_a[:400]), (0, txs_b[:400])]
        batched_state, reference_state = self.run_both_policied(
            config, qos, schedule
        )
        assert batched_state == reference_state

    @pytest.mark.parametrize("seed", [7, 69, 100])
    def test_policied_iommu_random_seeds(self, seed):
        """Extra seeds on the no-PRMB design point (the FIFO path)."""
        txs_a = random_stream(seed, 1800)
        txs_b = streaming_stream(900)
        schedule = [(0, txs_a), (5, txs_b), (0, txs_b[:300])]
        batched_state, reference_state = self.run_both_policied(
            baseline_iommu_config(), "weighted", schedule, w0=3.0
        )
        assert batched_state == reference_state

    def test_every_share_policy_reaches_the_one_kernel(self, monkeypatch):
        """A full_share and a static_partition PRMB burst dispatch to the
        same batched kernel method: full sharing is not a separate path."""
        calls = spy_paths(monkeypatch)
        reached = {}
        for qos in ("full_share", "static_partition"):
            mmu = MMU(replace(neummu_config(), qos=qos), build_table())
            engine = make_engine(mmu, MainMemory(), True)
            calls.clear()
            engine.run_burst(streaming_stream(64), 0.0)
            reached[qos] = dict(calls)
        kernel = {"run_burst": 1, "_run_burst_kernel": 1}
        assert reached == {"full_share": kernel, "static_partition": kernel}

    def test_each_design_point_reaches_its_path(self, monkeypatch):
        """``run_burst`` hands each design point to one path: the oracle
        (also with a fault handler or a timeline) to the oracle shortcut;
        PRMB-less, path-cache-less MMUs (the baseline IOMMU, also under a
        demand-paging tier or shared under a quota) to the FIFO path,
        once per burst however many of its pages fault; NeuMMU and a
        PRMB-less TPreg machine to the kernel; and only the prefetcher,
        the two-level TLB and a timeline on a translated MMU to the
        reference loop."""
        calls = spy_paths(monkeypatch)
        unmapped = BASE + N_PAGES * PAGE_SIZE_4K

        def reached(config, window=0, paged=False):
            table = build_table()
            mmu = MMU(config, table)
            faults = []

            def demand_map(vpn, cycle, asid):
                faults.append(vpn)
                table.map_range(
                    vpn * PAGE_SIZE_4K, PAGE_SIZE_4K,
                    first_pfn=900_000 + len(faults),
                )
                mmu.shootdown(vpn, asid)
                return cycle + 500.0

            engine = TranslationEngine(
                mmu, MainMemory(), window, demand_map if paged else None
            )
            txs = streaming_stream(64)
            if paged:
                # Two unmapped pages: both fault inside the one burst.
                txs += [(unmapped + k * 256, 256) for k in range(32)]
            calls.clear()
            engine.run_burst(txs, 0.0)
            assert len(faults) == (2 if paged else 0)
            return dict(calls)

        def once(path):
            return {"run_burst": 1, path: 1}

        oracle = once("_run_burst_oracle")
        assert reached(oracle_config()) == oracle
        assert reached(oracle_config(), paged=True) == oracle
        assert reached(oracle_config(), window=100) == oracle
        assert reached(baseline_iommu_config()) == once("_run_burst_fifo")
        assert reached(baseline_iommu_config(), paged=True) == once(
            "_run_burst_fifo"
        )
        kernel = once("_run_burst_kernel")
        assert reached(neummu_config(), paged=True) == kernel
        tpreg0 = MMUConfig(name="tpreg0", n_walkers=6, path_cache="tpreg")
        assert reached(tpreg0) == kernel
        reference = once("_run_burst_reference")
        assert reached(MMUConfig(name="pf", prefetch_depth=2)) == reference
        assert reached(MMUConfig(name="l1", l1_tlb_entries=16)) == reference
        assert reached(baseline_iommu_config(), window=100) == reference

        # A demand-paging tier on the baseline IOMMU: every burst (the
        # embedding gathers and the dense phase) enters the FIFO path
        # once, though its pages fault many times more often.
        sim = DemandPagingSimulator(
            dlrm(), baseline_iommu_config(), 1,
            system=DemandPagingConfig(
                batches=3, warm_batches=1, table_rows=20_000,
                local_budget_bytes=1 << 20,
            ),
        )
        calls.clear()
        sim.run()
        assert set(calls) == {"run_burst", "_run_burst_fifo"}
        assert calls["_run_burst_fifo"] == calls["run_burst"]
        assert sim.faults > calls["run_burst"] and sim.evictions > 0

        # Two tenants sharing the MMU under each share policy.
        workload = Workload(
            name="spy_fc", batch=1, layers=(DenseLayer("fc", 1, 2048, 512),)
        )
        for config, path in (
            (baseline_iommu_config(), "_run_burst_fifo"),
            (neummu_config(), "_run_burst_kernel"),
        ):
            for qos in ("full_share", "static_partition", "weighted"):
                calls.clear()
                MultiTenantSimulator([workload, workload], config, qos=qos).run()
                assert set(calls) == {"run_burst", path}, (config.name, qos)
                assert calls[path] == calls["run_burst"]

    def test_fig7_and_fig16_never_reach_the_reference_loop(
        self, monkeypatch, tmp_path
    ):
        """Figure 7's timeline runs the oracle shortcut and Figure 16's
        paged cells the oracle shortcut, the FIFO path and the kernel."""
        calls = spy_paths(monkeypatch)
        assert main(["run", "fig7", "--out", str(tmp_path)]) == 0
        assert set(calls) == {"run_burst", "_run_burst_oracle"}
        calls.clear()
        assert main(["run", "fig16", "--batches", "1", "--out", str(tmp_path)]) == 0
        assert set(calls) == {
            "run_burst", "_run_burst_oracle", "_run_burst_fifo",
            "_run_burst_kernel",
        }
        assert calls["run_burst"] == (
            calls["_run_burst_oracle"] + calls["_run_burst_fifo"]
            + calls["_run_burst_kernel"]
        )


class TestMemoryArithmeticParity:
    """The engine's inlined channel arithmetic IS MainMemory.access."""

    def test_oracle_engine_matches_memory_model(self):
        txs = random_stream(3, 1500)
        mmu = MMU(oracle_config(), build_table())
        memory = MainMemory()
        engine = TranslationEngine(mmu, memory)
        result = engine.run_burst(txs, 0.0)

        reference = MainMemory()
        cycle = 0.0
        data_end = 0.0
        for va, size in txs:
            done = reference.access(cycle, size, address=va)
            if done > data_end:
                data_end = done
            cycle += 1.0
        assert result.data_end_cycle == data_end
        assert memory._channel_free == reference._channel_free
        assert memory.total_bytes == reference.total_bytes
        assert memory.total_accesses == reference.total_accesses

    def test_translated_engine_matches_memory_model(self):
        """With a TLB-warm stream, ready = cycle + hit latency exactly."""
        config = baseline_iommu_config()
        txs = [(BASE + (k % 8) * 256, 256) for k in range(64)]
        mmu = MMU(config, build_table())
        # Pre-fill the TLB so every transaction hits at +5 cycles.
        mmu.tlb.insert(BASE >> 12, 10)
        engine = TranslationEngine(mmu, MainMemory())
        result = engine.run_burst(txs, 0.0)

        reference = MainMemory()
        cycle = 0.0
        data_end = 0.0
        for va, size in txs:
            done = reference.access(cycle + config.tlb_hit_latency, size, address=va)
            if done > data_end:
                data_end = done
            cycle += 1.0
        assert result.data_end_cycle == data_end
        assert engine.memory._channel_free == reference._channel_free
