"""The pluggable QoS layer: share policies, arbiters, fairness.

Three layers of coverage:

* unit — :class:`SharePolicy` quota arithmetic, Jain's index, the
  policy-aware TLB victim selection, walker reservations and PRMB slot
  quotas, and the :class:`Arbiter` hierarchy;
* integration — :class:`MultiTenantSimulator` under every (policy,
  arbitration) combination, including the exact-conservation property
  (per-tenant usage must sum to the shared MMU's global counters) and
  mid-run tenant teardown;
* fairness smoke — 2 tiny tenants: Jain's index in (0, 1], weighted
  shares order the per-tenant slowdowns, and a reserved heavy tenant is
  never slower than under full sharing.
"""

import collections

import pytest

from repro.core.engine import TranslationEngine
from repro.core.mmu import MMU, MMUConfig, SharedMMU, baseline_iommu_config, neummu_config
from repro.core.qos import (
    ARBITRATION_POLICIES,
    QUANTUM,
    SHARE_POLICIES,
    PriorityArbiter,
    RoundRobinArbiter,
    WeightedQuantumArbiter,
    default_arbitration,
    jain_index,
    make_arbiter,
    make_share_policy,
)
from repro.core.tlb import TLB, TwoLevelTLB
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.page_table import PageTable
from repro.npu.simulator import MultiTenantSimulator, run_workload
from repro.workloads.cnn import Workload
from repro.workloads.layers import ConvLayer, DenseLayer

BASE = 0x7F00_0000_0000
VPN = BASE >> 12


def table_mapping(first_pfn, n_pages=4096):
    table = PageTable()
    table.map_range(BASE, n_pages * PAGE_SIZE_4K, first_pfn=first_pfn)
    return table


def tiny_workload(batch=1, tag="t"):
    # Deliberately small (this keeps the whole QoS suite inside the
    # fast CI tier) but with a dense layer wide enough that
    # two tenants genuinely saturate the 8-walker IOMMU's translation
    # throughput — the regime where share policies have teeth.
    return Workload(
        name=f"tiny_{tag}_b{batch:02d}",
        batch=batch,
        layers=(
            ConvLayer("c1", batch, 14, 14, 8, 32, kernel=3, pad=1),
            DenseLayer("fc", batch, 14 * 14 * 32, 256),
        ),
    )


# --------------------------------------------------------------------- #
# policy unit tests                                                      #
# --------------------------------------------------------------------- #


class TestSharePolicy:
    def test_full_share_never_constrains(self):
        policy = make_share_policy("full_share")
        policy.register(0, 1.0)
        policy.register(1, 9.0)
        assert policy.trivial
        assert policy.quota(0, 128) is None
        assert policy.tlb_quota(1, 2048) is None

    def test_static_partition_equal_split(self):
        policy = make_share_policy("static_partition")
        policy.register(0)
        policy.register(1)
        assert not policy.trivial and not policy.work_conserving
        assert policy.walker_quota(0, 128) == 64
        assert policy.walker_quota(1, 128) == 64

    def test_weighted_proportional_split(self):
        policy = make_share_policy("weighted")
        policy.register(0, 3.0)
        policy.register(1, 1.0)
        assert policy.work_conserving
        assert policy.walker_quota(0, 8) == 6
        assert policy.walker_quota(1, 8) == 2

    def test_quota_floors_at_one_entry(self):
        policy = make_share_policy("static_partition")
        for asid in range(16):
            policy.register(asid)
        assert policy.walker_quota(0, 8) == 1

    def test_unregistered_asid_is_unconstrained(self):
        policy = make_share_policy("static_partition")
        policy.register(0)
        assert policy.quota(7, 128) is None

    def test_unregister_grows_survivors(self):
        policy = make_share_policy("static_partition")
        policy.register(0)
        policy.register(1)
        assert policy.walker_quota(0, 128) == 64
        policy.unregister(1)
        assert policy.walker_quota(0, 128) == 128

    def test_validation(self):
        with pytest.raises(ValueError, match="choose from"):
            make_share_policy("coin_flip")
        policy = make_share_policy("weighted")
        with pytest.raises(ValueError, match="positive"):
            policy.register(0, 0.0)

    def test_jain_index(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([2.0, 1.0]) == pytest.approx(0.9)
        # Bounded by [1/n, 1].
        assert jain_index([100.0, 1.0, 1.0]) > 1 / 3
        assert jain_index([]) == 0.0


# --------------------------------------------------------------------- #
# TLB partitioning                                                       #
# --------------------------------------------------------------------- #


def two_tenant_policy(kind="static_partition", w0=1.0, w1=1.0):
    policy = make_share_policy(kind)
    policy.register(0, w0)
    policy.register(1, w1)
    return policy


class TestTLBPartitioning:
    def test_occupancy_capped_at_quota(self):
        tlb = TLB(8, policy=two_tenant_policy())
        for i in range(16):
            tlb.insert(VPN + i, i, asid=0)
        assert tlb.occupancy_of(0) == 4
        assert tlb.occupancy <= 8

    def test_capped_tenant_self_victimizes(self):
        """A tenant at quota evicts its own LRU, not another tenant's."""
        tlb = TLB(8, policy=two_tenant_policy())
        for i in range(4):
            tlb.insert(VPN + i, i, asid=1)
        for i in range(8):
            tlb.insert(VPN + i, i, asid=0)
        # Tenant 1's four entries all survived tenant 0's overflow.
        for i in range(4):
            assert tlb.contains(VPN + i, asid=1)
        assert tlb.occupancy_of(0) == 4
        # Tenant 0 holds its four most recent pages (LRU self-eviction).
        for i in range(4, 8):
            assert tlb.contains(VPN + i, asid=0)

    def test_weighted_quotas_skew_capacity(self):
        tlb = TLB(8, policy=two_tenant_policy("static_partition", 3.0, 1.0))
        for i in range(16):
            tlb.insert(VPN + i, i, asid=0)
            tlb.insert(VPN + i, i, asid=1)
        assert tlb.occupancy_of(0) == 6
        assert tlb.occupancy_of(1) == 2

    def test_work_conserving_borrows_idle_capacity(self):
        """Under ``weighted``, a lone tenant may overflow its quota."""
        tlb = TLB(8, policy=two_tenant_policy("weighted"))
        for i in range(8):
            tlb.insert(VPN + i, i, asid=0)
        assert tlb.occupancy_of(0) == 8  # borrowed tenant 1's idle half
        # Pressure from tenant 1 reclaims the borrowed (over-quota) entries.
        tlb.insert(VPN + 100, 1, asid=1)
        assert tlb.occupancy_of(0) == 7
        assert tlb.contains(VPN + 100, asid=1)

    def test_static_partition_never_borrows(self):
        tlb = TLB(8, policy=two_tenant_policy("static_partition"))
        for i in range(8):
            tlb.insert(VPN + i, i, asid=0)
        assert tlb.occupancy_of(0) == 4

    def test_invalidate_releases_quota(self):
        tlb = TLB(8, policy=two_tenant_policy())
        for i in range(4):
            tlb.insert(VPN + i, i, asid=0)
        assert tlb.invalidate(VPN, asid=0)
        assert tlb.occupancy_of(0) == 3
        tlb.insert(VPN + 9, 9, asid=0)
        assert tlb.occupancy_of(0) == 4

    def test_invalidate_asid_releases_quota(self):
        tlb = TLB(8, policy=two_tenant_policy())
        for i in range(4):
            tlb.insert(VPN + i, i, asid=0)
        assert tlb.invalidate_asid(0) == 4
        assert tlb.occupancy_of(0) == 0

    def test_reinsert_resident_key_does_not_leak_quota(self):
        tlb = TLB(8, policy=two_tenant_policy())
        for _ in range(5):
            tlb.insert(VPN, 1, asid=0)
        assert tlb.occupancy_of(0) == 1

    def test_two_level_tlb_partitions_both_levels(self):
        tlb = TwoLevelTLB(l1_entries=4, l2_entries=8, policy=two_tenant_policy())
        for i in range(8):
            tlb.insert(VPN + i, i, asid=0)
        assert tlb.l1.occupancy_of(0) == 2
        assert tlb.l2.occupancy_of(0) == 4

    def test_trivial_policy_is_plain_tlb(self):
        """full_share must leave the historical insert path untouched."""
        plain = TLB(4)
        policied = TLB(4, policy=make_share_policy("full_share"))
        for i in range(8):
            plain.insert(VPN + i, i, asid=0)
            policied.insert(VPN + i, i, asid=0)
        assert policied._policy is None
        for i in range(8):
            assert plain.contains(VPN + i) == policied.contains(VPN + i)


# --------------------------------------------------------------------- #
# walker + PRMB partitioning                                             #
# --------------------------------------------------------------------- #


def policied_mmu(kind, w0=1.0, w1=1.0, n_walkers=8, prmb_slots=0):
    config = MMUConfig(name="x", n_walkers=n_walkers, prmb_slots=prmb_slots, qos=kind)
    mmu = MMU(config, None)
    mmu.register_context(0, table_mapping(10), weight=w0)
    mmu.register_context(1, table_mapping(50000), weight=w1)
    return mmu


class TestWalkerReservations:
    def test_walker_quota_blocks_at_reservation(self):
        mmu = policied_mmu("static_partition", 3.0, 1.0)
        pool = mmu.pool
        # Tenant 1 (quota 2) dispatches walks for distinct pages.
        for i in range(2):
            ready, _ = mmu.translate(VPN + i, float(i), asid=1)
            assert ready is not None
        assert not pool.can_start(1)
        assert pool.free_walkers == 6  # six walkers idle but reserved
        ready, retry = mmu.translate(VPN + 2, 2.0, asid=1)
        assert ready is None and retry > 2.0
        # Tenant 0 (quota 6) still gets its reservation.
        assert pool.can_start(0)
        ready, _ = mmu.translate(VPN + 3, 3.0, asid=0)
        assert ready is not None

    def test_quota_blocked_retry_waits_for_own_walk(self):
        mmu = policied_mmu("static_partition", 1.0, 1.0)
        pool = mmu.pool
        mmu.translate(VPN + 100, 0.0, asid=1)  # completes earliest
        # Fill tenant 0's quota (4 of 8 walkers) with later walks.
        for i in range(4):
            mmu.translate(VPN + i, 100.0 + i, asid=0)
        ready, retry = mmu.translate(VPN + 50, 200.0, asid=0)
        assert ready is None
        assert pool.free_walkers > 0  # blocked by quota, not capacity
        # Tenant 0 unblocks when *its* earliest walk completes, not when
        # tenant 1's (earlier) walk frees a walker it may not use.
        own = min(pool._completion_of[w] for w in pool._busy_by_asid[0])
        other = min(pool._completion_of[w] for w in pool._busy_by_asid[1])
        assert retry == own
        assert retry > other

    def test_work_conserving_borrows_idle_walkers(self):
        # Quotas floor to 3 + 3 of 7 walkers, leaving one unreserved;
        # tenant 0 may borrow it past its quota while tenant 1 idles,
        # but never dip into tenant 1's unmet reservation.
        mmu = policied_mmu("weighted", 1.0, 1.0, n_walkers=7)
        for i in range(5):
            ready, _ = mmu.translate(VPN + i, float(i), asid=0)
            assert (ready is not None) == (i < 4)
        assert mmu.pool.busy_walkers_of(0) == 4  # quota 3 + 1 borrowed
        assert mmu.pool.free_walkers == 3  # tenant 1's reservation intact

    def test_quota_blocked_retry_ignores_others_when_pool_full(self):
        """Even with zero free walkers, a hard-partitioned tenant at
        quota waits for its *own* walk — another tenant's completion
        frees a walker it still may not use."""
        mmu = policied_mmu("static_partition", 1.0, 1.0)
        pool = mmu.pool
        for i in range(4):  # tenant 1's walks complete early
            mmu.translate(VPN + 100 + i, float(i), asid=1)
        for i in range(4):  # tenant 0 fills its quota much later
            mmu.translate(VPN + i, 200.0 + i, asid=0)
        assert pool.free_walkers == 0
        ready, retry = mmu.translate(VPN + 50, 300.0, asid=0)
        assert ready is None
        own = min(pool._completion_of[w] for w in pool._busy_by_asid[0])
        assert retry == own > pool.earliest_completion()

    def test_work_conserving_retry_waits_for_any_completion(self):
        """Any walk retiring can reopen borrow headroom, so a blocked
        tenant under ``weighted`` retries at the pool-wide earliest
        completion — not just its own (which may be far later)."""
        config = MMUConfig(name="x", n_walkers=8, prmb_slots=0, qos="weighted")
        mmu = MMU(config, None)
        for asid in range(3):  # quotas floor to 2 of 8 walkers each
            mmu.register_context(asid, table_mapping(10 + 40000 * asid))
        pool = mmu.pool
        # Tenant 2 borrows to 4 walkers with early completions...
        for i in range(4):
            ready, _ = mmu.translate(VPN + i, float(i), asid=2)
            assert ready is not None
        # ...then tenant 0 fills its quota with much later walks.
        mmu.translate(VPN + 10, 500.0, asid=0)
        mmu.translate(VPN + 11, 501.0, asid=0)
        ready, retry = mmu.translate(VPN + 12, 502.0, asid=0)
        assert ready is None
        own = min(pool._completion_of[w] for w in pool._busy_by_asid[0])
        assert retry == pool.earliest_completion() < own

    def test_work_conserving_respects_other_reservations(self):
        mmu = policied_mmu("weighted", 1.0, 1.0)
        for i in range(4):
            mmu.translate(VPN + i, float(i), asid=0)
        # 4 free walkers exactly cover tenant 1's unmet reservation:
        # no headroom to borrow.
        assert not mmu.pool.can_start(0)

    def test_prefetcher_respects_walker_quota(self):
        """Speculative walks never breach the issuing tenant's reservation."""
        config = MMUConfig(
            name="x", n_walkers=4, prmb_slots=0, prefetch_depth=3,
            qos="static_partition",
        )
        mmu = MMU(config, None)
        mmu.register_context(0, table_mapping(10))
        mmu.register_context(1, table_mapping(50000))
        # Quota 2 of 4 walkers: one demand walk plus at most one prefetch.
        ready, _ = mmu.translate(VPN, 0.0, asid=0)
        assert ready is not None
        assert mmu.pool.busy_walkers_of(0) == 2
        assert mmu.prefetcher.stats.dropped_no_walker >= 1
        # Tenant 1's reservation is untouched.
        assert mmu.pool.can_start(1)

    def test_full_share_can_start_is_free_list(self):
        config = MMUConfig(name="x", n_walkers=2, prmb_slots=0)
        mmu = MMU(config, table_mapping(10))
        assert mmu.pool.can_start(0)
        mmu.translate(VPN, 0.0)
        mmu.translate(VPN + 1, 1.0)
        assert not mmu.pool.can_start(0)


class TestPRMBQuotas:
    def test_merge_quota_caps_parked_requests(self):
        # 2 walkers x 4 slots = 8 mergeable slots; equal split = 4 each.
        mmu = policied_mmu("static_partition", n_walkers=2, prmb_slots=4)
        pool = mmu.pool
        mmu.translate(VPN, 0.0, asid=0)  # walk in flight
        merges = 0
        for i in range(6):
            ready, _ = mmu.translate(VPN, 1.0 + i, asid=0)
            if ready is not None and mmu.stats.merges > merges:
                merges = mmu.stats.merges
        assert mmu.stats.merges == 4  # quota, not the walker's 4-slot cap x2
        assert pool.prmb_occupancy_of(0) == 4
        assert not pool.can_merge(0)
        assert pool.can_merge(1)

    def test_drain_releases_merge_quota(self):
        mmu = policied_mmu("static_partition", n_walkers=2, prmb_slots=4)
        mmu.translate(VPN, 0.0, asid=0)
        for i in range(4):
            mmu.translate(VPN, 1.0 + i, asid=0)
        assert not mmu.pool.can_merge(0)
        mmu.drain()
        assert mmu.pool.can_merge(0)
        assert mmu.pool.prmb_occupancy_of(0) == 0


# --------------------------------------------------------------------- #
# arbiters                                                               #
# --------------------------------------------------------------------- #


class FakeRun:
    """Minimal stepwise run: ``n`` steps of unit cost."""

    def __init__(self, n, cost=1):
        self.left = n
        self.cost = cost
        self.trace = []
        # Static clock: ties break on list order, exposing pure DRR
        # credit behaviour (clock ordering is exercised end-to-end by the
        # MultiTenantSimulator integration tests).
        self.clock = 0.0

    @property
    def done(self):
        return self.left <= 0

    def advance(self):
        if self.done:
            raise RuntimeError("already finished")
        self.left -= 1
        self.trace.append(self.left)
        return self.cost


class ClockedRun(FakeRun):
    """A run whose clock advances by ``step`` cycles per tile step."""

    def __init__(self, n, step, cost=1, clock=0.0):
        super().__init__(n, cost=cost)
        self.step = step
        self.clock = clock

    def advance(self):
        cost = super().advance()
        self.clock += self.step
        return cost


class TestArbiters:
    def test_factory_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="choose from"):
            make_arbiter("lottery")

    def test_factory_kinds(self):
        assert isinstance(make_arbiter("round_robin"), RoundRobinArbiter)
        assert isinstance(make_arbiter("priority"), PriorityArbiter)
        assert isinstance(
            make_arbiter("weighted_quantum"), WeightedQuantumArbiter
        )

    def test_round_robin_interleaves(self):
        runs = [FakeRun(3), FakeRun(3)]
        steps = []
        for run in runs:
            orig = run.advance

            def wrapped(run=run, orig=orig):
                steps.append(runs.index(run))
                return orig()

            run.advance = wrapped
        RoundRobinArbiter().run(runs)
        assert steps == [0, 1, 0, 1, 0, 1]

    def test_priority_serializes(self):
        runs = [FakeRun(2), FakeRun(2)]
        steps = []
        for i, run in enumerate(runs):
            orig = run.advance

            def wrapped(i=i, orig=orig):
                steps.append(i)
                return orig()

            run.advance = wrapped
        PriorityArbiter().run(runs)
        assert steps == [0, 0, 1, 1]

    def test_weighted_quantum_grants_proportional_bursts(self):
        """Weight 3 gets three consecutive quantum-cost steps per grant."""
        runs = [FakeRun(6, cost=QUANTUM), FakeRun(6, cost=QUANTUM)]
        steps = []
        for i, run in enumerate(runs):
            orig = run.advance

            def wrapped(i=i, orig=orig):
                steps.append(i)
                return orig()

            run.advance = wrapped
        WeightedQuantumArbiter(weights=[3, 1]).run(runs)
        assert steps == [0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]

    def test_weighted_quantum_completes_everyone(self):
        # Three steps per unit of weight per grant.
        cost = QUANTUM // 3 + 1
        runs = [FakeRun(5, cost), FakeRun(17, cost), FakeRun(1, cost)]
        WeightedQuantumArbiter(weights=[1, 4, 2]).run(runs)
        assert all(run.done for run in runs)

    def test_weighted_quantum_validation(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedQuantumArbiter(weights=[1, -1])
        with pytest.raises(ValueError, match="weight"):
            WeightedQuantumArbiter(weights=[1]).run([FakeRun(1), FakeRun(1)])

    def test_skew_horizon_holds_back_runaway_clock(self):
        """A tenant far ahead of the laggard waits even with credit.

        Tenants couple through shared channel state keyed by their private
        clocks, so the arbiter must not service a run whose clock has
        raced past the laggard's skew horizon (see the qos module docs).
        """
        # Two steps per grant.
        slow = ClockedRun(8, step=1.0, cost=QUANTUM // 2)
        fast = ClockedRun(8, step=1e9, cost=QUANTUM // 2)
        steps = []
        for i, run in enumerate((slow, fast)):
            orig = run.advance

            def wrapped(i=i, orig=orig):
                steps.append(i)
                return orig()

            run.advance = wrapped
        WeightedQuantumArbiter(weights=[1, 1]).run([slow, fast])
        assert slow.done and fast.done
        # The fast run's first step leaves it ~1e9 ahead, outside the skew
        # horizon: every remaining slow step precedes its second step.
        first = steps.index(1)
        assert first < 4
        # All of slow's remaining steps run before fast's second step.
        assert steps[first + 1:].count(0) == 8 - first
        assert steps[-7:] == [1] * 7

    @pytest.mark.parametrize(
        "start, expected",
        [
            # Clocks below 2 Mcycles: the SKEW_FLOOR bounds the horizon.
            (0.0, [0, 1, 2, 0, 0, 1, 0, 1, 1, 0, 0, 2, 0, 0, 1, 1, 0, 0,
                   0, 0, 2, 1, 1, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]),
            # Past 2 Mcycles the SKEW_WINDOW fraction of the laggard does.
            (5e6, [0, 1, 2, 0, 0, 1, 0, 1, 1, 0, 0, 2, 0, 0, 1, 1, 1, 1,
                   0, 0, 0, 0, 2, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2]),
        ],
    )
    def test_weighted_quantum_service_order_on_diverging_clocks(
        self, start, expected
    ):
        """Pins the clock-ordered DRR service sequence.

        Three tenants advance their clocks at different rates and issue
        different step costs (in translation slots, against the
        2048-slot quantum), so credit, the skew horizon and the
        min-clock pick all shape the order.
        """
        runs = [
            ClockedRun(12, step=7_000.0, cost=1024, clock=start),
            ClockedRun(12, step=15_000.0, cost=512, clock=start),
            ClockedRun(12, step=40_000.0, cost=2048, clock=start),
        ]
        steps = []
        for i, run in enumerate(runs):
            orig = run.advance

            def wrapped(i=i, orig=orig):
                steps.append(i)
                return orig()

            run.advance = wrapped
        WeightedQuantumArbiter(weights=[2, 1, 1]).run(runs)
        assert all(run.done for run in runs)
        assert steps == expected


class TestDefaultArbitration:
    """A shared-MMU run that names no arbitration arbitrates by quantum
    under unequal weights: round robin never reads the weights."""

    def test_rule(self):
        assert default_arbitration(None) == "round_robin"
        assert default_arbitration([2.0]) == "round_robin"
        assert default_arbitration([1.5, 1.5, 1.5]) == "round_robin"
        assert default_arbitration([3.0, 1.0]) == "weighted_quantum"
        assert default_arbitration((1, 1, 2)) == "weighted_quantum"

    @staticmethod
    def tenant_arbitrations(**kwargs):
        """The arbitration of every shared cell ``run tenants`` requests."""
        from repro.analysis import multi_tenant_contention
        from repro.analysis.parallel import TenantRunRequest

        class Stop(Exception):
            pass

        class RecordingRunner:
            requests = []

            def run_many(self, requests):
                self.requests = list(requests)
                raise Stop

        runner = RecordingRunner()
        with pytest.raises(Stop):
            multi_tenant_contention(tenants=2, runner=runner, **kwargs)
        return {
            request.arbitration
            for request in runner.requests
            if isinstance(request, TenantRunRequest)
        }

    def test_tenants_unequal_weights_take_weighted_quantum(self):
        assert self.tenant_arbitrations(qos="weighted", weights=(3, 1)) == {
            "weighted_quantum"
        }

    def test_tenants_keep_round_robin_otherwise(self):
        assert self.tenant_arbitrations() == {"round_robin"}
        assert self.tenant_arbitrations(qos="weighted", weights=(2, 2)) == {
            "round_robin"
        }
        assert self.tenant_arbitrations(
            qos="weighted", weights=(3, 1), arbitration="priority"
        ) == {"priority"}


# --------------------------------------------------------------------- #
# integration: conservation, teardown, fairness                          #
# --------------------------------------------------------------------- #


class TestConservation:
    """Satellite: per-tenant usage must sum to the global counters exactly."""

    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("arbitration", ARBITRATION_POLICIES)
    def test_usage_sums_to_global_counters(self, qos, arbitration):
        sim = MultiTenantSimulator(
            [tiny_workload(tag="a"), tiny_workload(batch=2, tag="b")],
            neummu_config(),
            arbitration=arbitration,
            qos=qos,
            weights=[2.0, 1.0],
        )
        sim.run()
        shared = sim.shared
        stats = shared.mmu.stats
        usages = list(shared.usage.values())
        assert sum(u.requests for u in usages) == stats.requests
        assert sum(u.tlb_hits for u in usages) == stats.tlb_hits
        assert sum(u.merges for u in usages) == stats.merges
        assert sum(u.walks for u in usages) == shared.mmu.pool.stats.walks
        assert sum(u.stall_cycles for u in usages) == stats.stall_cycles
        assert sum(u.faults for u in usages) == stats.faults

    def test_conservation_on_iommu_design_point(self):
        sim = MultiTenantSimulator(
            [tiny_workload(tag="a"), tiny_workload(tag="b")],
            baseline_iommu_config(),
            qos="static_partition",
        )
        sim.run()
        shared = sim.shared
        stats = shared.mmu.stats
        usages = list(shared.usage.values())
        assert sum(u.requests for u in usages) == stats.requests
        assert sum(u.stall_cycles for u in usages) == stats.stall_cycles
        assert sum(u.walks for u in usages) == shared.mmu.pool.stats.walks


class TestMidRunTeardown:
    """Satellite: removing a tenant between bursts must not disturb the rest."""

    BURST = [(BASE + k * 256, 256) for k in range(256)]

    def _run(self, remove_departed):
        """Tenants 0/1 interleave bursts; tenant 1 departs halfway."""
        shared = SharedMMU(neummu_config())
        shared.add_tenant(0, table_mapping(10))
        shared.add_tenant(1, table_mapping(50000))
        timings = []
        results, _ = shared.run_bursts(0, [self.BURST], 0.0)
        timings.append(results[0])
        results, _ = shared.run_bursts(1, [self.BURST], 0.0)
        if remove_departed:
            shared.remove_tenant(1)
        # Tenant 1 issues nothing past this point in either world.
        for start in (5000.0, 20000.0):
            results, _ = shared.run_bursts(0, [self.BURST], start)
            timings.append(results[0])
        return shared, timings

    def test_remaining_tenant_unchanged_after_departure(self):
        with_removal, timings_removed = self._run(remove_departed=True)
        without, timings_kept = self._run(remove_departed=False)
        for removed, kept in zip(timings_removed, timings_kept):
            assert removed.issue_end_cycle == kept.issue_end_cycle
            assert removed.data_end_cycle == kept.data_end_cycle
            assert removed.stall_cycles == kept.stall_cycles
        u_removed = with_removal.usage[0]
        u_kept = without.usage[0]
        assert u_removed.requests == u_kept.requests
        assert u_removed.tlb_hits == u_kept.tlb_hits
        assert u_removed.merges == u_kept.merges
        assert u_removed.stall_cycles == u_kept.stall_cycles

    def test_departed_tenant_gone_but_usage_readable(self):
        shared, _ = self._run(remove_departed=True)
        assert shared.tenants == [0]
        assert shared.usage[1].requests == len(self.BURST)
        assert 1 not in shared.mmu.contexts

    def test_departure_unregisters_share(self):
        shared = SharedMMU(
            neummu_config(), share_policy=make_share_policy("static_partition")
        )
        shared.add_tenant(0, table_mapping(10))
        shared.add_tenant(1, table_mapping(50000))
        assert shared.share_policy.walker_quota(0, 128) == 64
        shared.remove_tenant(1)
        assert shared.share_policy.walker_quota(0, 128) == 128


class TestFairnessSmoke:
    """Satellite: the fast-tier fairness smoke test (2 tiny tenants)."""

    @pytest.fixture(scope="class")
    def isolated_cycles(self):
        return run_workload(tiny_workload(), baseline_iommu_config()).total_cycles

    def _slowdowns(self, qos, weights, arbitration="round_robin"):
        sim = MultiTenantSimulator(
            [tiny_workload(tag="a"), tiny_workload(tag="b")],
            baseline_iommu_config(),
            arbitration=arbitration,
            qos=qos,
            weights=weights,
        )
        result = sim.run()
        return [t.total_cycles for t in result.tenants]

    def test_weighted_shares_order_slowdowns_and_jain_in_range(
        self, isolated_cycles
    ):
        cycles = self._slowdowns("weighted", [4.0, 1.0])
        slowdowns = [c / isolated_cycles for c in cycles]
        index = jain_index(slowdowns)
        assert 0.0 < index <= 1.0
        # The heavy tenant's reservation buys it latency: its slowdown
        # cannot exceed the light tenant's.
        assert slowdowns[0] <= slowdowns[1]

    def test_reserved_tenant_no_slower_than_full_share(self, isolated_cycles):
        full = self._slowdowns("full_share", [3.0, 1.0])
        static = self._slowdowns("static_partition", [3.0, 1.0])
        assert static[0] <= full[0] * 1.001

    def test_weighted_quantum_protects_heavy_tenant(self, isolated_cycles):
        rr = self._slowdowns("full_share", [3.0, 1.0])
        wq = self._slowdowns(
            "full_share", [3.0, 1.0], arbitration="weighted_quantum"
        )
        # The heavy tenant's longer quanta reduce mid-burst preemption.
        assert wq[0] <= rr[0] * 1.001
        assert wq[0] <= wq[1]


class TestSimulatorValidation:
    def test_unknown_qos_policy(self):
        with pytest.raises(ValueError, match="choose from"):
            MultiTenantSimulator(
                [tiny_workload()], neummu_config(), qos="coin_flip"
            )

    def test_unknown_arbitration_policy(self):
        with pytest.raises(ValueError, match="choose from"):
            MultiTenantSimulator(
                [tiny_workload()], neummu_config(), arbitration="lottery"
            )

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError, match="exactly one positive weight"):
            MultiTenantSimulator(
                [tiny_workload()], neummu_config(), weights=[1.0, 2.0]
            )

    def test_non_positive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            MultiTenantSimulator(
                [tiny_workload(tag="a"), tiny_workload(tag="b")],
                neummu_config(),
                weights=[1.0, 0.0],
            )

    def test_config_rejects_unknown_qos(self):
        with pytest.raises(ValueError, match="choose from"):
            MMUConfig(name="x", qos="coin_flip")


class TestDefaultBitIdentity:
    """full_share + round_robin must reproduce the pre-QoS engine exactly."""

    def test_default_run_matches_explicit_full_share(self):
        baseline = MultiTenantSimulator(
            [tiny_workload(tag="a"), tiny_workload(tag="b")], neummu_config()
        ).run()
        explicit = MultiTenantSimulator(
            [tiny_workload(tag="a"), tiny_workload(tag="b")],
            neummu_config(),
            qos="full_share",
            arbitration="round_robin",
            weights=[1.0, 1.0],
        ).run()
        for a, b in zip(baseline.tenants, explicit.tenants):
            assert a.total_cycles == b.total_cycles
            assert a.usage.requests == b.usage.requests
            assert a.usage.stall_cycles == b.usage.stall_cycles
        assert baseline.mmu_summary.requests == explicit.mmu_summary.requests

    @staticmethod
    def engine_paths(monkeypatch):
        """Count the shared engine's entries into each burst path."""
        calls = collections.Counter()
        for name in (
            "_run_burst_reference", "_run_burst_oracle",
            "_run_burst_fifo", "_run_burst_kernel",
        ):
            method = getattr(TranslationEngine, name)

            def spy(engine, *args, _name=name, _method=method, **kwargs):
                calls[_name] += 1
                return _method(engine, *args, **kwargs)

            monkeypatch.setattr(TranslationEngine, name, spy)
        return calls

    def test_trivial_policy_keeps_batched_fast_path(self, monkeypatch):
        calls = self.engine_paths(monkeypatch)
        sim = MultiTenantSimulator([tiny_workload()], neummu_config())
        assert sim.shared.mmu.share_policy.trivial
        sim.run()
        assert calls["_run_burst_kernel"] > 0
        assert set(calls) == {"_run_burst_kernel"}

    def test_nontrivial_policy_takes_contended_batched_path(
        self, monkeypatch
    ):
        """Quota enforcement does not force the per-transaction
        reference loop: the batched kernel covers it (and is locked to
        the reference bit for bit by the parity suite)."""
        calls = self.engine_paths(monkeypatch)
        sim = MultiTenantSimulator(
            [tiny_workload()], neummu_config(), qos="static_partition"
        )
        assert not sim.shared.mmu.share_policy.trivial
        sim.run()
        assert calls["_run_burst_kernel"] > 0
        assert set(calls) == {"_run_burst_kernel"}
