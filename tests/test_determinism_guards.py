"""Regression guards for the hazards simlint enforces statically.

Three families:

* adversarial set order — the ``busy_by_asid`` sets in the walker pool
  are seeded with identical membership via different insertion/deletion
  histories (scrambling the hash-table layout), and every quantity the
  engine derives from them must be bit-identical;
* hash-seed independence — a full two-tenant simulation repeated under
  different ``PYTHONHASHSEED`` values must produce byte-identical cycle
  accounting (the end-to-end form of the same guarantee);
* epoch-bump discipline — the registry mutators and budget evictions
  must route *through* the designated bump methods (the simlint
  ``epoch-raw-write`` fix), and FAST timing caches must drop converged
  timings when the epochs move (FAST-vs-EXACT regime scoping).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.mmu import MMU, MMUConfig, neummu_config
from repro.core.qos import make_share_policy
from repro.core.ptw import WalkerPool
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.allocator import AddressSpace
from repro.memory.tiering import LocalMemoryTier, MigrationFabric
from repro.npu.simulator import MultiTenantSimulator, _TenantRun
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer
from tests.test_multi_tenant_fidelity import (
    assert_step_rewarms,
    warm_to_converged_step,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PAGE = PAGE_SIZE_4K


def tiny_workload(tag, batch=1):
    return Workload(
        name=f"guard_{tag}_b{batch:02d}",
        batch=batch,
        layers=tuple(
            DenseLayer(f"fc{i}", batch, 512, 512) for i in range(6)
        ),
    )


# ------------------------------------------------------------------ #
# adversarial set order                                              #
# ------------------------------------------------------------------ #

def adversarial_set_histories(members):
    """Build sets with identical membership through different histories.

    Small-int hashes are the ints themselves, so membership alone often
    fixes iteration order; colliding histories (bulk-add then discard,
    reversed insertion, rebuild after clear) perturb the open-addressing
    layout and table size, which is exactly what production code must be
    insensitive to.
    """
    ascending = set()
    for m in sorted(members):
        ascending.add(m)

    descending = set()
    for m in sorted(members, reverse=True):
        descending.add(m)

    churned = set(range(max(members) + 33))   # oversize → bigger table
    for m in sorted(set(range(max(members) + 33)) - set(members)):
        churned.discard(m)                    # shrink back via deletion

    interleaved = set()
    for m in sorted(members):
        interleaved.add(m)
        interleaved.add(m + 8)                # 8-probes collide mod 8
    for m in sorted(members):
        interleaved.discard(m + 8)
    interleaved |= set(members)

    return [ascending, descending, churned, interleaved]


class TestAdversarialSetOrder:
    """WalkerPool quantities derived from busy-sets are order-blind."""

    MEMBERS = (1, 9, 17, 25)  # all collide mod 8: layout-sensitive

    def make_pool(self):
        policy = make_share_policy("static_partition")
        policy.register(0, 1.0)
        policy.register(1, 1.0)
        # Walker quota for ASID 0 is 8 // 2 = 4, so a 4-member busy set
        # takes the min-over-set branch in earliest_retry_for.
        return WalkerPool(8, prmb_slots=4, policy=policy)

    def test_earliest_retry_is_identical_across_histories(self):
        results = []
        for busy in adversarial_set_histories([1, 3, 5, 7]):
            pool = self.make_pool()
            for walker, completion in zip(
                sorted(busy), (40.0, 10.0, 30.0, 20.0)
            ):
                pool._completion_of[walker] = completion
            pool._busy_by_asid[0] = busy
            results.append(pool.earliest_retry_for(0))
        assert results[0] == 10.0
        assert all(r == results[0] for r in results), results

    def test_prmb_occupancy_is_identical_across_histories(self):
        results = []
        for busy in adversarial_set_histories([1, 3, 5, 7]):
            pool = self.make_pool()
            pool._policy = None  # occupancy path that scans busy walkers
            for walker, occupied in zip(sorted(busy), (3, 1, 4, 2)):
                pool._buffers[walker]._occupied = occupied
            pool._busy_by_asid[0] = busy
            results.append(pool.prmb_occupancy_of(0))
        assert results[0] == 10
        assert all(r == results[0] for r in results), results

    def test_histories_really_build_equal_sets(self):
        histories = adversarial_set_histories(list(self.MEMBERS))
        for built in histories[1:]:
            assert built == histories[0]


HASH_SEED_SCRIPT = textwrap.dedent(
    """
    from repro.core.mmu import baseline_iommu_config
    from repro.npu.simulator import MultiTenantSimulator
    from repro.workloads.cnn import Workload
    from repro.workloads.layers import DenseLayer

    def wl(tag, batch):
        return Workload(
            name=f"seed_{tag}",
            batch=batch,
            layers=tuple(
                DenseLayer(f"fc{i}", batch, 512, 512) for i in range(6)
            ),
        )

    # static_partition + two tenants on 8 walkers: per-tenant quotas are
    # exhausted, so retry scheduling takes the min-over-busy-set branch.
    result = MultiTenantSimulator(
        [wl("a", 1), wl("b", 2)],
        baseline_iommu_config(),
        qos="static_partition",
    ).run()
    for tenant in result.tenants:
        print(tenant.asid, repr(tenant.total_cycles),
              tenant.usage.walks, repr(tenant.usage.stall_cycles))
    print(repr(result.makespan_cycles))
    """
)


@pytest.mark.parametrize("seeds", [("1", "3407")])
def test_engine_is_hash_seed_independent(seeds):
    """Byte-identical accounting under different PYTHONHASHSEED values."""
    outputs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------------ #
# epoch-bump discipline                                              #
# ------------------------------------------------------------------ #

class CountingBump:
    """Wrap a bump method, counting delegated calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self):
        self.calls += 1
        self.inner()


class TestContentionEpochRouting:
    """Registry mutators go through bump_contention_epoch, not raw writes."""

    def make_sim(self):
        return MultiTenantSimulator(
            [tiny_workload("a"), tiny_workload("b")],
            neummu_config(),
            qos="weighted",
            weights=[1.0, 1.0],
        )

    def test_every_registry_mutator_routes_through_bump(self):
        sim = self.make_sim()
        shared = sim.shared
        counter = CountingBump(shared.bump_contention_epoch)
        shared.bump_contention_epoch = counter
        before = shared.contention_epoch

        shared.set_tenant_weight(1, 4.0)
        assert counter.calls == 1
        shared.remove_tenant(1)
        assert counter.calls == 2
        space = AddressSpace(page_size=PAGE)
        shared.add_tenant(7, space.page_table)
        assert counter.calls == 3
        assert shared.contention_epoch == before + 3

    def test_weight_change_invalidates_fast_memoization(self):
        """FAST-vs-EXACT: a re-weight is a regime change like a removal."""
        sim = self.make_sim()
        runs = [_TenantRun(tenant) for tenant in sim.tenants]
        run = warm_to_converged_step(runs[0])

        sim.shared.set_tenant_weight(1, 4.0)
        assert run.timing_cache.epoch != sim.shared.contention_epoch

        # The stale cache must not replay the next step: its converged
        # timings were measured under the old weight split, so they are
        # dropped wholesale and the step simulates.
        assert_step_rewarms(run, sim.shared.contention_epoch)


class FixedLink:
    def __init__(self, latency=100.0, bandwidth=64.0):
        self.latency = latency
        self.bandwidth = bandwidth

    def bulk_transfer_cycles(self, nbytes):
        return self.latency + nbytes / self.bandwidth


class TestResidencyEpochRouting:
    """Budget evictions go through TierTenant.bump_residency_epoch."""

    def make_tier(self, budget_pages=2):
        mmu = MMU(MMUConfig(name="x", n_walkers=8, prmb_slots=0), None)
        tier = LocalMemoryTier(
            MigrationFabric(FixedLink(), slots=2),
            page_size=PAGE,
            fault_overhead_cycles=10.0,
        )
        tier.bind(mmu)
        space = AddressSpace(page_size=PAGE)
        space.alloc_segment("seg", 8 * PAGE, populate=False)
        mmu.register_context(0, space.page_table)
        tier.register_tenant(0, space, budget_pages * PAGE)
        return tier, space

    def test_bump_method_is_the_only_epoch_mover(self):
        tier, space = self.make_tier(budget_pages=2)
        tenant = tier.tenants[0]
        counter = CountingBump(tenant.bump_residency_epoch)
        tenant.bump_residency_epoch = counter
        base_vpn = space.segments()[0].va >> 12

        # Two faults fit the budget: no eviction, no bump.
        tier.handle_fault(base_vpn, 0.0, asid=0)
        tier.handle_fault(base_vpn + 1, 100.0, asid=0)
        assert counter.calls == 0
        assert tenant.residency_epoch == 0

        # The third fault exceeds the budget: exactly one eviction,
        # routed through the bump method.
        tier.handle_fault(base_vpn + 2, 200.0, asid=0)
        assert tenant.evictions == 1
        assert counter.calls == 1
        assert tenant.residency_epoch == 1

    def test_real_eviction_invalidates_fast_memoization(self):
        """FAST-vs-EXACT: an actual budget eviction (not a simulated
        epoch write) drops the converged timings of the paged tenant."""
        mb = 1024 * 1024
        sim = MultiTenantSimulator(
            [tiny_workload("a"), tiny_workload("b")],
            neummu_config(),
            memory_budgets=(3 * mb, 256 * mb),
        )
        run = _TenantRun(sim.tenants[0])
        tier = sim.paging
        run._sync_timing_epochs()
        cache = run.timing_cache
        sig = ("warmed",)
        cache.history[sig] = [(100.0, 10.0)]
        cache.converged[sig] = (100.0, 10.0)

        before = tier.residency_epoch(0)
        while tier.tenants[0].evictions == 0 and not run.done:
            run.advance()
        assert tier.tenants[0].evictions > 0, "budget never forced eviction"
        assert tier.residency_epoch(0) > before

        run._sync_timing_epochs()
        assert cache.converged.get(sig) is None
        assert cache.residency_epoch == tier.residency_epoch(0)
