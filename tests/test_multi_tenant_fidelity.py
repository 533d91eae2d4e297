"""FAST ≈ EXACT in multi-tenant mode, across the full QoS matrix.

FAST fidelity replays converged tile timings instead of simulating
every tile step; under a shared MMU it must still agree with EXACT
within the usual tolerance for every (share policy × arbitration)
combination, and the contention-epoch memoization must drop converged
timings the moment the tenant mix changes (``SharedMMU.remove_tenant``
mid-run).
"""

import pytest

from repro.core.mmu import baseline_iommu_config, neummu_config
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.npu.simulator import Fidelity, MultiTenantSimulator, _TenantRun
from repro.workloads.cnn import Workload
from repro.workloads.layers import ConvLayer, DenseLayer

#: FAST-vs-EXACT relative tolerance per arbitration policy.  The
#: interleaving arbiters keep contention stationary, so the converged
#: per-signature means replay faithfully (measured deviation 0–6%).
#: ``priority`` strictly serializes tenants: a later tenant's warmup
#: instances are dominated by the one-off catch-up against the shared
#: channel backlog the earlier tenants left behind, so the converged
#: mean misrepresents its steady state and FAST is only a coarse
#: estimate (~25% here) — EXACT is the reference for priority studies.
TOLERANCE = {
    "round_robin": 0.02,
    "weighted_quantum": 0.08,
    "priority": 0.35,
}


def tiny_workload(tag, batch=1):
    # Small enough for the EXACT sweeps to stay in the fast CI tier, but
    # wide enough that two tenants saturate the 8-walker IOMMU — and with
    # enough same-signature repetition (a stack of identical dense
    # blocks, RNN style) that FAST's timing memoization genuinely
    # engages past its warmup instead of degenerating to EXACT.
    blocks = tuple(
        DenseLayer(f"fc{i}", batch, 1024, 512) for i in range(8)
    )
    return Workload(
        name=f"tiny_{tag}_b{batch:02d}",
        batch=batch,
        layers=(
            ConvLayer("c1", batch, 14, 14, 8, 32, kernel=3, pad=1),
        )
        + blocks,
    )


def run_tenants(fidelity, qos, arbitration, config=None):
    sim = MultiTenantSimulator(
        [tiny_workload("a"), tiny_workload("b", batch=2)],
        config or baseline_iommu_config(),
        arbitration=arbitration,
        qos=qos,
        weights=[2.0, 1.0],
        fidelity=fidelity,
    )
    return sim.run()


class TestFastExactParity:
    """All 9 policy×arbitration combos on the 8-walker IOMMU."""

    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("arbitration", ARBITRATION_POLICIES)
    def test_per_tenant_cycles_within_tolerance(self, qos, arbitration):
        tolerance = TOLERANCE[arbitration]
        fast = run_tenants(Fidelity.FAST, qos, arbitration)
        exact = run_tenants(Fidelity.EXACT, qos, arbitration)
        for fast_tenant, exact_tenant in zip(fast.tenants, exact.tenants):
            assert fast_tenant.total_cycles == pytest.approx(
                exact_tenant.total_cycles, rel=tolerance
            ), (qos, arbitration, fast_tenant.asid)
        assert fast.makespan_cycles == pytest.approx(
            exact.makespan_cycles, rel=tolerance
        )

    def test_neummu_design_point_within_tolerance(self):
        fast = run_tenants(
            Fidelity.FAST, "weighted", "weighted_quantum", neummu_config()
        )
        exact = run_tenants(
            Fidelity.EXACT, "weighted", "weighted_quantum", neummu_config()
        )
        for fast_tenant, exact_tenant in zip(fast.tenants, exact.tenants):
            assert fast_tenant.total_cycles == pytest.approx(
                exact_tenant.total_cycles,
                rel=TOLERANCE["weighted_quantum"],
            )


def small_footprint_workload(tag, batch=1):
    # Few enough distinct pages that two tenants together never fill the
    # 2048-entry shared TLB: with zero capacity pressure, the departed
    # tenant's cached state cannot influence the survivor through victim
    # selection, so survivor timing must be *exactly* reproducible.
    return Workload(
        name=f"small_{tag}_b{batch:02d}",
        batch=batch,
        layers=tuple(DenseLayer(f"fc{i}", batch, 256, 256) for i in range(10)),
    )


class TestShootdownUnderContention:
    """Satellite: ``invalidate_asid``/``destroy_context`` fired mid-run
    leave the surviving tenants' results bit-identical.

    Tenant 1 stops being serviced halfway (with walks still in flight);
    three worlds then finish tenant 0: (a) tenant 1 simply idles, (b) its
    TLB footprint is swept with ``invalidate_asid``, (c) its context is
    destroyed outright (``SharedMMU.remove_tenant`` → ``destroy_context``,
    poisoning its in-flight walks).  EXACT fidelity, so every cycle of
    the survivor is compared, not a converged estimate.
    """

    PREFIX_STEPS = 5

    def _survivor_after(self, teardown, config_factory=neummu_config):
        sim = MultiTenantSimulator(
            [small_footprint_workload("a"), small_footprint_workload("b")],
            config_factory(),
            fidelity=Fidelity.EXACT,
        )
        runs = [_TenantRun(tenant) for tenant in sim.tenants]
        for _ in range(self.PREFIX_STEPS):
            for run in runs:
                if not run.done:
                    run.advance()
        assert not runs[0].done and not runs[1].done, "prefix ran to completion"
        if teardown == "invalidate_asid":
            assert sim.shared.mmu.tlb.invalidate_asid(1) > 0
        elif teardown == "destroy_context":
            sim.shared.remove_tenant(1)
            assert 1 not in sim.shared.mmu.contexts
        # Tenant 1 is never advanced again in any world.
        while not runs[0].done:
            runs[0].advance()
        sim.shared.mmu.drain()
        return runs[0]

    @pytest.mark.parametrize(
        "teardown", ["invalidate_asid", "destroy_context"]
    )
    @pytest.mark.parametrize(
        "config_factory", [baseline_iommu_config, neummu_config]
    )
    def test_survivor_bit_identical(self, teardown, config_factory):
        baseline = self._survivor_after(None, config_factory)
        swept = self._survivor_after(teardown, config_factory)
        assert swept.cycle == baseline.cycle  # exact, not approx
        assert len(swept.layer_results) == len(baseline.layer_results)
        for mine, theirs in zip(swept.layer_results, baseline.layer_results):
            assert mine.cycles == theirs.cycles
            assert mine.compute_cycles == theirs.compute_cycles


def warm_to_converged_step(run):
    """Advance ``run`` until its next step would replay a converged timing.

    The run stops mid-workload with a warmed FAST cache, so the next
    :meth:`_TenantRun.advance` would issue no translation requests unless
    an epoch bump drops the cache first.
    """
    schedules = run.sim.schedules
    converged = run.timing_cache.converged
    while True:
        assert not run.done, "workload too small to stop mid-run"
        assert run.step_counter < 64, "cache never converged"
        step = schedules[run.layer_idx].steps[run.step_idx]
        if step.fetches and step.signature in converged:
            return run
        run.advance()


def assert_step_rewarms(run, epoch):
    """The next step drops every cached timing, adopts ``epoch`` and
    simulates (issues translation requests) instead of replaying."""
    requests = run.advance()
    cache = run.timing_cache
    assert requests > 0
    assert not cache.converged
    # Only the step just simulated is left: one signature, one sample.
    assert [len(samples) for samples in cache.history.values()] == [1]
    assert cache.epoch == epoch


class TestContentionEpoch:
    """Converged timings are scoped to one contention epoch."""

    def make_sim(self, qos="full_share"):
        return MultiTenantSimulator(
            [tiny_workload("a"), tiny_workload("b")],
            neummu_config(),
            qos=qos,
        )

    def test_epoch_bumps_on_registry_changes(self):
        sim = self.make_sim()
        shared = sim.shared
        before = shared.contention_epoch
        shared.set_tenant_weight(0, 3.0)
        assert shared.contention_epoch == before + 1
        shared.remove_tenant(1)
        assert shared.contention_epoch == before + 2
        shared.bump_contention_epoch()
        assert shared.contention_epoch == before + 3

    def test_runs_adopt_current_epoch_at_creation(self):
        sim = self.make_sim()
        run = _TenantRun(sim.tenants[0])
        assert run.timing_cache.epoch == sim.shared.contention_epoch

    def test_mid_run_remove_tenant_invalidates_memoization(self):
        sim = self.make_sim()
        runs = [_TenantRun(tenant) for tenant in sim.tenants]
        run = warm_to_converged_step(runs[0])
        warmed = dict(run.timing_cache.history)

        # Tenant 1 departs mid-run: the contention regime changed, so
        # tenant 0's converged timings are stale.
        sim.shared.remove_tenant(1)
        assert run.timing_cache.epoch != sim.shared.contention_epoch

        # The next step, converged under the old regime, drops the cache
        # wholesale, adopts the new epoch and simulates from scratch.
        assert_step_rewarms(run, sim.shared.contention_epoch)
        assert len(run.timing_cache.history) <= len(warmed)
        while not run.done:
            run.advance()
        assert run.done

    def test_single_tenant_epoch_is_stable(self):
        """Without a shared MMU the cache never invalidates."""
        from repro.npu.simulator import NPUSimulator

        sim = NPUSimulator(tiny_workload("solo"), neummu_config())
        result = sim.run()
        assert result.total_cycles > 0


class TestResidencyEpoch:
    """Converged timings are scoped to one residency regime too.

    Demand paging adds a second regime axis next to contention: a tile
    timing measured while its pages were local is stale once an eviction
    (or refault) changes what is resident.  The paging tier bumps a
    per-tenant residency epoch on every resident-set change and the
    timing cache re-warms when it moves.
    """

    def make_sim(self):
        mb = 1024 * 1024
        return MultiTenantSimulator(
            [tiny_workload("a"), tiny_workload("b")],
            neummu_config(),
            memory_budgets=(256 * mb, 256 * mb),
        )

    def test_runs_adopt_current_residency_epoch_at_creation(self):
        sim = self.make_sim()
        run = _TenantRun(sim.tenants[0])
        assert run.timing_cache.residency_epoch == sim.paging.residency_epoch(0)

    def test_first_touch_faults_leave_the_epoch_alone(self):
        # Generous budgets: pages only ever join the resident set, so
        # the cold-start fault storm must not wipe the warming cache.
        sim = self.make_sim()
        run = _TenantRun(sim.tenants[0])
        before = sim.paging.residency_epoch(0)
        run.advance()
        assert sim.paging.tenants[0].faults > 0
        assert sim.paging.tenants[0].evictions == 0
        assert sim.paging.residency_epoch(0) == before

    def test_residency_change_invalidates_memoization(self):
        sim = self.make_sim()
        run = _TenantRun(sim.tenants[0])
        while run.step_counter < 6 and not run.done:
            run.advance()
        assert not run.done, "workload too small to stop mid-run"
        cache = run.timing_cache
        tier = sim.paging
        run._sync_timing_epochs()
        assert cache.residency_epoch == tier.residency_epoch(0)

        # Pin a converged timing under the current regime; a sync with
        # no residency movement must leave it alone.
        sig = ("warmed",)
        cache.history[sig] = [(100.0, 10.0)]
        cache.converged[sig] = (100.0, 10.0)
        run._sync_timing_epochs()
        assert cache.converged, "stable residency must not drop timings"

        # A budget eviction moves this tenant into a different residency
        # regime: every cached timing was measured against pages that
        # are no longer (all) local, so the cache drops wholesale...
        tier.tenants[0].bump_residency_epoch()
        run._sync_timing_epochs()
        assert not cache.history and not cache.converged
        assert cache.residency_epoch == tier.residency_epoch(0)

        # ...and the next step re-simulates, re-warming from scratch.
        run.advance()
        assert run.timing_cache.history
