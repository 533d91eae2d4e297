"""Golden diff: paper figures bit-identical across engine modes.

The engine's fast paths are an optimization, not a model change: every
figure must come out *bit-identical* (exact float equality, not approx)
whether the engine runs its fast paths (``columnar``) or the
per-transaction reference loop (``reference``).  Both modes read the same
DMA emitter and the same cached transaction streams, so these diffs
check the engine loops only; the absolute goldens (the report, Figures
7, 12a and 16, fairness, tenants) cover what both modes share.  Each
experiment here runs twice on trimmed grids, once per mode: the
reference run patches ``TranslationEngine.batched`` to False on the
class, which reaches every engine the figure builds in this process.
Each run has a fresh :class:`~repro.analysis.runner.ExperimentRunner`,
so each mode starts from a cold result memo and simulates every cell
itself, and the rendered figures are compared field for field.

The fast tier covers Figure 7's timeline (captured by the oracle
shortcut), demand paging, the VA trace and the shared-MMU figures; the
slow tier adds the dense sweeps, most importantly Figure 8 — the
saturated baseline-IOMMU regime where the FIFO path stalls, retires and
restarts a walk per transaction and the completion calendar retires
whole stretches.

:func:`golden_diff` returns the columnar figure, so the shared-MMU diffs
(contention, fairness, paged tenants) also check that figure's claims:
sharing never speeds a tenant up, the IOMMU suffers more contention than
NeuMMU, a reserved share never slows its tenant, and the migration
fabric's shares sum to one.  No figure is rendered a third time for them.
"""

from unittest import mock

import pytest

from repro.analysis import (
    ExperimentRunner,
    fairness,
    fig7_translation_bursts,
    fig8_baseline_iommu,
    fig11_ptw_sweep,
    fig13_tpreg_hit_rates,
    fig14_va_trace,
    fig15_numa,
    fig16_demand_paging,
    large_pages_dense,
    multi_tenant_contention,
    paging_tenants,
)
from repro.core.engine import TranslationEngine
from repro.sparse.demand_paging import DemandPagingConfig

B1 = (1,)
MB = 1024 * 1024


def run_in_mode(mode, experiment):
    """Run one experiment callable with every engine in ``mode``."""
    with mock.patch.object(TranslationEngine, "batched", mode == "columnar"):
        return experiment()


def assert_bit_identical(columnar, reference):
    assert columnar.figure_id == reference.figure_id
    assert columnar.columns == reference.columns
    assert [r.label for r in columnar.rows] == [
        r.label for r in reference.rows
    ], "row sets diverge between engine modes"
    for mine, theirs in zip(columnar.rows, reference.rows):
        # Exact equality on purpose: the modes must agree bit for bit.
        assert mine.values == theirs.values, mine.label
    assert columnar.notes == reference.notes
    assert columnar.render() == reference.render()


def golden_diff(experiment):
    """Assert both modes render the same figure; return the columnar one."""
    columnar = run_in_mode("columnar", experiment)
    assert_bit_identical(columnar, run_in_mode("reference", experiment))
    return columnar


def slowdowns_by_cell(figure, key_fields):
    """Per-tenant slowdowns grouped by the leading label fields."""
    cells = {}
    for row in figure.rows:
        key = tuple(row.label.split("/")[:key_fields])
        cells.setdefault(key, []).append(row.values["slowdown"])
    return cells


class TestFastTier:
    def test_fig7_translation_bursts(self):
        golden_diff(fig7_translation_bursts)

    def test_fig14_va_trace(self):
        golden_diff(lambda: fig14_va_trace(max_rows=10))

    def test_fig16_demand_paging(self):
        system = DemandPagingConfig(
            batches=10, warm_batches=4, table_rows=200_000,
            local_budget_bytes=48 * MB,
        )
        golden_diff(
            lambda: fig16_demand_paging(batches=(8,), system=system)
        )

    def test_multi_tenant_contention(self):
        fig = golden_diff(
            lambda: multi_tenant_contention(
                "RNN-2", batch=1, tenants=2,
                arbitration="weighted_quantum", qos="weighted",
                weights=(2.0, 1.0),
            )
        )
        cells = slowdowns_by_cell(fig, 1)
        # Sharing never makes a tenant faster than running alone.
        assert all(s >= 0.999 for slow in cells.values() for s in slow)
        # The 8-walker IOMMU's translation bottleneck amplifies
        # contention; NeuMMU's walker/PRMB headroom absorbs most of it.
        mean = {key[0]: sum(slow) / len(slow) for key, slow in cells.items()}
        assert mean["iommu"] > mean["neummu"]

    def test_fairness_contended(self):
        # The contended QoS figure: its static_partition / weighted cells
        # run the deepest quota regimes of the completion calendar, so
        # this diff pins the calendar's batched retires against the
        # reference engine's per-event discipline.
        fig = golden_diff(lambda: fairness(workload="RNN-2", batch=1))
        jain = {
            tuple(row.label.split("/")[:2]): row.values["jain_index"]
            for row in fig.rows
        }
        assert all(0.0 < index <= 1.0 for index in jain.values()), jain
        cells = slowdowns_by_cell(fig, 2)
        # Sharing never makes a tenant faster than running alone.
        assert all(s >= 0.999 for slow in cells.values() for s in slow)
        for config in ("iommu", "neummu"):
            full = cells[(config, "full_share")]
            for policy in ("static_partition", "weighted"):
                # The heavy tenant's (t0, weight 2) reservation is never
                # slower than the full-share free-for-all.
                assert cells[(config, policy)][0] <= full[0] * 1.01, policy


@pytest.mark.slow
class TestDenseSweeps:
    def test_fig8_baseline_iommu(self):
        # The FIFO path's saturated loop and the calendar's planned
        # stretches must reproduce Figure 8 exactly.
        golden_diff(
            lambda: fig8_baseline_iommu(
                batches=B1, runner=ExperimentRunner()
            )
        )

    def test_fig11_ptw_sweep(self):
        # PRMB(32) without a path cache: the merge streak retires whole
        # streaks of fresh pages (one walk plus merges each) on the wide
        # pools and the stretches between walker stalls at 16 walkers.
        golden_diff(
            lambda: fig11_ptw_sweep(
                ptws=(16, 64, 1024), batches=B1, runner=ExperimentRunner()
            )
        )

    def test_fig13_tpreg_hits(self):
        golden_diff(
            lambda: fig13_tpreg_hit_rates(
                batches=B1, runner=ExperimentRunner()
            )
        )

    def test_large_pages_dense(self):
        golden_diff(
            lambda: large_pages_dense(batches=B1, runner=ExperimentRunner())
        )

    def test_fig15_numa(self):
        golden_diff(lambda: fig15_numa(batches=(8,)))

    def test_paging_tenants_contended(self):
        # Heterogeneous tenants paging over one fabric, with demand
        # faults landing mid-stretch in the calendar's planned windows.
        fig = golden_diff(lambda: paging_tenants(mix="rnn,recsys", batch=1))
        shares = {}
        for row in fig.rows:
            # Every tenant pages (its tensors all start unmapped), and
            # the migration charge is visible.
            assert row.values["faults"] > 0, row.label
            assert row.values["migrated_mb"] > 0, row.label
            key = tuple(row.label.split("/")[:2])
            shares.setdefault(key, []).append(row.values["fabric_share"])
        for key, cell in shares.items():
            # The fabric's byte accounting is exact (the figure asserts
            # integer conservation), so the shares sum to 1.
            assert abs(sum(cell) - 1.0) < 1e-12, key
        # Sharing one fabric and MMU never beats the isolated paged run
        # (small FAST-fidelity noise allowed).
        cells = slowdowns_by_cell(fig, 2)
        assert all(s >= 0.99 for slow in cells.values() for s in slow)
