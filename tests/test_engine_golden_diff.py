"""Golden diff: paper figures bit-identical across engine modes.

The engine's fast paths are an optimization, not a model change: every
figure must come out *bit-identical* (exact float equality, not approx)
whether the engine runs its fast paths (``columnar``) or the
per-transaction reference loop (``reference``).  Both modes read the same
DMA emitter and the same cached transaction streams, so these diffs
check the engine loops only; the absolute goldens (the report, Figures
12a and 16, fairness, tenants) cover what both modes share.  Each
experiment here runs twice on trimmed grids, once per mode: the
reference run patches ``TranslationEngine.batched`` to False on the
class, which reaches every engine the figure builds in this process.
Each run has a fresh :class:`~repro.analysis.runner.ExperimentRunner`,
so each mode starts from a cold result memo and simulates every cell
itself, and the rendered figures are compared field for field.

The fast tier covers one figure per engine regime (oracle timeline,
demand paging, VA trace); the slow tier adds the dense sweeps, most
importantly Figure 8 — the saturated baseline-IOMMU regime where the
fused FIFO runner stalls, retires and restarts a walk per transaction
and the completion calendar retires whole stretches.
"""

from unittest import mock

import pytest

from repro.analysis import (
    ExperimentRunner,
    fairness,
    fig7_translation_bursts,
    fig8_baseline_iommu,
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
    assert_bit_identical(
        run_in_mode("columnar", experiment),
        run_in_mode("reference", experiment),
    )


class TestFastTier:
    def test_fig7_bursts(self):
        golden_diff(
            lambda: fig7_translation_bursts(workloads=("RNN-1",), batch=1)
        )

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
        golden_diff(
            lambda: multi_tenant_contention(
                "RNN-2", batch=1, tenants=2,
                arbitration="weighted_quantum", qos="weighted",
                weights=(2.0, 1.0),
            )
        )

    def test_fairness_contended(self):
        # The contended QoS figure: its static_partition / weighted cells
        # run the deepest quota regimes of the completion calendar, so
        # this diff pins the calendar's batched retires against the
        # reference engine's per-event discipline.
        golden_diff(lambda: fairness(workload="RNN-2", batch=1))


@pytest.mark.slow
class TestDenseSweeps:
    def test_fig8_baseline_iommu(self):
        # The FIFO runner's saturated loop and the calendar's planned
        # stretches must reproduce the Figure 8 bench output exactly.
        golden_diff(
            lambda: fig8_baseline_iommu(
                batches=B1, runner=ExperimentRunner()
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
        golden_diff(lambda: paging_tenants(mix="rnn,recsys", batch=1))
