"""Tests for the experiment runner and the packages' public surfaces."""

import pytest

from repro.analysis.parallel import RunRequest
from repro.analysis.runner import ExperimentRunner, dense_pairs
from repro.core.mmu import neummu_config, oracle_config
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer


def tiny_factory():
    return Workload(
        name="tiny_fc", batch=1, layers=(DenseLayer("fc", 1, 2048, 1024),)
    )


class TestExperimentRunner:
    def test_oracle_is_cached(self):
        runner = ExperimentRunner()
        request = RunRequest("tiny", tiny_factory, oracle_config())
        first = runner.run_many([request])[0]
        second = runner.run_many([request])[0]
        assert first is second

    def test_oracle_cache_keyed_by_page_size(self):
        from repro.memory.address import PAGE_SIZE_2M

        runner = ExperimentRunner()
        small = runner.run_many(
            [RunRequest("tiny", tiny_factory, oracle_config())]
        )[0]
        large = runner.run_many(
            [RunRequest("tiny", tiny_factory, oracle_config(PAGE_SIZE_2M))]
        )[0]
        assert small is not large

    def test_normalized_in_unit_interval(self):
        runner = ExperimentRunner()
        [(norm, result)] = runner.normalized_many(
            [RunRequest("tiny", tiny_factory, neummu_config())]
        )
        assert 0 < norm <= 1.001
        assert result.mmu_summary.requests > 0

    def test_dense_pairs_labels(self):
        labels = [label for label, _ in dense_pairs((1, 8))]
        assert "CNN-1/b01" in labels
        assert "RNN-3/b08" in labels
        assert len(labels) == 12

    def test_dense_pairs_factories_bind_batch(self):
        pairs = dict(dense_pairs((4,)))
        wl = pairs["CNN-1/b04"]()
        assert wl.batch == 4


class TestPublicSurfaces:
    def test_core_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_memory_exports(self):
        import repro.memory as memory

        for name in memory.__all__:
            assert hasattr(memory, name), name

    def test_npu_exports(self):
        import repro.npu as npu

        for name in npu.__all__:
            assert hasattr(npu, name), name

    def test_workloads_exports(self):
        import repro.workloads as workloads

        for name in workloads.__all__:
            assert hasattr(workloads, name), name

    def test_sparse_exports(self):
        import repro.sparse as sparse

        for name in sparse.__all__:
            assert hasattr(sparse, name), name

    def test_energy_exports(self):
        import repro.energy as energy

        for name in energy.__all__:
            assert hasattr(energy, name), name

    def test_analysis_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_version(self):
        import repro

        assert repro.__version__


class TestPublicDocstrings:
    def test_every_public_module_documented(self):
        import importlib
        import pkgutil

        import repro

        undocumented = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name == "repro.__main__":
                continue  # importing it dispatches the CLI
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(info.name)
        assert not undocumented, f"missing module docstrings: {undocumented}"
