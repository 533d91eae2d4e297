"""Tests for the process-parallel experiment runner and its result cache.

The contract under test: ``ParallelRunner(jobs=N)`` produces results
*identical* to the serial path (simulations are deterministic and
process-independent), the on-disk cache round-trips results keyed by a
stable configuration hash, and an ``ExperimentRunner`` batch returns what
its requests return one at a time on a fresh serial runner.
"""

import pickle

import pytest

from repro.analysis.parallel import (
    ParallelRunner,
    ResultCache,
    RunRequest,
    request_key,
)
from repro.analysis.runner import ExperimentRunner, dense_pairs
from repro.core.mmu import MMUConfig, baseline_iommu_config, neummu_config
from repro.npu.config import NPUConfig
from repro.npu.simulator import Fidelity
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer
from repro.workloads.registry import CommonLayerFactory, DenseWorkloadFactory


class TinyFactory:
    """Module-level picklable factory for a fast two-layer workload."""

    def __call__(self):
        return Workload(
            name="tiny_fc",
            batch=1,
            layers=(DenseLayer("fc", 1, 2048, 1024),),
        )

    def __eq__(self, other):  # keyed equality for request dedup in tests
        return isinstance(other, TinyFactory)


def small_grid():
    factory = TinyFactory()
    configs = [
        baseline_iommu_config(),
        neummu_config(),
        MMUConfig(name="prmb8", n_walkers=8, prmb_slots=8),
    ]
    return [RunRequest("tiny", factory, config) for config in configs]


class TestFactoriesPicklable:
    def test_dense_factory_round_trips(self):
        factory = DenseWorkloadFactory("CNN-1", 4)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert clone().batch == 4

    def test_common_layer_factory_round_trips(self):
        factory = CommonLayerFactory("RNN-2", 32)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone().batch == 32

    def test_dense_pairs_factories_are_picklable(self):
        for label, factory in dense_pairs((1,)):
            pickle.loads(pickle.dumps(factory))

    def test_run_request_picklable(self):
        request = RunRequest("x", DenseWorkloadFactory("RNN-1", 1), neummu_config())
        clone = pickle.loads(pickle.dumps(request))
        assert clone.label == "x"
        assert clone.mmu_config == neummu_config()


class TestParallelMatchesSerial:
    def test_jobs4_identical_to_serial(self):
        requests = small_grid()
        serial = ParallelRunner(jobs=1).run_many(requests)
        parallel = ParallelRunner(jobs=4).run_many(requests)
        assert [r.total_cycles for r in serial] == [
            r.total_cycles for r in parallel
        ]
        assert [r.mmu_summary for r in serial] == [
            r.mmu_summary for r in parallel
        ]
        assert [r.mmu_name for r in serial] == [r.mmu_name for r in parallel]

    def test_experiment_runner_normalized_many_matches_serial_loop(self):
        requests = small_grid()
        batch_runner = ExperimentRunner(jobs=4)
        batched = batch_runner.normalized_many(requests)
        looped = [
            ExperimentRunner().normalized_many([req])[0] for req in requests
        ]
        assert [norm for norm, _ in batched] == [norm for norm, _ in looped]
        assert [r.mmu_summary for _, r in batched] == [
            r.mmu_summary for _, r in looped
        ]

    def test_oracle_cache_shared_across_batches(self):
        runner = ExperimentRunner()
        requests = small_grid()
        runner.normalized_many(requests)
        # One oracle for the shared workload, then each candidate once.
        assert runner._parallel.simulated == 1 + len(requests)
        before = runner._parallel.simulated
        runner.normalized_many(requests[:1])
        # The runner's memo answers both the oracle and the candidate.
        assert runner._parallel.simulated == before

    def test_same_label_different_workloads_do_not_collide(self):
        """Regression: dense CNN-1/b32 vs common-layer CNN-1/b32."""
        from repro.analysis.parallel import factory_token

        dense = DenseWorkloadFactory("CNN-1", 32)
        common = CommonLayerFactory("CNN-1", 32)
        assert factory_token(dense) != factory_token(common)
        base = dict(
            mmu_config=baseline_iommu_config(),
            npu_config=NPUConfig(),
            fidelity=Fidelity.FAST,
            warmup=4,
        )
        assert request_key("CNN-1/b32", factory=dense, **base) != request_key(
            "CNN-1/b32", factory=common, **base
        )
        # Dataclass factories token stably (cacheable across processes).
        assert factory_token(dense) == factory_token(DenseWorkloadFactory("CNN-1", 32))


class TestResultCache:
    def test_round_trip(self, tmp_path):
        requests = small_grid()
        cold = ParallelRunner(jobs=1, cache_dir=tmp_path)
        first = cold.run_many(requests)
        assert cold.simulated == len(requests)
        warm = ParallelRunner(jobs=1, cache_dir=tmp_path)
        second = warm.run_many(requests)
        assert warm.simulated == 0
        assert [r.total_cycles for r in first] == [r.total_cycles for r in second]
        assert [r.mmu_summary for r in first] == [r.mmu_summary for r in second]
        assert len(cold.cache) == len(requests)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "deadbeef"
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_key_stability_and_sensitivity(self, monkeypatch):
        base = dict(
            label="tiny",
            mmu_config=neummu_config(),
            npu_config=NPUConfig(),
            fidelity=Fidelity.FAST,
            warmup=4,
        )
        key = request_key(**base)
        assert key == request_key(**base)  # deterministic
        assert key != request_key(**{**base, "label": "other"})
        assert key != request_key(**{**base, "mmu_config": baseline_iommu_config()})
        assert key != request_key(**{**base, "fidelity": Fidelity.EXACT})
        assert key != request_key(**{**base, "warmup": 5})
        assert key != request_key(
            **{**base, "npu_config": NPUConfig(dma_transaction_bytes=128)}
        )
        # The environment never reaches a simulation: a config built
        # under a retired engine knob keys like one built without it.
        monkeypatch.delenv("NEUMMU_ENGINE", raising=False)
        unset = request_key(**{**base, "mmu_config": neummu_config()})
        monkeypatch.setenv("NEUMMU_ENGINE", "reference")
        assert request_key(**{**base, "mmu_config": neummu_config()}) == unset

    def test_rejects_negative_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=-1)


class TestMemoScope:
    """The result memo belongs to one runner, never to the module.

    A shared memo would let perfbench's passes time memo hits instead of
    simulations, and let the two engine modes of
    ``tests/test_engine_golden_diff.py`` read each other's results.
    """

    @pytest.fixture
    def simulations(self, monkeypatch):
        from repro.analysis import parallel

        calls = []
        run_single = parallel._run_single

        def counting(payload):
            calls.append(payload)
            return run_single(payload)

        monkeypatch.setattr(parallel, "_run_single", counting)
        return calls

    def test_each_parallel_runner_simulates(self, simulations):
        request = small_grid()[0]
        first, second = ParallelRunner(), ParallelRunner()
        first.run_many([request])
        second.run_many([request])
        assert first.counts() == (1, 0, 0)
        assert second.counts() == (1, 0, 0)
        assert len(simulations) == 2

    def test_each_experiment_runner_simulates(self, simulations):
        request = small_grid()[0]
        for runner in (ExperimentRunner(), ExperimentRunner()):
            runner.normalized_many([request])
            assert runner.counts() == (2, 0, 0)  # oracle + candidate
        assert len(simulations) == 4

    def test_repeats_are_served_from_the_memo(self, simulations):
        request = small_grid()[0]
        runner = ParallelRunner()
        first, again = runner.run_many([request, request])
        assert first is again
        assert runner.run_many([request])[0] is first
        assert runner.counts() == (1, 0, 2)
        assert len(simulations) == 1


class TestCLIFlags:
    def test_run_accepts_jobs_and_cache_dir(self, tmp_path):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["run", "fig8", "--jobs", "4", "--cache-dir", str(tmp_path)]
        )
        assert args.jobs == 4
        assert args.cache_dir == tmp_path

    def test_report_accepts_jobs(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["report", "--jobs", "2"])
        assert args.jobs == 2

    def test_runner_aware_experiments_exist(self):
        from repro.cli import EXPERIMENTS, _RUNNER_AWARE

        assert _RUNNER_AWARE <= set(EXPERIMENTS)
