"""Certified walker-count reuse in :meth:`ParallelRunner.run_many`.

A walker-count sweep stops simulating at the first count whose run never
stalls for a walker; every larger count is answered by a copy relabelled
with its own config name.  These tests pin that such answers equal direct
per-request simulation field for field, at ``jobs=1`` and ``jobs=2``, and
that the runner simulates every count wherever the certificate does not
apply.
"""

from dataclasses import fields, replace

import pytest

from repro.analysis.experiments import PTW_SWEEP
from repro.analysis.parallel import ParallelRunner, RunRequest
from repro.core.mmu import MMUConfig, oracle_config
from repro.memory.tiering import TieringConfig
from repro.npu.simulator import NPUSimulator, RunResult
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer
from repro.workloads.registry import DenseWorkloadFactory

#: (network, PRMB slots) sweeps cheap enough for every change.
FAST_SWEEPS = (("CNN-2", 32), ("RNN-2", 32), ("RNN-2", 0))
ALL_SWEEPS = FAST_SWEEPS + (("CNN-2", 0),)


def sweep_requests(network, prmb_slots, ptws=PTW_SWEEP):
    """One b01 walker sweep, largest count first (the runner sorts)."""
    factory = DenseWorkloadFactory(network, 1)
    return [
        RunRequest(
            f"{network}/b01",
            factory,
            MMUConfig(
                name=f"ptw{n}", n_walkers=n, prmb_slots=prmb_slots,
                path_cache="none",
            ),
        )
        for n in sorted(ptws, reverse=True)
    ]


_DIRECT = {}


def direct(request):
    """``request`` simulated on its own, once per test session."""
    key = (request.label, request.mmu_config)
    if key not in _DIRECT:
        _DIRECT[key] = NPUSimulator(request.factory(), request.mmu_config).run()
    return _DIRECT[key]


def assert_same(result, expected):
    for field in fields(RunResult):
        assert getattr(result, field.name) == getattr(expected, field.name), (
            f"{expected.workload}/{expected.mmu_name}: {field.name} differs"
        )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "sweeps",
    [
        pytest.param(FAST_SWEEPS, id="fast"),
        pytest.param(ALL_SWEEPS, id="all", marks=pytest.mark.slow),
    ],
)
def test_sweeps_match_direct_simulation(sweeps, jobs):
    requests = [
        request for network, slots in sweeps
        for request in sweep_requests(network, slots)
    ]
    runner = ParallelRunner(jobs=jobs)
    results = runner.run_many(requests)
    expected = [direct(request) for request in requests]
    for result, want in zip(results, expected):
        assert_same(result, want)
    # Every count above a sweep's smallest stall-free count is reused.
    reusable = 0
    for network, slots in sweeps:
        counts = {
            request.mmu_config.n_walkers: direct(request).mmu_summary.stall_events
            for request in sweep_requests(network, slots)
        }
        first = min(n for n, stalls in counts.items() if stalls == 0)
        assert first < max(counts)  # the sweep exercises the certificate
        reusable += sum(1 for n in counts if n > first)
    assert runner.counts() == (len(requests) - reusable, reusable, 0)


def test_stalled_runs_are_not_reused():
    requests = sweep_requests("CNN-2", 32, ptws=(8, 16))
    runner = ParallelRunner()
    results = runner.run_many(requests)
    assert all(result.mmu_summary.stall_events for result in results)
    assert runner.counts() == (2, 0, 0)
    for request, result in zip(requests, results):
        assert_same(result, direct(request))


def tiny_factory():
    return Workload(
        name="tiny_fc", batch=1, layers=(DenseLayer("fc", 1, 2048, 1024),)
    )


#: Stall-free at 64 walkers on the tiny workload.
BASE = MMUConfig(name="base", n_walkers=64, prmb_slots=32, path_cache="none")


def tiny_sweep(config, **request_fields):
    return [
        RunRequest(
            "tiny", tiny_factory,
            replace(config, name=f"ptw{n}", n_walkers=n), **request_fields,
        )
        for n in (64, 128)
    ]


def test_eligible_tiny_sweep_is_reused():
    runner = ParallelRunner()
    small, large = runner.run_many(tiny_sweep(BASE))
    assert small.mmu_summary.stall_events == 0
    assert runner.counts() == (1, 1, 0)
    assert (small.mmu_name, large.mmu_name) == ("ptw64", "ptw128")
    assert large is not small


def test_reused_results_reach_the_disk_cache(tmp_path):
    ParallelRunner(cache_dir=tmp_path).run_many(tiny_sweep(BASE))
    warm = ParallelRunner(cache_dir=tmp_path)
    results = warm.run_many(tiny_sweep(BASE))
    assert warm.counts() == (0, 0, 2)
    assert [result.mmu_name for result in results] == ["ptw64", "ptw128"]


@pytest.mark.parametrize(
    "config,request_fields",
    [
        pytest.param(replace(BASE, qos="static_partition"), {}, id="static_partition"),
        pytest.param(replace(BASE, qos="weighted"), {}, id="weighted"),
        pytest.param(replace(BASE, prefetch_depth=2), {}, id="prefetch"),
        pytest.param(replace(BASE, path_cache="tpreg"), {}, id="tpreg"),
        pytest.param(replace(BASE, path_cache="tpc"), {}, id="tpc"),
        pytest.param(replace(BASE, path_cache="uptc"), {}, id="uptc"),
        pytest.param(replace(oracle_config(), n_walkers=64), {}, id="oracle"),
        pytest.param(BASE, {"tiering": TieringConfig()}, id="tiering"),
        pytest.param(BASE, {"memory_budget": 64 * 1024 * 1024}, id="memory_budget"),
    ],
)
def test_excluded_configs_simulate_every_count(config, request_fields):
    runner = ParallelRunner()
    small, _ = runner.run_many(tiny_sweep(config, **request_fields))
    # The smallest count never stalled: only the exclusion keeps the
    # larger count simulated.
    assert small.mmu_summary.stall_events == 0
    assert runner.counts() == (2, 0, 0)
