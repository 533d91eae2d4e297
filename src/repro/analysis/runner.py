"""Shared experiment plumbing: workload pairs, oracle normalization, sweeps.

The figure experiments all follow the same skeleton — run the dense suite
under some MMU configuration and normalize against the oracle (one run
per workload × page size).

Execution routes through :class:`~repro.analysis.parallel.ParallelRunner`:
the default ``jobs=1`` keeps everything serial and in-process, while
``jobs=N`` shards grid points across worker processes and ``cache_dir``
adds persistent result caching.  The parallel runner's in-memory memo
answers each distinct request once, so an oracle shared by sweep points —
or by the figures of one command that share a runner — is simulated
once.  A figure reaches the simulator through one batch call,
:meth:`ExperimentRunner.run_many` or
:meth:`ExperimentRunner.normalized_many`, with its whole grid in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.mmu import oracle_config
from ..npu.config import NPUConfig
from ..npu.simulator import Fidelity, RunResult
from ..workloads.cnn import Workload
from ..workloads.registry import DENSE_BATCHES, DENSE_WORKLOADS, DenseWorkloadFactory
from .parallel import AnyRequest, ParallelRunner, RunRequest, factory_token

#: (display label, workload factory) pair.
WorkloadPair = Tuple[str, Callable[[], Workload]]


def dense_pairs(batches: Sequence[int] = DENSE_BATCHES) -> List[WorkloadPair]:
    """The paper's dense evaluation grid: 6 networks × batch sizes.

    Factories are picklable (:class:`DenseWorkloadFactory`), so the pairs
    feed both the serial and the process-parallel execution paths.
    """
    pairs: List[WorkloadPair] = []
    for name in DENSE_WORKLOADS:
        for batch in batches:
            label = f"{name}/b{batch:02d}"
            pairs.append((label, DenseWorkloadFactory(name, batch)))
    return pairs


@dataclass
class ExperimentRunner:
    """Runs workloads under MMU configs, normalized against the oracle.

    ``jobs``/``cache_dir`` configure the underlying
    :class:`~repro.analysis.parallel.ParallelRunner`, whose memo answers
    every repeated request (oracles included) for this runner's lifetime;
    the defaults keep execution serial, off disk and bit-identical to the
    historical runner.
    """

    npu_config: NPUConfig = field(default_factory=NPUConfig)
    compute_model: object = None
    fidelity: Fidelity = Fidelity.FAST
    warmup: int = 4
    jobs: int = 1
    cache_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        self._parallel = ParallelRunner(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            npu_config=self.npu_config,
            compute_model=self.compute_model,
            fidelity=self.fidelity,
            warmup=self.warmup,
        )

    def run_many(self, requests: Sequence[AnyRequest]) -> List:
        """Run a batch of grid points (parallel when ``jobs > 1``).

        Batches may mix single-tenant :class:`RunRequest` and
        multi-tenant :class:`TenantRunRequest` entries — a QoS figure's
        isolated baselines and shared cells shard across one pool.
        """
        return self._parallel.run_many(requests)

    def counts(self) -> Tuple[int, int, int]:
        """``(simulated, reused, served)`` since construction."""
        return self._parallel.counts()

    def normalized_many(
        self, requests: Sequence[RunRequest]
    ) -> List[Tuple[float, RunResult]]:
        """Normalized performance for a batch of grid points.

        One oracle request per distinct workload × page size × factory
        joins the front of the same batch, so with ``jobs > 1`` oracles
        and candidates simulate concurrently (and an oracle this runner
        already ran is a memo hit).
        """
        oracle_of = [
            (
                request.label,
                request.mmu_config.page_size,
                factory_token(request.factory),
            )
            for request in requests
        ]
        oracle_requests: Dict[Tuple[str, int, str], RunRequest] = {}
        for key, request in zip(oracle_of, requests):
            if key not in oracle_requests:
                oracle_requests[key] = RunRequest(
                    request.label, request.factory, oracle_config(key[1])
                )
        all_results = self._parallel.run_many(
            list(oracle_requests.values()) + list(requests)
        )
        oracles = dict(zip(oracle_requests, all_results))
        return [
            (oracles[key].total_cycles / result.total_cycles, result)
            for key, result in zip(oracle_of, all_results[len(oracles):])
        ]
