"""Process-parallel experiment execution with on-disk result caching.

The paper's design-space sweeps (Figures 10-12 alone cover PRMB slots ×
walker counts × page sizes × six networks) are embarrassingly parallel:
every ``(workload, MMUConfig)`` grid point is an independent simulation.
:class:`ParallelRunner` shards such grids across a
:class:`~concurrent.futures.ProcessPoolExecutor` and memoizes finished
results on disk, keyed by a stable hash of everything that determines the
result — the workload label, the MMU and NPU configurations, the
fidelity mode, the warmup count, the compute model and (for demand-paged
runs) the tiering configuration and memory budgets.
Re-running a sweep with a warm cache costs milliseconds.

Each runner also answers every distinct request once: an in-memory memo
under the same key serves repeats within a batch and across calls, and a
walker-count sweep stops simulating once one count never stalls for a
walker (see :func:`_run_group`).  The memo lives on the runner, never at
module level, so a fresh runner always simulates.

Two request kinds share one dispatch path and one cache:

* :class:`RunRequest` — a single-tenant grid point (one workload, one
  :class:`~repro.core.mmu.MMUConfig`), optionally demand-paged through a
  private :class:`~repro.memory.tiering.LocalMemoryTier` built inside the
  worker from its ``tiering``/``memory_budget`` fields.
* :class:`TenantRunRequest` — a multi-tenant grid cell (N workload
  factories on one shared MMU under a QoS/arbitration combo, optionally
  paged over one shared migration fabric).  Workers return a
  :class:`TenantRunOutcome` carrying the
  :class:`~repro.npu.simulator.MultiTenantResult` plus an exact
  :class:`TenantPagingSummary` of the fabric accounting, since the tier
  object itself stays behind in the worker process.

Workload factories must be *picklable* — module-level functions and the
dataclass factories in :mod:`repro.workloads.registry`
(:class:`~repro.workloads.registry.DenseWorkloadFactory`,
:class:`~repro.workloads.registry.CommonLayerFactory`) qualify; closures
do not.

Determinism: a simulation's outcome does not depend on which process runs
it, so ``jobs=N`` produces results identical to the serial path —
``tests/test_parallel.py`` locks this in.

Profiling: when ``NEUMMU_PROFILE_DIR`` is set, every worker execution
(one dispatched group) runs under :mod:`cProfile` and dumps
``worker-<pid>-<seq>.pstats`` into that directory; ``neummu ... --profile
--jobs N`` sets it and aggregates the worker dumps into the printed
hot-spot table (child-process work used to vanish from the profile
entirely).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.mmu import MMUConfig
from ..memory.tiering import TieringConfig
from ..npu.config import NPUConfig
from ..npu.simulator import (
    Fidelity,
    MultiTenantResult,
    MultiTenantSimulator,
    NPUSimulator,
    RunResult,
)
from ..sparse.numa import nvlink_link

#: The cache key embeds it: bump it whenever simulation semantics or
#: the key's fields change, so no result cached under an older key is
#: ever served.
CACHE_SCHEMA = 7


@dataclass(frozen=True)
class RunRequest:
    """One grid point: a labelled workload under one MMU configuration.

    ``tiering``/``memory_budget`` make the run demand-paged: the worker
    builds a private :class:`~repro.memory.tiering.LocalMemoryTier`
    (fabric sized per ``tiering``) and first-touch faults migrate pages
    in — the isolated-baseline legs of the paging figures.
    """

    label: str
    factory: Callable[[], object]
    mmu_config: MMUConfig
    tiering: Optional[TieringConfig] = None
    memory_budget: Optional[int] = None


@dataclass(frozen=True)
class TenantRunRequest:
    """One multi-tenant grid cell: N workloads on one shared MMU.

    ``factories`` is one picklable zero-arg workload factory per tenant
    (ASID = position).  ``qos=None`` defers to ``mmu_config.qos`` exactly
    like :class:`~repro.npu.simulator.MultiTenantSimulator`;
    ``tiering``/``memory_budgets`` enable the shared demand-paged tier.
    """

    label: str
    factories: Tuple[Callable[[], object], ...]
    mmu_config: MMUConfig
    arbitration: str = "round_robin"
    qos: Optional[str] = None
    weights: Optional[Tuple[float, ...]] = None
    tiering: Optional[TieringConfig] = None
    memory_budgets: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class TenantPagingSummary:
    """Exact fabric/tier accounting extracted from a worker's run.

    The :class:`~repro.memory.tiering.LocalMemoryTier` lives and dies in
    the worker process, so the numbers the paging figures assert on
    (byte conservation, whole-page moves, per-tenant fabric shares)
    travel back in this picklable summary instead.
    """

    #: ``asid -> fault count``, one entry per tenant the tier tracked.
    faults: Tuple[Tuple[int, int], ...]
    #: ``asid -> exact bytes migrated``, same key set as ``faults``.
    migrated_bytes: Tuple[Tuple[int, int], ...]
    fabric_total_bytes: int
    fabric_total_migrations: int


@dataclass(frozen=True)
class TenantRunOutcome:
    """What a :class:`TenantRunRequest` worker returns."""

    result: MultiTenantResult
    paging: Optional[TenantPagingSummary]


#: Either request kind; :meth:`ParallelRunner.run_many` accepts mixed
#: batches so a figure's isolated baselines and shared cells share one
#: process pool.
AnyRequest = Union[RunRequest, TenantRunRequest]


def _canonical(obj) -> object:
    """JSON-ready canonical form of configuration-like values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _canonical(v) for k, v in sorted(asdict(obj).items())}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, Fidelity):
        return obj.value
    # Fall back to the type identity (e.g. a compute-model class).
    return type(obj).__qualname__


def factory_token(factory: object) -> str:
    """Stable identity of a workload factory for cache keying.

    Labels alone are not unique across experiments (the dense suite and
    the common-layer study can both emit ``CNN-1/b32``), so the factory's
    own identity joins every cache key.  Dataclass factories
    (:class:`~repro.workloads.registry.DenseWorkloadFactory` etc.) token
    stably by type + fields; arbitrary callables fall back to ``repr``,
    which is process-unique — correct, merely uncacheable across runs.
    """
    if factory is None:
        return "none"
    if is_dataclass(factory) and not isinstance(factory, type):
        return json.dumps(
            [type(factory).__qualname__, _canonical(factory)], sort_keys=True
        )
    return repr(factory)


def request_key(
    label: str,
    mmu_config: MMUConfig,
    npu_config: NPUConfig,
    fidelity: Fidelity,
    warmup: int,
    compute_model: object = None,
    factory: object = None,
    tiering: Optional[TieringConfig] = None,
    memory_budget: Optional[int] = None,
) -> str:
    """Stable hex digest identifying one simulation's full configuration."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "label": label,
            "factory": factory_token(factory),
            "mmu": _canonical(mmu_config),
            "npu": _canonical(npu_config),
            "fidelity": fidelity.value,
            "warmup": warmup,
            "compute_model": _canonical(compute_model),
            "tiering": _canonical(tiering),
            "memory_budget": memory_budget,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def tenant_request_key(
    request: TenantRunRequest,
    npu_config: NPUConfig,
    fidelity: Fidelity,
    warmup: int,
    compute_model: object = None,
) -> str:
    """Stable hex digest for one multi-tenant grid cell.

    ``qos`` is normalized to its effective value (``mmu_config.qos`` when
    the request leaves it ``None``) so the two spellings of the same run
    share a cache entry.
    """
    effective_qos = (
        request.qos if request.qos is not None else request.mmu_config.qos
    )
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "kind": "tenants",
            "label": request.label,
            "factories": [factory_token(f) for f in request.factories],
            "mmu": _canonical(request.mmu_config),
            "npu": _canonical(npu_config),
            "fidelity": fidelity.value,
            "warmup": warmup,
            "compute_model": _canonical(compute_model),
            "arbitration": request.arbitration,
            "qos": effective_qos,
            "weights": _canonical(request.weights),
            "tiering": _canonical(request.tiering),
            "memory_budgets": _canonical(request.memory_budgets),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Pickle-file store for finished worker results.

    Writes are atomic (temp file + rename) so concurrent workers and
    concurrent sweep processes can share one directory safely.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str):
        """Cached result for ``key``, or None (corrupt entries read as misses)."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def put(self, key: str, result: object) -> None:
        """Store ``result`` under ``key`` atomically."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


#: Per-process counter distinguishing a worker's successive profile dumps.
_PROFILE_SEQ = itertools.count()


def _profiled(fn: Callable, payload: Tuple):
    """Run ``fn(payload)``, honouring the worker-profiling contract.

    With ``NEUMMU_PROFILE_DIR`` set, the execution runs under
    :mod:`cProfile` and the stats land in that directory as
    ``worker-<pid>-<seq>.pstats`` — one dump per dispatched group, so the
    parent's ``--profile`` aggregation sees child-process work.
    """
    profile_dir = os.environ.get("NEUMMU_PROFILE_DIR")
    if not profile_dir:
        return fn(payload)
    import cProfile

    profile = cProfile.Profile()
    try:
        return profile.runcall(fn, payload)
    finally:
        directory = Path(profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        profile.dump_stats(
            directory / f"worker-{os.getpid()}-{next(_PROFILE_SEQ)}.pstats"
        )


def _run_single(payload: Tuple) -> RunResult:
    (
        factory,
        mmu_config,
        npu_config,
        compute_model,
        fidelity_value,
        warmup,
        tiering,
        memory_budget,
    ) = payload
    kwargs = {}
    if tiering is not None or memory_budget is not None:
        tier_cfg = tiering if tiering is not None else TieringConfig()
        kwargs["paging_tier"] = tier_cfg.build_tier(
            nvlink_link(npu_config.interconnect), mmu_config.page_size
        )
        kwargs["memory_budget"] = (
            memory_budget
            if memory_budget is not None
            else tier_cfg.default_budget_bytes
        )
    sim = NPUSimulator(
        factory(),
        mmu_config,
        npu_config=npu_config,
        compute_model=compute_model,
        fidelity=Fidelity(fidelity_value),
        warmup=warmup,
        **kwargs,
    )
    return sim.run()


def _run_group(payloads: Sequence[Tuple]) -> Tuple[List[RunResult], int]:
    """Run one dispatch group; returns its results and how many simulated.

    A group of several requests is one walker-count sweep in ascending
    order (see :meth:`ParallelRunner._sweep_key`).  A run with no stall
    event never found the walker pool's free stack empty, and that LIFO
    stack keeps a larger pool's extra walkers beneath the ones in use, so
    every larger count pops the same walkers at the same cycles.  Its
    result is therefore a copy relabelled with the larger count's config
    name.
    """
    results: List[RunResult] = []
    simulated = 0
    for payload in payloads:
        if results and results[-1].mmu_summary.stall_events == 0:
            reused = copy.deepcopy(results[-1])
            reused.mmu_name = payload[1].name  # payload[1]: the MMUConfig
            results.append(reused)
        else:
            results.append(_run_single(payload))
            simulated += 1
    return results, simulated


def _execute(payloads: Sequence[Tuple]) -> Tuple[List[RunResult], int]:
    """Worker entry point: run one dispatch group (must stay module-level)."""
    return _profiled(_run_group, payloads)


def _run_tenants(payload: Tuple) -> TenantRunOutcome:
    request, npu_config, compute_model, fidelity_value, warmup = payload
    sim = MultiTenantSimulator(
        [factory() for factory in request.factories],
        request.mmu_config,
        npu_config=npu_config,
        arbitration=request.arbitration,
        compute_model=compute_model,
        fidelity=Fidelity(fidelity_value),
        warmup=warmup,
        qos=request.qos,
        weights=request.weights,
        paging=request.tiering,
        memory_budgets=request.memory_budgets,
    )
    result = sim.run()
    paging = None
    if sim.paging is not None:
        tier = sim.paging
        tracked = sorted(tier.tenants)
        paging = TenantPagingSummary(
            faults=tuple((asid, tier.tenants[asid].faults) for asid in tracked),
            migrated_bytes=tuple(
                (asid, tier.migrated_bytes_of(asid)) for asid in tracked
            ),
            fabric_total_bytes=tier.fabric.total_bytes,
            fabric_total_migrations=tier.fabric.total_migrations,
        )
    return TenantRunOutcome(result=result, paging=paging)


def _execute_tenants(payload: Tuple) -> Tuple[List[TenantRunOutcome], int]:
    """Worker entry point for one multi-tenant cell (must stay module-level)."""
    return [_profiled(_run_tenants, payload)], 1


class ParallelRunner:
    """Shards simulation grid points across processes.

    ``jobs <= 1`` runs everything in-process (no executor overhead) but
    still consults the cache; results are identical either way.  With
    ``cache_dir`` unset, no on-disk caching happens.  Batches may mix
    :class:`RunRequest` and :class:`TenantRunRequest` freely.

    Every result is memoized in memory for the runner's lifetime and
    shared by later requests for the same key, so results must be
    treated as immutable.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        npu_config: Optional[NPUConfig] = None,
        compute_model: object = None,
        fidelity: Fidelity = Fidelity.FAST,
        warmup: int = 4,
    ):
        if jobs < 0:
            raise ValueError(f"jobs cannot be negative, got {jobs}")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.npu_config = npu_config or NPUConfig()
        self.compute_model = compute_model
        self.fidelity = fidelity
        self.warmup = warmup
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        #: ``key -> (request, result)`` for every answered request.  The
        #: request keeps its factory alive, so a ``repr``-keyed factory's
        #: address cannot be reused by another while its entry exists.
        self._memo: Dict[str, Tuple[AnyRequest, object]] = {}
        #: Simulations actually run since construction.
        self.simulated = 0
        #: Results answered by a stall-free run at a smaller walker count.
        self.reused = 0
        #: Results taken from the memo or the on-disk cache.
        self.served = 0

    # ------------------------------------------------------------------ #

    def key_of(self, request: AnyRequest) -> str:
        """Cache key of one request under this runner's configuration."""
        if isinstance(request, TenantRunRequest):
            return tenant_request_key(
                request,
                self.npu_config,
                self.fidelity,
                self.warmup,
                self.compute_model,
            )
        return request_key(
            request.label,
            request.mmu_config,
            self.npu_config,
            self.fidelity,
            self.warmup,
            self.compute_model,
            factory=request.factory,
            tiering=request.tiering,
            memory_budget=request.memory_budget,
        )

    def _sweep_key(self, request: AnyRequest) -> Optional[str]:
        """Key shared by the requests one walker-count sweep answers.

        ``None`` when the request is outside the certificate of
        :func:`_run_group`, which holds only where the walker count is
        read solely to find a free walker: full sharing (QoS quotas scale
        with the count), no prefetcher (it keeps walkers in reserve), no
        path cache, no oracle and no demand paging.
        """
        if not isinstance(request, RunRequest):
            return None
        config = request.mmu_config
        if (
            config.oracle
            or config.qos != "full_share"
            or config.prefetch_depth
            or config.path_cache != "none"
            or request.tiering is not None
            or request.memory_budget is not None
        ):
            return None
        return self.key_of(
            replace(request, mmu_config=replace(config, name="", n_walkers=1))
        )

    def _groups(
        self, requests: Sequence[AnyRequest], pending: Sequence[int]
    ) -> List[List[int]]:
        """Split pending request indices into dispatch groups.

        Requests that share a :meth:`_sweep_key` form one group in
        ascending walker order; every other request is a group of one.
        """
        groups: Dict[object, List[int]] = {}
        for idx in pending:
            sweep = self._sweep_key(requests[idx])
            groups.setdefault(idx if sweep is None else sweep, []).append(idx)
        return [
            sorted(group, key=lambda i: requests[i].mmu_config.n_walkers)
            for group in groups.values()
        ]

    def _payload(self, request: AnyRequest) -> Tuple:
        if isinstance(request, TenantRunRequest):
            return (
                request,
                self.npu_config,
                self.compute_model,
                self.fidelity.value,
                self.warmup,
            )
        return (
            request.factory,
            request.mmu_config,
            self.npu_config,
            self.compute_model,
            self.fidelity.value,
            self.warmup,
            request.tiering,
            request.memory_budget,
        )

    def _task(
        self, requests: Sequence[AnyRequest], group: Sequence[int]
    ) -> Tuple[Callable[..., Tuple[List, int]], Tuple]:
        """Worker entry point and payload for one dispatch group."""
        first = requests[group[0]]
        if isinstance(first, TenantRunRequest):
            return _execute_tenants, self._payload(first)
        return _execute, tuple(self._payload(requests[idx]) for idx in group)

    def run_many(self, requests: Sequence[AnyRequest]) -> List:
        """Run every request; returns results in request order.

        Each distinct request is answered once per runner: from the memo,
        from the disk cache, or by simulating its dispatch group.  Groups
        run inline for ``jobs=1`` (or a single pending group) and one per
        worker task otherwise.  :class:`RunRequest` entries yield
        :class:`~repro.npu.simulator.RunResult`,
        :class:`TenantRunRequest` entries :class:`TenantRunOutcome`.
        """
        keys = [self.key_of(request) for request in requests]
        pending: Dict[str, int] = {}
        for idx, key in enumerate(keys):
            if key in self._memo or key in pending:
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is None:
                pending[key] = idx
            else:
                self._memo[key] = (requests[idx], cached)

        def record(group: Sequence[int], output: Tuple[List, int]) -> None:
            results, simulated = output
            self.simulated += simulated
            self.reused += len(group) - simulated
            for idx, result in zip(group, results):
                self._memo[keys[idx]] = (requests[idx], result)
                if self.cache is not None:
                    self.cache.put(keys[idx], result)

        groups = self._groups(requests, list(pending.values()))
        tasks = [self._task(requests, group) for group in groups]
        if self.jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks))
            ) as pool:
                futures = [pool.submit(fn, payload) for fn, payload in tasks]
                for group, future in zip(groups, futures):
                    record(group, future.result())
        else:
            for group, (fn, payload) in zip(groups, tasks):
                record(group, fn(payload))
        self.served += len(requests) - len(pending)
        return [self._memo[key][1] for key in keys]

    def counts(self) -> Tuple[int, int, int]:
        """``(simulated, reused, served)`` since construction."""
        return self.simulated, self.reused, self.served
