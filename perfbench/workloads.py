"""The benchmark's workloads: seeded inputs, set-up, timed work, outputs.

Each workload is one slice of what users run to reproduce the paper,
sized so that one *pass* takes a few seconds on one core:

* ``dense_report`` — the single-tenant cells behind ``neummu report``'s
  claims on the b01 grid: Figure 8, a Figure 11 walker sweep with
  PRMB(32), and the headline NeuMMU-vs-oracle comparison.
* ``page_divergence`` — Figure 6 on the b01 grid: tiling, extent
  generation and distinct-page counting, no translation engine.
* ``qos_sweep`` — two RNN-2 tenants on the 8-walker IOMMU with 2:1
  weights across all 9 share-policy x arbitration combinations.
* ``demand_paging`` — one Figure 16 DLRM cell plus a two-tenant paged
  rnn+recsys run under memory budgets.

A pass first rebuilds every simulator from empty caches (set-up, timed on
its own), then runs the timed work as a few segments.  The seed derives
only the inputs: cell order and the grid subset, tenant weights drawn
from a small fixed set, and the virtual base of every address space (a
whole number of GiB below the default, which leaves every result
unchanged).  Every choice a seed makes costs about the same, so runs with
different seeds time the same amount of work.  Outputs are reduced to one
digest per figure value and per simulation, and exact work counts are
read from the result objects.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.analysis import experiments
from repro.analysis.parallel import ParallelRunner, TenantRunRequest
from repro.analysis.runner import ExperimentRunner
from repro.core.mmu import baseline_iommu_config, oracle_config
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.allocator import AddressSpace
from repro.npu import simulator as npu_simulator
from repro.npu.simulator import MultiTenantSimulator, NPUSimulator
from repro.sparse.demand_paging import DemandPagingConfig, DemandPagingSimulator
from repro.workloads import registry
from repro.workloads.embedding import dlrm
from repro.workloads.registry import DenseWorkloadFactory, dense_workload, mix_factories

MB = 1024 * 1024
GIB = 1024**3

#: Tenant weight pairs a seed draws from.  Both are 2:1; swapping which
#: tenant holds the larger share changes the results but not the cost.
WEIGHT_CHOICES: Tuple[Tuple[float, float], ...] = ((2.0, 1.0), (1.0, 2.0))


def digest(value: Any) -> str:
    """Short stable digest of a JSON-able value (floats kept exact)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Observation:
    """What one pass produced, reduced for checking and counting."""

    #: ``(output name, digest)`` per checked output, in pass order.
    outputs: List[Tuple[str, str]] = field(default_factory=list)
    #: Exact work counts read from the result objects.
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def figure(self, fig: Any) -> None:
        for row in fig.rows:
            for column, value in row.values.items():
                self.outputs.append(
                    (f"{fig.figure_id}/{row.label}/{column}", digest(value))
                )

    def summary(self, summary: Any) -> None:
        for key in (
            "requests", "tlb_hits", "merges", "walks", "redundant_walks",
            "walk_level_accesses", "stall_events", "stall_cycles", "faults",
        ):
            self.add(f"mmu.{key}", getattr(summary, key))
        self.add("engine.translations", summary.requests)

    def layers(self, layers: Sequence[Any]) -> None:
        for layer in layers:
            self.add("sim.steps", layer.steps)
            self.add("sim.simulated_steps", layer.simulated_steps)

    def run(self, name: str, result: Any) -> None:
        """One single-tenant :class:`~repro.npu.simulator.RunResult`."""
        self.summary(result.mmu_summary)
        self.layers(result.layers)
        self.add("sim.cycles", result.total_cycles)
        self.outputs.append((name, digest([
            result.total_cycles,
            result.mmu_summary.as_dict(),
            [asdict(layer) for layer in result.layers],
        ])))

    def multi(self, name: str, result: Any, extra: Any = None) -> None:
        """One :class:`~repro.npu.simulator.MultiTenantResult`."""
        self.summary(result.mmu_summary)
        self.add("sim.cycles", result.makespan_cycles)
        for tenant in result.tenants:
            self.layers(tenant.layers)
            self.add("qos.tenant_stall_cycles", tenant.usage.stall_cycles)
            self.add("qos.tenant_walks", tenant.usage.walks)
        self.outputs.append((name, digest([
            result.makespan_cycles,
            result.mmu_summary.as_dict(),
            [
                [t.asid, t.total_cycles, asdict(t.usage),
                 [asdict(layer) for layer in t.layers]]
                for t in result.tenants
            ],
            extra,
        ])))

    def tier(self, tier: Any) -> None:
        self.add("tiering.faults", tier.faults)
        self.add("tiering.evictions", tier.evictions)
        self.add("tiering.fabric_bytes", tier.migrated_bytes)


class FetchCounter:
    """Tile fetches in a workload's schedules, memoized per workload.

    Counted outside the timed region from a fresh oracle simulator; the
    count is a property of the workload and the NPU configuration only.
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple[str, int, int], int] = {}

    def __call__(self, workload: Any) -> int:
        key = (workload.name, workload.batch, len(workload.layers))
        count = self._memo.get(key)
        if count is None:
            sim = NPUSimulator(workload, oracle_config())
            count = sum(len(s.all_fetches()) for s in sim.schedules)
            self._memo[key] = count
        return count


def reset_caches() -> None:
    """Empty the simulator's process-wide construction caches."""
    npu_simulator._CONSTRUCTION_CACHE.clear()
    registry._DENSE_CACHE.clear()


@contextlib.contextmanager
def va_base(offset_gib: int) -> Iterator[None]:
    """Place every new address space ``offset_gib`` GiB below the default."""
    init = AddressSpace.__init__
    code = init.__code__
    params = code.co_varnames[1:code.co_argcount]
    defaults = init.__defaults__ or ()
    index = params.index("base_va") - (len(params) - len(defaults))
    patched = list(defaults)
    patched[index] = AddressSpace.DEFAULT_BASE - offset_gib * GIB
    init.__defaults__ = tuple(patched)
    try:
        yield
    finally:
        init.__defaults__ = defaults


@contextlib.contextmanager
def dense_grid(networks: Sequence[str]) -> Iterator[None]:
    """Restrict the figures' dense grid to ``networks``, in that order."""
    original = experiments.dense_pairs

    def pairs(batches: Sequence[int] = (1,)) -> List[Tuple[str, Any]]:
        return [
            (f"{name}/b{batch:02d}", DenseWorkloadFactory(name, batch))
            for name in networks
            for batch in batches
        ]

    experiments.dense_pairs = pairs
    try:
        yield
    finally:
        experiments.dense_pairs = original


class RecordingRunner(ParallelRunner):
    """A serial :class:`ParallelRunner` that keeps every (request, result)."""

    def __init__(self, log: List[Tuple[Any, Any]], **kwargs: Any) -> None:
        super().__init__(jobs=1, **kwargs)
        self.log = log

    def run_many(self, requests: Sequence[Any]) -> List:
        results = super().run_many(requests)
        self.log.extend(zip(requests, results))
        return results


def recording_experiment_runner(log: List[Tuple[Any, Any]]) -> ExperimentRunner:
    """An uncached serial experiment runner whose grid points land in ``log``.

    :class:`ExperimentRunner` takes no grid runner of the caller's, so its
    private one is swapped for a recording runner built the same way.
    """
    runner = ExperimentRunner(jobs=1)
    runner._parallel = RecordingRunner(
        log,
        npu_config=runner.npu_config,
        compute_model=runner.compute_model,
        fidelity=runner.fidelity,
        warmup=runner.warmup,
    )
    return runner


def _figure(name: str, **kwargs: Any) -> Tuple[Any, List[Tuple[Any, Any]]]:
    """Run one figure function on a recording runner; (figure, grid points)."""
    log: List[Tuple[Any, Any]] = []
    figure = getattr(experiments, name)(
        batches=(1,), runner=recording_experiment_runner(log), **kwargs
    )
    return figure, log


def _fig6(network: str) -> Any:
    with dense_grid([network]):
        return experiments.fig6_page_divergence(batches=(1,))


def _cells(cells: Sequence[Any]) -> List[Tuple[Any, Any]]:
    log: List[Tuple[Any, Any]] = []
    RecordingRunner(log).run_many(cells)
    return log


class Workload:
    """Base class: seeded inputs, set-up, timed segments and observation.

    A pass times each of :meth:`segments`' callables as its own window
    (and, when traced, under its own root span).
    """

    name = ""
    why = ""

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.name}/{seed}")
        return dict(self.draw(rng), offset_gib=rng.randrange(256))

    def draw(self, rng: random.Random) -> Dict[str, Any]:
        raise NotImplementedError

    def pin_inputs(self) -> List[Dict[str, Any]]:
        """Inputs whose outputs together cover every variant a seed can draw."""
        raise NotImplementedError

    @contextlib.contextmanager
    def applied(self, inputs: Dict[str, Any]) -> Iterator[None]:
        with va_base(inputs["offset_gib"]):
            yield

    def setup(self, inputs: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def segments(self, inputs: Dict[str, Any], state: Any) -> List[Callable[[], Any]]:
        raise NotImplementedError

    def observe(
        self, inputs: Dict[str, Any], state: Any, raw: List[Any],
        fetches: FetchCounter,
    ) -> Observation:
        raise NotImplementedError


class DenseReport(Workload):
    name = "dense_report"
    why = (
        "neummu report's single-tenant cells (Fig. 8, Fig. 11 PRMB(32) "
        "walker sweep, headline pair); engine-bound on both engine paths"
    )
    networks = ("CNN-2", "RNN-2")
    #: Walker counts per pass, drawn from Figure 11's sweep.
    n_ptws = 4

    def draw(self, rng: random.Random) -> Dict[str, Any]:
        networks = list(self.networks)
        rng.shuffle(networks)
        return {
            "networks": networks,
            "ptws": rng.sample(experiments.PTW_SWEEP, self.n_ptws),
        }

    def pin_inputs(self) -> List[Dict[str, Any]]:
        return [{
            "networks": list(self.networks),
            "ptws": list(experiments.PTW_SWEEP),
            "offset_gib": 0,
        }]

    @contextlib.contextmanager
    def applied(self, inputs: Dict[str, Any]) -> Iterator[None]:
        with va_base(inputs["offset_gib"]), dense_grid(inputs["networks"]):
            yield

    def setup(self, inputs: Dict[str, Any]) -> Any:
        return [
            NPUSimulator(dense_workload(name, 1), oracle_config())
            for name in inputs["networks"]
        ]

    def segments(self, inputs: Dict[str, Any], state: Any) -> List[Callable[[], Any]]:
        return [
            partial(_figure, "fig8_baseline_iommu"),
            partial(_figure, "fig11_ptw_sweep", ptws=tuple(inputs["ptws"])),
            partial(_figure, "headline_claims"),
        ]

    def observe(self, inputs, state, raw, fetches) -> Observation:
        obs = Observation()
        for fig, log in raw:
            obs.figure(fig)
            for request, result in log:
                obs.run(f"run/{request.label}/{request.mmu_config.name}", result)
                obs.add("tile_fetches", fetches(request.factory()))
        return obs


class PageDivergence(Workload):
    name = "page_divergence"
    why = (
        "Fig. 6 on the b01 grid: allocation, tiling, extent generation and "
        "distinct-page counting; never enters the translation engine"
    )
    networks = ("CNN-1", "CNN-2", "CNN-3", "RNN-2")

    def draw(self, rng: random.Random) -> Dict[str, Any]:
        networks = list(self.networks)
        rng.shuffle(networks)
        return {"networks": networks}

    def pin_inputs(self) -> List[Dict[str, Any]]:
        return [{"networks": list(self.networks), "offset_gib": 0}]

    def setup(self, inputs: Dict[str, Any]) -> Any:
        return [
            NPUSimulator(dense_workload(name, 1), oracle_config())
            for name in inputs["networks"]
        ]

    def segments(self, inputs: Dict[str, Any], state: Any) -> List[Callable[[], Any]]:
        return [partial(_fig6, network) for network in inputs["networks"]]

    def observe(self, inputs, state, raw, fetches) -> Observation:
        obs = Observation()
        for fig in raw:
            obs.figure(fig)
        for sim in state:
            obs.add("tile_fetches", fetches(sim.workload))
        return obs


class QosSweep(Workload):
    name = "qos_sweep"
    why = (
        "2 RNN-2 tenants, 8-walker IOMMU, 2:1 weights, all 9 share-policy x "
        "arbitration combos: the engine under quotas and arbitration"
    )

    def draw(self, rng: random.Random) -> Dict[str, Any]:
        combos = [[q, a] for q in SHARE_POLICIES for a in ARBITRATION_POLICIES]
        rng.shuffle(combos)
        return {"combos": combos, "weights": list(rng.choice(WEIGHT_CHOICES))}

    def pin_inputs(self) -> List[Dict[str, Any]]:
        combos = [[q, a] for q in SHARE_POLICIES for a in ARBITRATION_POLICIES]
        return [
            {"combos": combos, "weights": list(w), "offset_gib": 0}
            for w in WEIGHT_CHOICES
        ]

    def setup(self, inputs: Dict[str, Any]) -> Any:
        return [NPUSimulator(dense_workload("RNN-2", 1), baseline_iommu_config())]

    def segments(self, inputs: Dict[str, Any], state: Any) -> List[Callable[[], Any]]:
        factory = DenseWorkloadFactory("RNN-2", 1)
        weights = tuple(inputs["weights"])
        return [
            partial(_cells, [TenantRunRequest(
                label=f"qos_sweep/{qos}/{arbitration}",
                factories=(factory, factory),
                mmu_config=baseline_iommu_config(),
                arbitration=arbitration,
                qos=qos,
                weights=weights,
            )])
            for qos, arbitration in inputs["combos"]
        ]

    def observe(self, inputs, state, raw, fetches) -> Observation:
        obs = Observation()
        weights = "w" + ":".join(f"{w:g}" for w in inputs["weights"])
        for request, outcome in (entry for log in raw for entry in log):
            obs.multi(f"{request.label}/{weights}", outcome.result)
            for factory in request.factories:
                obs.add("tile_fetches", fetches(factory()))
        return obs


class DemandPaging(Workload):
    name = "demand_paging"
    why = (
        "one Fig. 16 DLRM cell plus a 2-tenant paged rnn+recsys run: faults, "
        "migrations, evictions and shootdowns while translation runs"
    )
    #: The cell's 4 MB local budget forces budget evictions (unmaps under
    #: live translation); the tenants' budgets hold their working sets.
    system = DemandPagingConfig(
        batches=24, warm_batches=8, table_rows=200_000,
        local_budget_bytes=4 * MB,
    )
    budgets = (32 * MB, 32 * MB)

    def draw(self, rng: random.Random) -> Dict[str, Any]:
        return {"weights": list(rng.choice(WEIGHT_CHOICES))}

    def pin_inputs(self) -> List[Dict[str, Any]]:
        return [{"weights": list(w), "offset_gib": 0} for w in WEIGHT_CHOICES]

    def setup(self, inputs: Dict[str, Any]) -> Any:
        cell = DemandPagingSimulator(
            dlrm(), baseline_iommu_config(page_size=PAGE_SIZE_4K), 8, self.system
        )
        tenants = MultiTenantSimulator(
            [factory() for factory in mix_factories("rnn,recsys")],
            baseline_iommu_config(),
            qos="weighted",
            arbitration="weighted_quantum",
            weights=tuple(inputs["weights"]),
            memory_budgets=self.budgets,
        )
        return cell, tenants

    def segments(self, inputs: Dict[str, Any], state: Any) -> List[Callable[[], Any]]:
        cell, tenants = state
        return [cell.run, tenants.run]

    def observe(self, inputs, state, raw, fetches) -> Observation:
        cell_sim, tenants_sim = state
        cell, shared = raw
        obs = Observation()
        obs.summary(cell.mmu_summary)
        obs.add("sim.cycles", cell.total_cycles_per_batch)
        obs.tier(cell_sim.tier)
        obs.outputs.append(("fig16/DLRM/b08/iommu/4K", digest(asdict(cell))))
        tier = tenants_sim.paging
        obs.tier(tier)
        weights = "w" + ":".join(f"{w:g}" for w in inputs["weights"])
        obs.multi(
            f"paged/rnn+recsys/{weights}", shared,
            extra=[tier.faults, tier.evictions, tier.migrated_bytes],
        )
        for tenant in tenants_sim.tenants:
            obs.add("tile_fetches", fetches(tenant.workload))
        return obs


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (DenseReport(), PageDivergence(), QosSweep(), DemandPaging())
}
