"""Command-line front end: ``neummu`` / ``python -m repro``.

Examples::

    neummu list                      # available experiments and workloads
    neummu run fig8                  # reproduce Figure 8
    neummu run fig8 --batches 1      # trimmed batch grid
    neummu run all --out results/    # the full evaluation
    neummu compare CNN-1 --batch 4   # oracle vs IOMMU vs NeuMMU, one net
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from . import analysis
from .analysis.figures import FigureResult
from .analysis.runner import ExperimentRunner
from .core.mmu import baseline_iommu_config, neummu_config, oracle_config
from .core.qos import ARBITRATION_POLICIES, SHARE_POLICIES, default_arbitration
from .npu.simulator import NPUSimulator
from .workloads.registry import DENSE_WORKLOADS, dense_workload

#: experiment name -> zero/one-arg callable returning a FigureResult.
EXPERIMENTS: Dict[str, Callable[..., FigureResult]] = {
    "table1": analysis.table1_config,
    "fig6": analysis.fig6_page_divergence,
    "fig7": analysis.fig7_translation_bursts,
    "fig8": analysis.fig8_baseline_iommu,
    "fig10": analysis.fig10_prmb_sweep,
    "fig11": analysis.fig11_ptw_sweep,
    "fig12a": analysis.fig12a_ptw_no_prmb,
    "fig12b": analysis.fig12b_energy_sweep,
    "fig13": analysis.fig13_tpreg_hit_rates,
    "fig14": analysis.fig14_va_trace,
    "fig15": analysis.fig15_numa,
    "fig16": analysis.fig16_demand_paging,
    "tpc_vs_uptc": analysis.tpc_vs_uptc,
    "headline": analysis.headline_claims,
    "large_pages": analysis.large_pages_dense,
    "tenants": analysis.multi_tenant_contention,
    "fairness": analysis.fairness,
    "paging_tenants": analysis.paging_tenants,
    "spatial": analysis.spatial_npu,
    "prefetch": analysis.prefetch_ablation,
    "mltlb": analysis.multilevel_tlb_ablation,
    "sens_tlb": analysis.sensitivity_tlb,
    "sens_batch": analysis.sensitivity_large_batch,
    "overhead": analysis.overhead_area,
}

def _accepting(keyword: str) -> frozenset:
    """Experiment names whose function accepts ``keyword``.

    Derived from the signatures so newly added experiments cannot drift
    out of sync with the CLI's capability lists.
    """
    return frozenset(
        name
        for name, func in EXPERIMENTS.items()
        if keyword in inspect.signature(func).parameters
    )


#: Experiments that accept a ``batches`` keyword.
_BATCHED = _accepting("batches")

#: Experiments that accept a ``runner`` keyword (and therefore honour
#: ``--jobs``/``--cache-dir`` and share the command's result memo).
#: ``spatial`` builds its own runner with a spatial-array compute model,
#: so it naturally stays absent.
_RUNNER_AWARE = _accepting("runner")

#: Experiments that accept a ``tenants`` keyword (the shared-MMU study).
_TENANTED = _accepting("tenants")

#: Experiments that accept the QoS keywords (shared-MMU studies).
_ARBITRATED = _accepting("arbitration")
_QOS_AWARE = _accepting("qos")
_WEIGHTED = _accepting("weights")

#: Experiments that accept a heterogeneous tenant ``mix`` spec.
_MIXED = _accepting("mix")


def _validate_tenant_flags(args, errors: List[str]) -> None:
    """Collect actionable problems with the multi-tenant/QoS flags."""
    tenants = getattr(args, "tenants", None)
    weights = getattr(args, "weights", None)
    arbitration = getattr(args, "arbitration", None)
    qos = getattr(args, "qos", None)
    mix = getattr(args, "mix", None)
    mix_size: Optional[int] = None
    if tenants is not None and tenants <= 0:
        errors.append(
            f"--tenants must be a positive tenant count, got {tenants}"
        )
    if mix is not None:
        from .workloads.registry import mix_factories

        try:
            mix_size = len(mix_factories(mix))
        except ValueError as exc:
            errors.append(str(exc))
        if mix_size is not None and tenants is not None and tenants != mix_size:
            errors.append(
                f"--tenants {tenants} does not match the {mix_size}-tenant "
                f"mix {mix!r}; drop --tenants (the mix sets the count) or "
                f"make them agree"
            )
    if arbitration is not None and arbitration not in ARBITRATION_POLICIES:
        errors.append(
            f"unknown arbitration policy {arbitration!r}; "
            f"choose from {', '.join(ARBITRATION_POLICIES)}"
        )
    if qos is not None and qos not in SHARE_POLICIES:
        errors.append(
            f"unknown QoS share policy {qos!r}; "
            f"choose from {', '.join(SHARE_POLICIES)}"
        )
    if weights is not None:
        bad = [w for w in weights if w <= 0]
        if bad:
            errors.append(
                f"--weights must all be positive, got {bad[0]:g}"
            )
        expected = tenants if tenants is not None else mix_size
        if expected is None:
            errors.append(
                "--weights requires --tenants (or --mix) so each weight "
                "maps to a tenant"
            )
        elif expected > 0 and len(weights) != expected:
            errors.append(
                f"got {len(weights)} weights for {expected} tenants; "
                f"pass exactly one weight per tenant"
            )


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    """``--profile``: wrap the command in cProfile (perf-PR evidence)."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hot spots "
        "after the command finishes",
    )


def _add_qos_flags(parser: argparse.ArgumentParser) -> None:
    """The shared-MMU QoS flags, identical on ``run`` and ``compare``."""
    parser.add_argument(
        "--arbitration",
        default=None,
        help=f"shared-MMU arbitration policy ({', '.join(ARBITRATION_POLICIES)})",
    )
    parser.add_argument(
        "--qos",
        default=None,
        help=f"tenant share policy for shared structures "
        f"({', '.join(SHARE_POLICIES)})",
    )
    parser.add_argument(
        "--weights",
        type=float,
        nargs="+",
        default=None,
        help="per-tenant share weights (one positive float per tenant)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neummu",
        description="NeuMMU (ASPLOS 2020) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads")

    run = sub.add_parser("run", help="reproduce one experiment (or 'all')")
    run.add_argument("experiment", help="experiment name or 'all'")
    run.add_argument(
        "--batches",
        type=int,
        nargs="+",
        default=None,
        help="batch sizes for batched experiments (default: the paper's grid)",
    )
    run.add_argument(
        "--out", type=Path, default=None, help="directory to save rendered tables"
    )
    run.add_argument(
        "--chart", action="store_true", help="also render an ASCII bar chart"
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (0 = all CPUs)",
    )
    run.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk simulation-result cache",
    )
    run.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="tenant count for the multi-tenant contention experiments",
    )
    run.add_argument(
        "--mix",
        default=None,
        help="heterogeneous tenant mix for the shared-MMU experiments, "
        "comma-separated registry names or aliases "
        "(e.g. cnn,rnn,recsys)",
    )
    _add_qos_flags(run)
    _add_profile_flag(run)

    compare = sub.add_parser(
        "compare", help="oracle vs IOMMU vs NeuMMU on one workload"
    )
    compare.add_argument("workload", choices=sorted(DENSE_WORKLOADS))
    compare.add_argument("--batch", type=int, default=1)
    compare.add_argument(
        "--tenants",
        type=int,
        default=1,
        help="also run N copies of the workload on one shared MMU and "
        "report per-tenant contention statistics",
    )
    _add_qos_flags(compare)
    _add_profile_flag(compare)

    report = sub.add_parser(
        "report", help="run the headline experiments and emit a Markdown report"
    )
    report.add_argument(
        "--out", type=Path, default=Path("reproduction_report.md"),
        help="output Markdown path",
    )
    report.add_argument(
        "--batches", type=int, nargs="+", default=[1],
        help="batch grid for the underlying experiments",
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (0 = all CPUs)",
    )
    report.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk simulation-result cache",
    )
    _add_profile_flag(report)
    return parser


def _run_experiment(
    name: str,
    batches: Optional[Sequence[int]],
    out_dir: Optional[Path],
    chart: bool = False,
    runner=None,
    tenants: Optional[int] = None,
    arbitration: Optional[str] = None,
    qos: Optional[str] = None,
    weights: Optional[Sequence[float]] = None,
    mix: Optional[str] = None,
) -> FigureResult:
    func = EXPERIMENTS[name]
    kwargs = {}
    if batches is not None and name in _BATCHED:
        kwargs["batches"] = tuple(batches)
    if runner is not None and name in _RUNNER_AWARE:
        kwargs["runner"] = runner
    if tenants is not None and name in _TENANTED:
        kwargs["tenants"] = tenants
    if mix is not None and name in _MIXED:
        kwargs["mix"] = mix
    if arbitration is not None and name in _ARBITRATED:
        kwargs["arbitration"] = arbitration
    if qos is not None and name in _QOS_AWARE:
        kwargs["qos"] = qos
    if weights is not None and name in _WEIGHTED:
        kwargs["weights"] = tuple(weights)
    before = runner.counts() if "runner" in kwargs else None
    started = time.time()
    result = func(**kwargs)
    elapsed = time.time() - started
    tally = ""
    if before is not None:
        simulated, reused, served = (
            now - then for now, then in zip(runner.counts(), before)
        )
        tally = f": {simulated} simulated, {reused} reused, {served} served"
    text = result.render()
    if chart:
        from .analysis.ascii_chart import best_chart

        try:
            text += "\n\n" + best_chart(result)
        except ValueError:
            pass  # nothing numeric to chart
    print(text)
    print(f"[{name} completed in {elapsed:.1f}s{tally}]\n")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
    return result


def _cmd_list() -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"  {name:12s} {doc}")
    print("\ndense workloads:")
    for name, factory in DENSE_WORKLOADS.items():
        print(f"  {name:8s} {factory(1).name.rsplit('_', 1)[0]}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment == "all":
        names: List[str] = list(EXPERIMENTS)
    else:
        if args.experiment not in EXPERIMENTS:
            print(
                f"unknown experiment {args.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)} or 'all'",
                file=sys.stderr,
            )
            return 2
        names = [args.experiment]
    errors: List[str] = []
    _validate_tenant_flags(args, errors)
    if len(names) == 1:
        # A single named experiment must not silently drop flags it does
        # not accept ("run all" applies each flag where it fits).
        checks = (
            ("--batches", args.batches is not None, _BATCHED),
            ("--jobs", args.jobs != 1, _RUNNER_AWARE),
            ("--cache-dir", args.cache_dir is not None, _RUNNER_AWARE),
            ("--tenants", args.tenants is not None, _TENANTED),
            ("--mix", args.mix is not None, _MIXED),
            ("--arbitration", args.arbitration is not None, _ARBITRATED),
            ("--qos", args.qos is not None, _QOS_AWARE),
            ("--weights", args.weights is not None, _WEIGHTED),
        )
        ignored = [
            flag for flag, given, accepting in checks
            if given and names[0] not in accepting
        ]
        if ignored:
            errors.append(
                f"{', '.join(ignored)} have no effect on experiment "
                f"{names[0]!r}; drop them or pick an experiment that "
                f"accepts them"
            )
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 2
    # One runner for the whole command: its memo answers each distinct
    # simulation once, across every experiment that takes a runner.
    runner = ExperimentRunner(jobs=args.jobs, cache_dir=args.cache_dir)
    for name in names:
        own_axis = len(names) > 1 and name in analysis.OWN_BATCH_AXIS
        _run_experiment(
            name,
            None if own_axis else args.batches,
            args.out,
            chart=args.chart,
            runner=runner,
            tenants=args.tenants,
            arbitration=args.arbitration,
            qos=args.qos,
            weights=args.weights,
            mix=args.mix,
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    errors: List[str] = []
    _validate_tenant_flags(args, errors)
    if args.tenants <= 1 and any(
        flag is not None for flag in (args.qos, args.arbitration, args.weights)
    ):
        errors.append(
            "--qos/--arbitration/--weights only affect the shared-MMU run; "
            "pass --tenants N (N > 1) to enable it"
        )
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 2
    factory = lambda: dense_workload(args.workload, args.batch)
    oracle = NPUSimulator(factory(), oracle_config()).run()
    print(f"{args.workload} b{args.batch:02d}:")
    print(f"  oracle : {oracle.total_cycles:14,.0f} cycles (1.000)")
    isolated = {}
    for config in (baseline_iommu_config(), neummu_config()):
        result = NPUSimulator(factory(), config).run()
        isolated[config.name] = result
        norm = oracle.total_cycles / result.total_cycles
        summary = result.mmu_summary
        print(
            f"  {config.name:7s}: {result.total_cycles:14,.0f} cycles "
            f"({norm:.3f})  walks={summary.walks:,} merges={summary.merges:,} "
            f"tlb_hit={summary.tlb_hit_rate:.2f}"
        )
    if args.tenants > 1:
        from .npu.simulator import run_multi_tenant

        arbitration = args.arbitration or default_arbitration(args.weights)
        qos = args.qos or "full_share"
        if arbitration == "round_robin" and qos == "full_share":
            regime = "round-robin arbitration"
        else:
            regime = f"{arbitration} arbitration, {qos} QoS"
        print(f"\nshared MMU, {args.tenants} tenants ({regime}):")
        for config in (baseline_iommu_config(), neummu_config()):
            iso_cycles = isolated[config.name].total_cycles
            shared = run_multi_tenant(
                factory,
                config,
                args.tenants,
                arbitration=arbitration,
                qos=qos,
                weights=args.weights,
            )
            for tenant in shared.tenants:
                usage = tenant.usage
                slowdown = tenant.total_cycles / iso_cycles
                print(
                    f"  {config.name:7s}/t{tenant.asid}: "
                    f"{tenant.total_cycles:14,.0f} cycles "
                    f"({slowdown:.3f}x isolated)  walks={usage.walks:,} "
                    f"merges={usage.merges:,} stall={usage.stall_cycles:,.0f}"
                )
            print(
                f"  {config.name:7s} makespan {shared.makespan_cycles:,.0f} "
                f"cycles vs {iso_cycles:,.0f} isolated"
            )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_report

    # One runner shared by every figure, as in ``_cmd_run``.
    runner = ExperimentRunner(jobs=args.jobs, cache_dir=args.cache_dir)
    experiments = {
        name: (
            functools.partial(func, runner=runner)
            if name in _RUNNER_AWARE
            else func
        )
        for name, func in EXPERIMENTS.items()
    }
    path = write_report(args.out, experiments, batches=tuple(args.batches))
    print(f"report written to {path}")
    return 0


def _profiled(handler, args) -> int:
    """Run ``handler(args)`` under cProfile; print the top-20 hot spots.

    Gives perf PRs concrete evidence to cite (``neummu run fairness
    --profile``) instead of guessing where time goes.

    With ``--jobs`` ≠ 1 the simulations run in worker processes the
    parent's profiler cannot see, so the workers are told (via
    ``NEUMMU_PROFILE_DIR``) to dump one ``.pstats`` file per dispatched
    group (a walker-count sweep or a single grid point) and the dumps are
    folded into the printed table — the aggregate covers parent *and*
    children.  A pre-set ``NEUMMU_PROFILE_DIR`` is respected (dumps land
    there, left on disk for manual ``pstats`` inspection, and still join
    the table).
    """
    import cProfile
    import pstats
    import tempfile

    jobs = getattr(args, "jobs", 1)
    worker_dir = os.environ.get("NEUMMU_PROFILE_DIR")
    made_dir = False
    if jobs != 1 and worker_dir is None:
        worker_dir = tempfile.mkdtemp(prefix="neummu-profile-")
        os.environ["NEUMMU_PROFILE_DIR"] = worker_dir
        made_dir = True

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = handler(args)
    finally:
        profiler.disable()
        print("\n--- cProfile: top 20 by cumulative time ---")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        if made_dir:
            del os.environ["NEUMMU_PROFILE_DIR"]
        if worker_dir is not None:
            dumps = sorted(Path(worker_dir).glob("worker-*.pstats"))
            for dump in dumps:
                stats.add(str(dump))
            if dumps:
                print(
                    f"(aggregated {len(dumps)} worker profile dump(s) "
                    f"from {worker_dir})"
                )
        stats.sort_stats("cumulative").print_stats(20)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "report": _cmd_report,
    }
    handler = handlers.get(args.command)
    if handler is None:
        raise AssertionError(f"unhandled command {args.command!r}")
    if getattr(args, "profile", False):
        return _profiled(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
