"""Markdown report generation: live paper-vs-measured records.

``build_report`` runs a configurable subset of the experiment suite and
emits a Markdown document in the EXPERIMENTS.md format — each paper claim
next to the value this reproduction measures.  The CLI exposes it as
``neummu report``.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .experiments import OWN_BATCH_AXIS
from .figures import FigureResult


@dataclass(frozen=True)
class Claim:
    """One paper claim and how to extract our measurement for it."""

    experiment: str
    paper_value: str
    #: Extracts the measured value (as display text) from the FigureResult.
    extract: Callable[[FigureResult], str]
    description: str


def _mean(column: str, fmt: str = "{:.3f}") -> Callable[[FigureResult], str]:
    def extract(fig: FigureResult) -> str:
        return fmt.format(fig.mean(column))

    return extract


#: The headline scoreboard: paper number vs our measurement.
DEFAULT_CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "fig8",
        "~0.05 avg normalized perf (95% loss)",
        _mean("normalized_perf"),
        "baseline IOMMU on dense nets, 4 KB pages",
    ),
    Claim(
        "fig11",
        "~0.99 avg at 128 PTWs",
        _mean("ptw128"),
        "PRMB(32) + 128 walkers",
    ),
    Claim(
        "fig13",
        "L4 99.5% / L3 99.5% / L2 63.1%",
        lambda fig: (
            f"L4 {fig.mean('l4'):.1%} / L3 {fig.mean('l3'):.1%} / "
            f"L2 {fig.mean('l2'):.1%}"
        ),
        "TPreg per-level tag hit rates",
    ),
    Claim(
        "headline",
        "0.06% overhead; 16.3x energy; 18.8x fewer walk refs",
        lambda fig: (
            f"{1 - fig.mean('neummu_perf'):.2%} overhead; "
            f"{fig.mean('energy_ratio'):.1f}x energy; "
            f"{fig.mean('walk_access_ratio'):.1f}x walk refs"
        ),
        "NeuMMU vs baseline IOMMU",
    ),
    Claim(
        "fig15",
        "31% / 71% avg latency reduction",
        lambda fig: "; ".join(
            note for note in fig.notes if "reduction" in note
        ),
        "NUMA(slow)/NUMA(fast) vs MMU-less copies",
    ),
)


def build_report(
    experiments: Dict[str, Callable[..., FigureResult]],
    claims: Sequence[Claim] = DEFAULT_CLAIMS,
    include_tables: bool = True,
    batches: Optional[Sequence[int]] = None,
) -> str:
    """Run the claimed experiments and render a Markdown report.

    ``experiments`` maps experiment names to callables (typically
    :data:`repro.cli.EXPERIMENTS`); only those named by ``claims`` run.
    ``batches`` reaches the callables whose signature takes it, except
    the experiments on their own batch axis (:data:`OWN_BATCH_AXIS`);
    errors raised by an experiment propagate.
    """
    lines: List[str] = [
        "# NeuMMU reproduction report",
        "",
        f"Generated by `neummu report` at {time.strftime('%Y-%m-%d %H:%M:%S')}.",
        "",
        "| Experiment | Paper | Measured | What it is |",
        "|---|---|---|---|",
    ]
    results: Dict[str, FigureResult] = {}
    for claim in claims:
        func = experiments[claim.experiment]
        if claim.experiment not in results:
            takes_batches = (
                "batches" in inspect.signature(func).parameters
                and claim.experiment not in OWN_BATCH_AXIS
            )
            if batches is not None and takes_batches:
                results[claim.experiment] = func(batches=tuple(batches))
            else:
                results[claim.experiment] = func()
        fig = results[claim.experiment]
        lines.append(
            f"| {claim.experiment} | {claim.paper_value} | "
            f"{claim.extract(fig)} | {claim.description} |"
        )
    if include_tables:
        lines.append("")
        for name, fig in results.items():
            lines.append("```")
            lines.append(fig.render())
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def write_report(
    path: Path,
    experiments: Dict[str, Callable[..., FigureResult]],
    **kwargs,
) -> Path:
    """Build and save a report; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(experiments, **kwargs) + "\n")
    return path
