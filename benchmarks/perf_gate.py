"""Perf gate: the repository benchmark's workloads against its committed baseline.

Run from the repository root; it takes no options::

    python -m benchmarks.perf_gate

For each workload ``BENCHMARK.json`` lists, the gate runs that file's
``command`` (``python3 perfbench/run.py``) once for ``run_seconds`` and
prints every end-to-end metric beside its median in
``perfbench/baseline.json``.  It exits 1 when a run does not report
``correct: true`` with ``failed: 0`` (outputs checked against
``perfbench/expected.json``), when a workload has no baseline median, or
when a run's ``ref_cpu_s`` exceeds the baseline median by more than
``BENCHMARK.json``'s ``ref_cpu_s`` bound.  Reference seconds rescale CPU
time by a kernel timed on the same core (``perfbench/speed.py``), so a
slowdown that hits every workload alike fails too.  The gate is only as
tight as the baseline: a tree faster than the baseline's commit has that
much more room.  Each run writes its record under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
BASELINE = REPO_ROOT / "perfbench" / "baseline.json"

#: The one end-to-end metric the gate bounds; the others are printed.
GATED = "ref_cpu_s"


def gate_failures(
    workload: str, result: Dict[str, Any], medians: Dict[str, Any], bound: float
) -> List[str]:
    """Why one workload's run fails the gate; empty when it passes.

    ``result`` is the JSON object on the last line of a perfbench run,
    ``medians`` the workload's ``end_to_end`` entry in the baseline.
    """
    failures = []
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(
            f"{workload}: correct {result.get('correct')}, failed "
            f"{result.get('failed')} (outputs are checked against "
            f"perfbench/expected.json)"
        )
    median = medians.get(GATED, {}).get("median")
    value = result.get("metrics", {}).get(GATED, {}).get("value")
    if median is None:
        failures.append(f"{workload}: no {GATED} median in perfbench/baseline.json")
    elif value is not None and value > median * (1.0 + bound):
        failures.append(
            f"{workload}: {GATED} {value:.3f} s is {value / median:.2f}x the "
            f"baseline median {median:.3f} s (bound {1.0 + bound:.2f}x)"
        )
    return failures


def run_workload(command: List[str], workload: str, seconds: float) -> Dict[str, Any]:
    """Run one workload; returns the JSON object its last output line holds."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seconds", str(seconds)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
    )
    print(done.stdout, end="", flush=True)
    return json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    baseline = json.loads(BASELINE.read_text())["end_to_end"]
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == GATED)
    rows = []
    failures: List[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        result = run_workload(bench["command"], workload, bench["run_seconds"])
        medians = baseline.get(workload, {})
        for metric in bench["end_to_end"]:
            name = metric["name"]
            value = result.get("metrics", {}).get(name, {}).get("value")
            median = medians.get(name, {}).get("median")
            ratio = value / median if value is not None and median else None
            rows.append((workload, name, value, median, ratio, metric["unit"]))
        failures += gate_failures(workload, result, medians, bound)

    def cell(number: Any, spec: str) -> str:
        return "-" if number is None else format(number, spec)

    print(f"\n{'workload':16s} {'metric':19s} {'run':>10s} {'baseline':>10s} "
          f"{'ratio':>6s}  unit")
    for workload, name, value, median, ratio, unit in rows:
        print(f"{workload:16s} {name:19s} {cell(value, '10.4g')} "
              f"{cell(median, '10.4g')} {cell(ratio, '6.3f')}  {unit}")
    print(f"gate: {GATED} at most {1.0 + bound:.2f}x its baseline median; "
          f"every run correct with no failed output")
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.exit(main())
