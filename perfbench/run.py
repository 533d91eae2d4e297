"""Repository benchmark: paper-figure workloads, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_report --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload qos_sweep --trace 1     # per-layer run
    python3 perfbench/run.py --pin                               # re-pin digests

One run is one fresh process with ``NEUMMU_JOBS=1`` and no result cache.
It repeats *passes* of the chosen workload (see ``workloads.py``) until
``--seconds`` would be exceeded.  Every pass empties the simulator's
construction caches, rebuilds its simulators (timed as set-up), then runs
the timed work.  ``--trace 0`` reports the end-to-end metrics: medians
over the passes.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer self times (spans around each layer's entry point,
recorded from this directory's ``spans.py``) and exact work counts, plus
the tracing overhead; the last traced pass is written as Chrome
trace-event JSON under ``perfbench/results/``.

Every pass's outputs are digested and checked against
``perfbench/expected.json`` and against the run's first pass; work counts
read from the result objects must repeat exactly.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (checked outputs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"

#: What a user's process imports before it can build a simulator.
IMPORTS = "repro.analysis.experiments, repro.sparse.demand_paging"
IMPORT_SAMPLES = 3
#: Set-up repetitions made before the timed passes (each pass adds one).
SETUP_SAMPLES = 3
#: Idle time around a timed window, so the speed sampler brackets it.
SETTLE_S = 0.1


def import_seconds() -> float:
    """Reference seconds a fresh interpreter spends importing the simulator."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed\n"
        "with speed.Sampler() as sampler:\n"
        f"    time.sleep({SETTLE_S}); wall, cpu = time.perf_counter(), time.process_time()\n"
        f"    import {IMPORTS}\n"
        "    cpu = time.process_time() - cpu; span = (wall, time.perf_counter())\n"
        f"    time.sleep({SETTLE_S})\n"
        "print(sampler.reference(cpu, *span))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload, inputs) -> float:
    """Reference seconds of one set-up from empty caches."""
    from workloads import reset_caches

    reset_caches()
    with workload.applied(inputs), speed.Sampler() as sampler:
        time.sleep(SETTLE_S)
        wall, cpu = time.perf_counter(), time.process_time()
        workload.setup(inputs)
        cpu = time.process_time() - cpu
        span = (wall, time.perf_counter())
        time.sleep(SETTLE_S)
    return sampler.reference(cpu, *span)


@dataclass
class Pass:
    traced: bool
    ok: bool = False
    #: Set-up, in reference seconds.
    setup_s: float = 0.0
    #: The timed segments: process CPU in reference seconds, raw CPU, wall.
    ref_cpu_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: Wall time of the whole pass, probes and checks included.
    elapsed_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    recorder: Any = None
    self_times: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Reference seconds per raw CPU second in this pass."""
        return self.ref_cpu_s / self.cpu_s if self.cpu_s else 1.0


class Checker:
    """Counts checked outputs and failures across a run's passes."""

    def __init__(self, pinned: Dict[str, str]):
        self.pinned = pinned
        self.first: Dict[str, str] = {}
        self.per_pass = 0
        self.attempted = 0
        self.failed = 0
        self.pinned_checked = 0
        self.problems: List[str] = []

    def check(self, outputs: List[tuple]) -> int:
        """Check one pass's outputs; returns how many failed."""
        failed = 0
        for name, value in outputs:
            first = self.first.setdefault(name, value)
            expected = self.pinned.get(name)
            if expected is not None:
                self.pinned_checked += 1
            if value != first or (expected is not None and value != expected):
                failed += 1
                if len(self.problems) < 10:
                    self.problems.append(
                        f"{name}: got {value}, expected {expected or first}"
                    )
        missing = max(0, self.per_pass - len(outputs))
        self.per_pass = max(self.per_pass, len(outputs))
        self.attempted += len(outputs) + missing
        self.failed += failed + missing
        return failed + missing

    def fail_pass(self, reason: str) -> None:
        lost = max(1, self.per_pass)
        self.attempted += lost
        self.failed += lost
        self.problems.append(reason)


def run_pass(workload, inputs, fetches, checker, recorder=None) -> Pass:
    """One pass: set-up, then each timed segment, all under a speed sampler."""
    from spans import ROOT, LayerWrappers
    from workloads import reset_caches

    result = Pass(traced=recorder is not None, recorder=recorder)
    started = time.perf_counter()
    reset_caches()
    gc.collect()
    wrappers = LayerWrappers(recorder) if recorder is not None else nullcontext()
    # (wall start, wall end, CPU seconds) of the set-up, then each segment.
    windows: List[tuple] = []
    try:
        with workload.applied(inputs), wrappers, speed.Sampler() as sampler:
            time.sleep(SETTLE_S)
            wall, cpu = time.perf_counter(), time.process_time()
            if recorder is not None:
                recorder.enter("bench.setup")
            try:
                state = workload.setup(inputs)
            finally:
                if recorder is not None:
                    recorder.exit()
            windows.append((wall, time.perf_counter(), time.process_time() - cpu))
            raw = []
            for segment in workload.segments(inputs, state):
                if recorder is not None:
                    recorder.enter(ROOT)
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    raw.append(segment())
                finally:
                    windows.append(
                        (wall, time.perf_counter(), time.process_time() - cpu)
                    )
                    if recorder is not None:
                        recorder.exit()
            time.sleep(SETTLE_S)
        result.setup_s = sampler.reference(windows[0][2], *windows[0][:2])
        for start, end, cpu in windows[1:]:
            result.cpu_s += cpu
            result.wall_s += end - start
            result.ref_cpu_s += sampler.reference(cpu, start, end)
        observation = workload.observe(inputs, state, raw, fetches)
    except Exception:  # a failing pass is counted, reported and survived
        traceback.print_exc(file=sys.stderr)
        checker.fail_pass("a pass raised; traceback on stderr")
        observation = None
    result.elapsed_s = time.perf_counter() - started
    if observation is not None:
        result.ok = checker.check(observation.outputs) == 0
        result.counts = observation.counts
    return result


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: List[Pass], plain: List[Pass]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced passes, counts from the first.

    Span times are scaled to reference seconds with their pass's probes.
    """
    from spans import ROOT

    def med(fn) -> float:
        return median([fn(p) for p in traced])

    def self_of(name: str):
        return lambda p: p.self_times.get(name, 0.0) * p.scale

    for p in traced:
        p.self_times = p.recorder.self_times()
        for span in p.recorder.spans:
            p.calls[span[0]] = p.calls.get(span[0], 0) + 1
    first = traced[0]
    counts = dict(first.counts)
    counts.update(first.recorder.counts)
    out: Dict[str, float] = {
        "setup.construct_s": med(
            lambda p: p.recorder.inclusive_times("setup.construct") * p.scale
        ),
        "setup.simulators": counts.get("setup.simulators", 0),
        "layout.extents": counts.get("layout.extents", 0),
        "dma.transactions.count": counts.get("dma.transactions.count", 0),
        "engine.bursts": counts.get("engine.bursts", 0),
        "parallel.cells": counts.get("parallel.cells", 0),
        "bench.other.self_s": med(self_of(ROOT)),
        "bench.wall_s": median([p.wall_s for p in plain]),
        "bench.cpu_s": median([p.cpu_s for p in plain]),
    }
    for span in (
        "layout.tile_extents", "dma.transactions", "dma.distinct_pages",
        "sim.single", "sim.multi", "engine.prmb", "engine.no_prmb",
        "engine.oracle", "mmu.shootdown", "mmu.drain", "tiering.handle_fault",
        "parallel.run_many", "figure",
    ):
        out[f"{span}.self_s"] = med(self_of(span))
    for span in (
        "layout.tile_extents", "dma.transactions", "dma.distinct_pages",
        "mmu.shootdown",
    ):
        out[f"{span}.calls"] = first.calls.get(span, 0)
    for key in (
        "sim.steps", "sim.simulated_steps", "sim.cycles", "engine.translations",
        "qos.tenant_stall_cycles", "qos.tenant_walks", "tiering.faults",
        "tiering.evictions", "tiering.fabric_bytes",
    ) + tuple(f"mmu.{k}" for k in (
        "requests", "tlb_hits", "merges", "walks", "redundant_walks",
        "walk_level_accesses", "stall_events", "stall_cycles", "faults",
    )):
        out[key] = counts.get(key, 0)
    steps = out["sim.steps"]
    out["sim.fast_reuse_ratio"] = (
        1.0 - out["sim.simulated_steps"] / steps if steps else 0.0
    )
    engine_s = med(lambda p: p.scale * sum(
        p.self_times.get(name, 0.0)
        for name in ("engine.prmb", "engine.no_prmb", "engine.oracle")
    ))
    translations = out["engine.translations"]
    out["engine.ns_per_translation"] = (
        engine_s / translations * 1e9 if translations else 0.0
    )
    plain_cpu = median([p.ref_cpu_s for p in plain])
    out["engine.translations_per_s"] = (
        translations / plain_cpu if plain_cpu else 0.0
    )
    out["trace.attributed_frac"] = med(
        lambda p: 1.0 - p.self_times.get(ROOT, 0.0) / p.recorder.inclusive_times(ROOT)
    )
    traced_cpu = median([p.ref_cpu_s for p in traced])
    out["trace.overhead_frac"] = traced_cpu / plain_cpu - 1.0 if plain_cpu else 0.0
    return out


def knobs() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("NEUMMU_")}


def run(args) -> Dict[str, Any]:
    import metrics
    from spans import SpanRecorder, write_chrome_trace
    from workloads import WORKLOADS, FetchCounter

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    pinned = (
        json.loads(EXPECTED.read_text()).get(workload.name, {})
        if EXPECTED.exists() else {}
    )
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"knobs: {json.dumps(knobs())}")
    print(f"inputs: {json.dumps(inputs)}")

    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    setups = [setup_seconds(workload, inputs) for _ in range(SETUP_SAMPLES)]

    checker = Checker(pinned)
    fetches = FetchCounter()
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        recorder = SpanRecorder() if traced else None
        done = run_pass(workload, inputs, fetches, checker, recorder)
        passes.append(done)
        setups.append(done.setup_s)
        print(f"pass {len(passes)} {'traced' if traced else 'plain '}: "
              f"ref_cpu {done.ref_cpu_s:.4f} s  cpu {done.cpu_s:.4f} s  "
              f"wall {done.wall_s:.4f} s  setup {done.setup_s:.4f} s  "
              f"ok {done.ok}", flush=True)
        need = 2 if args.trace else 1
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        estimate = median(
            [p.elapsed_s for p in passes if p.traced == next_traced]
            or [p.elapsed_s for p in passes]
        )
        # Start another pass only if it would end within half a pass of
        # the deadline.
        if len(passes) >= need and (
            time.perf_counter() - started + estimate / 2 > args.seconds
        ):
            break

    ok_passes = [p for p in passes if p.ok]
    drift = []
    for p in ok_passes[1:]:
        if p.counts != ok_passes[0].counts:
            drift.append("result counts differ between passes")
        if p.traced and p.recorder.counts != next(
            q for q in ok_passes if q.traced
        ).recorder.counts:
            drift.append("traced work counts differ between passes")
    checker.problems.extend(sorted(set(drift)))
    plain = [p for p in ok_passes if not p.traced]
    traced = [p for p in ok_passes if p.traced]

    values: Dict[str, float] = {}
    if args.trace:
        if traced and plain:
            values = layer_metrics(traced, plain)
        values["check.failed_frac"] = (
            checker.failed / checker.attempted if checker.attempted else 1.0
        )
        declared = metrics.PER_LAYER
        units = {name: spec[0] for name, spec in declared.items()}
    else:
        values = {
            "ref_cpu_s": median([p.ref_cpu_s for p in plain]),
            "tile_fetches_per_s": median(
                [p.counts["tile_fetches"] / p.ref_cpu_s for p in plain if p.ref_cpu_s]
            ),
            "setup_s": median(imports) + median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = metrics.END_TO_END
        units = {name: spec[0] for name, spec in declared.items()}
    missing = [name for name in declared if name not in values]
    if missing:
        checker.problems.append(f"metrics not measured: {', '.join(missing)}")
    correct = (
        checker.failed == 0 and not drift and not missing and bool(ok_passes)
    )

    samples = {"plain": len(plain), "traced": len(traced)}
    for name in declared:
        print(f"metric {name} = {values.get(name, 0.0)!r} {units[name]} "
              f"(median of {samples['traced' if args.trace else 'plain']} passes)")
    print(f"check: {'ok' if correct else 'FAILED'} - {checker.attempted} outputs "
          f"checked ({checker.pinned_checked} against pinned digests), "
          f"{checker.failed} failed")
    for problem in checker.problems:
        print(f"check problem: {problem}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if traced:
        events = write_chrome_trace(
            RESULTS / f"{stem}.trace.json", traced[-1].recorder,
            {"workload": workload.name, "seed": args.seed},
        )
        print(f"trace: {events} spans of the last traced pass in "
              f"{RESULTS / (stem + '.trace.json')}")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "knobs": knobs(), "inputs": inputs,
        "imports_s": imports, "setup_samples_s": setups,
        "passes": [
            {"traced": p.traced, "ok": p.ok, "setup_s": p.setup_s,
             "ref_cpu_s": p.ref_cpu_s, "cpu_s": p.cpu_s, "wall_s": p.wall_s}
            for p in passes
        ],
        "metrics": values, "problems": checker.problems,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": units[name]}
            for name in declared
        },
    }


def pin() -> None:
    """Run each workload's pinning inputs once and store the digests."""
    from workloads import WORKLOADS, FetchCounter

    pinned = {}
    for name, workload in WORKLOADS.items():
        digests: Dict[str, str] = {}
        for inputs in workload.pin_inputs():
            checker = Checker({})
            run_pass(workload, inputs, FetchCounter(), checker)
            if checker.failed:
                raise SystemExit(f"pinning {name} failed: {checker.problems}")
            for output, value in checker.first.items():
                if digests.setdefault(output, value) != value:
                    raise SystemExit(f"{name}: {output} differs across variants")
        pinned[name] = dict(sorted(digests.items()))
        print(f"pinned {len(digests)} outputs of {name}")
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dense_report")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the expected digests of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found at {SRC}; run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    os.environ["NEUMMU_JOBS"] = "1"
    # One core for the whole run: the speed sampler thread must measure the
    # core the simulator runs on (another core's speed does not track it).
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as error:
        print(f"perfbench: could not pin to one core ({error})", file=sys.stderr)
    for knob in ("NEUMMU_CACHE_DIR", "NEUMMU_PROFILE_DIR"):
        os.environ.pop(knob, None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.pin:
        pin()
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
