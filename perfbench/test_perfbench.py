"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import speed  # noqa: E402
from run import Checker  # noqa: E402
from spans import LAYER_ENTRY_POINTS, LayerWrappers, SpanRecorder  # noqa: E402


class ScriptedClock:
    """Returns the given readings in order."""

    def __init__(self, *readings: float):
        self.readings = list(readings)

    def __call__(self) -> float:
        return self.readings.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9].
    rec = SpanRecorder(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    rec.enter("outer")
    rec.enter("a")
    rec.enter("b")
    rec.exit()
    rec.exit()
    rec.enter("b")
    rec.exit()
    rec.exit()
    assert rec.self_times() == {"outer": 3.0, "a": 2.0, "b": 5.0}
    assert sum(rec.self_times().values()) == 10.0
    assert [span[3] for span in rec.spans] == [-1, 0, 1, 0]


def test_inclusive_time_counts_outermost_spans_once():
    # A constructor span nested in another of the same name is not added twice.
    rec = SpanRecorder(clock=ScriptedClock(0, 1, 3, 4, 6, 7))
    rec.enter("setup.construct")
    rec.enter("setup.construct")
    rec.exit()
    rec.exit()
    rec.enter("setup.construct")
    rec.exit()
    assert rec.inclusive_times("setup.construct") == 5.0


def test_chrome_events_keep_nesting_and_parents():
    rec = SpanRecorder(clock=ScriptedClock(0, 0.5, 1.5, 2))
    rec.enter("outer")
    rec.enter("inner")
    rec.exit()
    rec.exit()
    events = rec.chrome_events(tid=3)
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert events[1]["ts"] == 0.5e6 and events[1]["dur"] == 1e6
    assert events[1]["args"]["parent"] == "outer" and events[0]["tid"] == 3


def test_sampler_rescales_to_the_reference_rate():
    sampler = speed.Sampler(iterations=2)
    # Four samples inside [10, 20], each 2 kernel iterations in 1 ms of CPU.
    rate = 2 / 0.001
    sampler.samples = [(10 + k, 10.5 + k, 0.001) for k in range(4)]
    seconds = sampler.reference(5.004, 10, 20)
    # The sampler's own 4 ms leave the window before rescaling.
    assert seconds == pytest.approx(5.0 * rate / speed.REFERENCE_RATE)
    # A window holding too few samples borrows the nearest ones.
    assert sampler.reference(1.0, 12.2, 12.3) == pytest.approx(
        rate / speed.REFERENCE_RATE
    )


def test_metric_names_follow_the_grammar():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    for unit, better, bound in metrics.END_TO_END.values():
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    assert metrics.END_TO_END["setup_s"][0] == "s"
    assert metrics.END_TO_END["setup_s"][2] == max(
        bound for _, _, bound in metrics.END_TO_END.values()
    )
    for unit, better, _ in metrics.PER_LAYER.values():
        assert better in ("lower", "higher") and unit


def test_name_grammar_rejects_bad_names():
    for bad in ("", ".hidden", "has space", "slash/name", "x" * 65, "ünïcode"):
        assert not metrics.NAME_RE.fullmatch(bad), bad


def test_benchmark_json_matches_the_declarations():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.PER_LAYER.items()
    }


def test_digest_mismatch_counts_as_a_failure():
    checker = Checker({"fig6/CNN-1/b01/max_pages": "aaaa"})
    assert checker.check([("fig6/CNN-1/b01/max_pages", "aaaa"), ("x", "1")]) == 0
    assert checker.check([("fig6/CNN-1/b01/max_pages", "bbbb"), ("x", "1")]) == 1
    # An unpinned output must repeat its first pass's digest.
    assert checker.check([("fig6/CNN-1/b01/max_pages", "aaaa"), ("x", "2")]) == 1
    assert (checker.attempted, checker.failed) == (6, 2)


def test_missing_outputs_and_raising_passes_count_as_failures():
    checker = Checker({})
    checker.check([("a", "1"), ("b", "2")])
    assert checker.check([("a", "1")]) == 1
    checker.fail_pass("raised")
    assert (checker.attempted, checker.failed) == (6, 3)


def _originals():
    import importlib

    found = []
    for module_name, owner_name, attr, _, _ in LAYER_ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def test_wrappers_restore_the_original_functions():
    before = _originals()
    with LayerWrappers(SpanRecorder()):
        for owner, attr, raw in before:
            current = vars(owner)[attr]
            assert current is not raw and current.__wrapped__ is raw
    for owner, attr, raw in before:
        assert vars(owner)[attr] is raw


def test_wrappers_restore_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with LayerWrappers(SpanRecorder()):
            raise RuntimeError("boom")
    assert _originals() == before


def test_traced_simulation_matches_untraced():
    from repro.core.mmu import neummu_config
    from repro.npu.simulator import NPUSimulator
    from repro.workloads.registry import dense_workload
    from workloads import Observation, reset_caches

    def observe() -> Observation:
        reset_caches()
        obs = Observation()
        obs.run("rnn2", NPUSimulator(dense_workload("RNN-2", 1), neummu_config()).run())
        return obs

    plain = observe()
    recorder = SpanRecorder()
    with LayerWrappers(recorder):
        traced = observe()
    assert traced.outputs == plain.outputs and traced.counts == plain.counts
    times = recorder.self_times()
    assert times["engine.prmb"] > 0 and "sim.single" in times
    assert recorder.counts["engine.bursts"] > 0
