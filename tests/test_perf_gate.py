"""The weekly perf gate (``python -m benchmarks.perf_gate``) and its inputs."""

import json
import subprocess

import pytest

from benchmarks import perf_gate

MEDIANS = {"ref_cpu_s": {"median": 2.0}}


def result_line(ref_cpu_s, correct="true", failed=0):
    """One perfbench run's last output line, as the gate reads it."""
    return (
        f'{{"correct": {correct}, "attempted": 12, "failed": {failed}, '
        f'"metrics": {{"ref_cpu_s": {{"value": {ref_cpu_s}, "unit": "s"}}, '
        f'"peak_rss_mb": {{"value": 70.0, "unit": "MB"}}}}}}'
    )


def test_run_within_bound_passes():
    result = json.loads(result_line(2.0 * 1.24))
    assert perf_gate.gate_failures("qos_sweep", result, MEDIANS, 0.25) == []


def test_run_over_bound_fails_naming_workload_and_metric():
    result = json.loads(result_line(2.0 * 1.26))
    [failure] = perf_gate.gate_failures("qos_sweep", result, MEDIANS, 0.25)
    assert failure.startswith("qos_sweep:") and "ref_cpu_s" in failure


@pytest.mark.parametrize("correct, failed", [("false", 0), ("true", 3)])
def test_incorrect_run_fails(correct, failed):
    result = json.loads(result_line(1.0, correct, failed))
    [failure] = perf_gate.gate_failures("demand_paging", result, MEDIANS, 0.25)
    assert failure.startswith("demand_paging:")
    assert "perfbench/expected.json" in failure


def test_missing_baseline_median_fails():
    result = json.loads(result_line(1.0))
    [failure] = perf_gate.gate_failures("new_workload", result, {}, 0.25)
    assert failure.startswith("new_workload:")
    assert "perfbench/baseline.json" in failure


def test_every_workload_has_a_baseline_median_and_bound():
    """A workload added without a baseline fails here, not in the weekly job."""
    bench = json.loads(perf_gate.BENCHMARK.read_text())
    baseline = json.loads(perf_gate.BASELINE.read_text())["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    assert bounds.get(perf_gate.GATED, 0) > 0
    for workload in bench["workloads"]:
        medians = baseline.get(workload["name"], {})
        assert medians.get(perf_gate.GATED, {}).get("median", 0) > 0, workload


def test_main_exit_code(monkeypatch, capsys):
    bench = json.loads(perf_gate.BENCHMARK.read_text())
    seconds = {}

    def fake_run(args, **kwargs):
        workload = args[args.index("--workload") + 1]
        line = result_line(seconds.get(workload, 0.01))
        return subprocess.CompletedProcess(args, 0, stdout=f"pass 1\n{line}\n")

    monkeypatch.setattr(perf_gate.subprocess, "run", fake_run)
    assert perf_gate.main() == 0
    out = capsys.readouterr().out
    assert all(w["name"] in out for w in bench["workloads"])
    assert "perf gate: passed" in out

    seconds["dense_report"] = 1000.0
    assert perf_gate.main() == 1
    assert "FAIL dense_report: ref_cpu_s" in capsys.readouterr().out
