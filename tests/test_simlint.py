"""The simlint static-analysis pass (tools/simlint).

Fixture-snippet coverage: every rule fires on a minimal positive case and
stays quiet on the matching negative case; suppressions require written
justifications; the CLI honours the 0/1/2 exit-code contract; and the
real source tree stays lint-clean (the acceptance bar CI enforces).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.simlint import (  # noqa: E402  (needs the repo root on sys.path)
    RULES,
    RULES_BY_ID,
    lint_source,
    parse_suppressions,
)

CORE = "repro.core.fixture"       # module override: a core-scoped fixture
OUTSIDE = "somepkg.fixture"       # not under repro: package-scoped rules off


def findings_for(snippet, module=CORE, path="src/repro/core/fixture.py"):
    return lint_source(textwrap.dedent(snippet), path, RULES, module=module)


def rule_ids(snippet, module=CORE, path="src/repro/core/fixture.py"):
    return [f.rule for f in findings_for(snippet, module=module, path=path)]


# -- rule metadata -------------------------------------------------------- #

def test_registry_is_complete_and_documented():
    assert len(RULES) >= 8, "the catalog promises ~8 hazard-class rules"
    for rule in RULES:
        assert rule.id and rule.summary and rule.rationale
        assert rule.severity in ("warning", "error")
    assert len(RULES_BY_ID) == len(RULES)


# -- det-set-iter --------------------------------------------------------- #

def test_set_iter_fires_on_for_loop_over_set_local():
    ids = rule_ids(
        """
        def victims(completion):
            busy = set()
            busy.add(3)
            for walker in busy:
                completion.pop(walker)
        """
    )
    assert ids == ["det-set-iter"]


def test_set_iter_fires_on_reduction_genexp_over_setdefault_set():
    ids = rule_ids(
        """
        def retry(busy_by_asid, completion_of, asid):
            my_busy = busy_by_asid.setdefault(asid, set())
            return min(completion_of[w] for w in my_busy)
        """
    )
    assert ids == ["det-set-iter"]


def test_set_iter_fires_on_self_attr_and_dict_of_set_pull():
    ids = rule_ids(
        """
        from typing import Dict, Set

        class Pool:
            def __init__(self):
                self._outstanding = set()
                self._busy_by_asid: Dict[int, Set[int]] = {}

            def total(self, occ):
                return [occ[w] for w in self._outstanding]

            def per_asid(self, occ, asid):
                busy = self._busy_by_asid.get(asid)
                return [occ[w] for w in busy]
        """
    )
    assert ids == ["det-set-iter", "det-set-iter"]


def test_set_iter_quiet_on_sorted_and_setcomp_and_lists():
    ids = rule_ids(
        """
        def ok(completion_of):
            busy = set()
            for walker in sorted(busy):
                completion_of.pop(walker)
            survivors = {w for w in busy if w >= 0}
            walkers = [1, 2, 3]
            return [completion_of[w] for w in walkers], survivors
        """
    )
    assert ids == []


def test_set_iter_quiet_outside_scoped_packages():
    snippet = """
    def report():
        names = {"a", "b"}
        return [n for n in names]
    """
    assert rule_ids(snippet, module=OUTSIDE, path="src/somepkg/fixture.py") == []
    assert rule_ids(snippet) == ["det-set-iter"]


# -- det-banned-call ------------------------------------------------------ #

def test_banned_call_fires_on_wall_clock_and_global_random():
    ids = rule_ids(
        """
        import random
        import time

        def jitter():
            return random.random() + time.time()
        """
    )
    assert ids == ["det-banned-call", "det-banned-call"]


def test_banned_call_fires_on_bare_popitem_and_unseeded_rng():
    ids = rule_ids(
        """
        import random

        def evict(cache):
            rng = random.Random()
            return cache.popitem(), rng
        """
    )
    assert ids == ["det-banned-call", "det-banned-call"]


def test_banned_call_quiet_on_seeded_rng_and_ordered_popitem():
    ids = rule_ids(
        """
        import random

        def evict(cache, seed):
            rng = random.Random(seed)
            return cache.popitem(last=False), rng
        """
    )
    assert ids == []


def test_banned_call_fires_on_environment_reads():
    ids = rule_ids(
        """
        import os

        def knobs():
            a = os.environ.get("A", "x")
            b = os.environ["B"]
            return a, b, os.getenv("C")
        """
    )
    assert ids == ["det-banned-call"] * 3
    # Outside the simulation layers the environment is fair game.
    assert rule_ids(
        """
        import os

        def knob():
            return os.environ.get("A")
        """,
        module="repro.analysis.fixture",
        path="src/repro/analysis/fixture.py",
    ) == []


# -- det-hash-order ------------------------------------------------------- #

def test_hash_order_fires_on_id_and_hash():
    ids = rule_ids(
        """
        def keys(runs):
            return sorted(runs, key=lambda run: id(run)), hash(runs[0])
        """
    )
    assert ids == ["det-hash-order", "det-hash-order"]


def test_hash_order_quiet_on_stable_keys():
    ids = rule_ids(
        """
        def keys(runs):
            return sorted(runs, key=lambda run: run.asid)
        """
    )
    assert ids == []


# -- cyc-true-div --------------------------------------------------------- #

def test_true_div_fires_on_int_truncation_of_cycle_ratio():
    ids = rule_ids(
        """
        def horizon_count(h, cycle, interval):
            return int((h - cycle) / interval) - 1
        """
    )
    assert ids == ["cyc-true-div"]


def test_true_div_fires_on_cycle_named_assignment_and_augassign():
    ids = rule_ids(
        """
        def account(total_cycles, n):
            mean_cycles = total_cycles / n
            total_cycles /= 2
            return mean_cycles, total_cycles
        """
    )
    assert ids == ["cyc-true-div", "cyc-true-div"]


def test_true_div_quiet_on_floor_div_and_non_cycle_floats():
    ids = rule_ids(
        """
        def account(total_cycles, n, size, bw):
            mean_cycles = total_cycles // n
            ratio = size / bw
            return mean_cycles, ratio
        """
    )
    assert ids == []


# -- cyc-float-cast ------------------------------------------------------- #

def test_float_cast_fires_on_cycle_named_value():
    findings = findings_for(
        """
        def widen(stall_cycles):
            return float(stall_cycles)
        """
    )
    assert [f.rule for f in findings] == ["cyc-float-cast"]
    assert findings[0].severity == "warning"


def test_float_cast_quiet_on_inf_and_non_cycle_names():
    ids = rule_ids(
        """
        def widen(weight):
            return float("inf"), float(weight)
        """
    )
    assert ids == []


# -- epoch-raw-write ------------------------------------------------------ #

def test_epoch_raw_write_fires_outside_bump_methods():
    ids = rule_ids(
        """
        class Shared:
            def add_tenant(self, asid):
                self._contention_epoch += 1
        """
    )
    assert ids == ["epoch-raw-write"]


def test_epoch_raw_write_quiet_in_init_bump_and_invalidate():
    ids = rule_ids(
        """
        class Shared:
            def __init__(self):
                self._contention_epoch = 0

            def bump_contention_epoch(self):
                self._contention_epoch += 1

            def invalidate(self, epoch):
                self.epoch = epoch

            def add_tenant(self, asid):
                self.bump_contention_epoch()
        """
    )
    assert ids == []


def test_epoch_raw_write_applies_outside_repro_core_too():
    # Epoch discipline is repo-wide: fixture placed in an unscoped package.
    ids = rule_ids(
        """
        class Cache:
            def refresh(self):
                self.residency_epoch += 1
        """,
        module=OUTSIDE,
        path="src/somepkg/fixture.py",
    )
    assert ids == ["epoch-raw-write"]


# -- cyc-calendar-retire -------------------------------------------------- #

def test_calendar_retire_fires_on_out_of_band_bucket_write():
    ids = rule_ids(
        """
        class Runner:
            def fast_retire(self, k):
                self.cal_cursor += k
        """
    )
    assert ids == ["cyc-calendar-retire"]


def test_calendar_retire_fires_on_column_replacement_outside_plan():
    ids = rule_ids(
        """
        class Runner:
            def compact(self, ready):
                self.calendar.cal_ready = ready[1:]
        """
    )
    assert ids == ["cyc-calendar-retire"]


def test_calendar_retire_quiet_in_init_plan_and_drain():
    ids = rule_ids(
        """
        class CompletionCalendar:
            def __init__(self):
                self.cal_ready = ()
                self.cal_cursor = 0

            def plan_stretch(self, ready_col):
                self.cal_ready = ready_col
                self.cal_cursor = 0

            def drain_stretch(self, m):
                self.cal_cursor = m

            def plan_streak(self, ends):
                self.cal_ends = ends

            def drain_streak(self):
                self.cal_cursor = 0

            def reset(self):
                self.cal_ready = ()
        """
    )
    assert ids == []


# -- layer-import --------------------------------------------------------- #

def test_layer_import_fires_on_core_importing_npu_and_analysis():
    ids = rule_ids(
        """
        from repro.npu.simulator import NPUSimulator
        from ..analysis import figures
        """,
        module="repro.core.engine",
        path="src/repro/core/engine.py",
    )
    assert ids == ["layer-import", "layer-import"]


def test_layer_import_fires_on_memory_importing_npu():
    ids = rule_ids(
        "import repro.npu\n",
        module="repro.memory.tiering",
        path="src/repro/memory/tiering.py",
    )
    assert ids == ["layer-import"]


def test_layer_import_quiet_on_allowed_edges():
    ids = rule_ids(
        """
        from ..memory.address import AddressSpace
        from .tlb import TLB
        import math
        """,
        module="repro.core.engine",
        path="src/repro/core/engine.py",
    )
    assert ids == []
    # npu -> sparse and analysis -> anything are allowed edges.
    assert rule_ids(
        "from ..sparse.numa import nvlink_link\n",
        module="repro.npu.simulator",
        path="src/repro/npu/simulator.py",
    ) == []
    assert rule_ids(
        "from ..npu.simulator import NPUSimulator\n",
        module="repro.analysis.figures",
        path="src/repro/analysis/figures.py",
    ) == []


# -- fault-swallow -------------------------------------------------------- #

def test_fault_swallow_fires_on_bare_and_broad_except():
    ids = rule_ids(
        """
        def translate(engine):
            try:
                return engine.run()
            except:
                return None

        def translate2(engine):
            try:
                return engine.run()
            except Exception:
                return None
        """
    )
    assert ids == ["fault-swallow", "fault-swallow"]


def test_fault_swallow_quiet_on_specific_catch_or_reraise():
    ids = rule_ids(
        """
        def translate(engine, TranslationFault):
            try:
                return engine.run()
            except KeyError:
                return None

        def translate2(engine):
            try:
                return engine.run()
            except Exception:
                engine.teardown()
                raise
        """
    )
    assert ids == []


# -- suppressions --------------------------------------------------------- #

def test_trailing_suppression_with_justification_silences_finding():
    ids = rule_ids(
        """
        def keys(run):
            return id(run)  # simlint: disable=det-hash-order -- opaque key, never ordered
        """
    )
    assert ids == []


def test_own_line_suppression_applies_to_next_line():
    ids = rule_ids(
        """
        def keys(run):
            # simlint: disable=det-hash-order -- opaque key, never ordered
            return id(run)
        """
    )
    assert ids == []


def test_bare_suppression_still_suppresses_but_raises_meta_finding():
    ids = rule_ids(
        """
        def keys(run):
            return id(run)  # simlint: disable=det-hash-order
        """
    )
    assert ids == ["meta-bare-suppress"]


def test_suppression_for_other_rule_does_not_silence():
    ids = rule_ids(
        """
        def keys(run):
            return id(run)  # simlint: disable=cyc-true-div -- wrong rule
        """
    )
    assert sorted(ids) == ["det-hash-order"]


def test_suppression_naming_unknown_rule_is_flagged():
    ids = rule_ids(
        """
        def keys(run):
            return run.asid  # simlint: disable=not-a-rule -- typo'd id
        """
    )
    assert ids == ["meta-bare-suppress"]


def test_parse_suppressions_extracts_rules_and_justification():
    sups = parse_suppressions(
        "x = 1  # simlint: disable=det-set-iter,cyc-true-div -- proven safe\n"
    )
    assert len(sups) == 1
    assert sups[0].rules == ("det-set-iter", "cyc-true-div")
    assert sups[0].justification == "proven safe"
    assert sups[0].target == 1


# -- CLI exit codes ------------------------------------------------------- #

def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tools.simlint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_cli_exit_zero_on_clean_file(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(cycles):\n    return cycles // 2\n")
    proc = run_cli(str(clean))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_exit_one_on_findings(tmp_path):
    dirty = tmp_path / "repro" / "core"
    dirty.mkdir(parents=True)
    bad = dirty / "bad.py"
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    proc = run_cli(str(bad))
    assert proc.returncode == 1
    assert "det-banned-call" in proc.stdout
    # file:line:rule output format
    assert f"{bad}:4:" in proc.stdout


def test_cli_exit_two_on_syntax_error_and_missing_path(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert run_cli(str(broken)).returncode == 2
    assert run_cli(str(tmp_path / "nope.py")).returncode == 2


def test_cli_exit_two_on_unknown_rule_id(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert run_cli("--select", "no-such-rule", str(clean)).returncode == 2


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in RULES:
        assert rule.id in proc.stdout


def test_cli_severity_threshold_excludes_warnings(tmp_path):
    warn = tmp_path / "repro" / "core"
    warn.mkdir(parents=True)
    f = warn / "warny.py"
    f.write_text("def widen(stall_cycles):\n    return float(stall_cycles)\n")
    assert run_cli(str(f)).returncode == 1
    assert run_cli("--severity-threshold", "error", str(f)).returncode == 0


# -- the acceptance bar: src/ stays clean --------------------------------- #

def test_source_tree_is_lint_clean():
    proc = run_cli(str(REPO_ROOT / "src"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_source_suppression_has_justification():
    offenders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for sup in parse_suppressions(path.read_text(encoding="utf-8")):
            if not sup.justification:
                offenders.append(f"{path}:{sup.line}")
    assert offenders == []
