"""Tests for the command-line front end."""

import re

import pytest

from repro.cli import EXPERIMENTS, _build_parser, main


class TestParser:
    def test_list_command(self):
        args = _build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_batches(self):
        args = _build_parser().parse_args(["run", "fig8", "--batches", "1", "4"])
        assert args.experiment == "fig8"
        assert args.batches == [1, 4]

    def test_compare_command(self):
        args = _build_parser().parse_args(["compare", "CNN-1", "--batch", "4"])
        assert args.workload == "CNN-1"
        assert args.batch == 4
        assert args.tenants == 1

    def test_tenants_flags(self):
        args = _build_parser().parse_args(["run", "tenants", "--tenants", "3"])
        assert args.tenants == 3
        args = _build_parser().parse_args(["compare", "CNN-1", "--tenants", "2"])
        assert args.tenants == 2

    def test_qos_flags(self):
        args = _build_parser().parse_args(
            ["run", "fairness", "--tenants", "2", "--qos", "weighted",
             "--arbitration", "weighted_quantum", "--weights", "3", "1"]
        )
        assert args.qos == "weighted"
        assert args.arbitration == "weighted_quantum"
        assert args.weights == [3.0, 1.0]
        args = _build_parser().parse_args(
            ["compare", "CNN-1", "--tenants", "2", "--qos", "static_partition"]
        )
        assert args.qos == "static_partition"

    def test_mix_flag(self):
        args = _build_parser().parse_args(
            ["run", "tenants", "--mix", "cnn,rnn,recsys"]
        )
        assert args.mix == "cnn,rnn,recsys"
        args = _build_parser().parse_args(["run", "paging_tenants"])
        assert args.mix is None

    def test_compare_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["compare", "CNN-9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv", [["run", "fig8", "--engine", "reference"], ["lint"]]
    )
    def test_no_engine_flag_or_lint_command(self, argv):
        # The engine loop is chosen by ``TranslationEngine.batched`` and
        # simlint runs as ``python -m tools.simlint``; the CLI has neither.
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestDispatch:
    def test_list_prints_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "CNN-1" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_rejects_unknown_mix_token(self, capsys):
        assert main(["run", "tenants", "--mix", "cnn,bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'bogus'" in err
        assert "RECSYS-1" in err  # the menu is actionable

    def test_run_rejects_mix_tenant_mismatch(self, capsys):
        assert main(["run", "tenants", "--mix", "rnn,recsys", "--tenants", "3"]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_run_rejects_mix_on_non_mixed_experiment(self, capsys):
        assert main(["run", "fig8", "--mix", "cnn"]) == 2
        assert "--mix" in capsys.readouterr().err

    def test_mix_sets_the_weight_count(self, capsys):
        assert main(
            ["run", "tenants", "--mix", "rnn,recsys", "--weights", "1", "2", "3"]
        ) == 2
        assert "got 3 weights for 2 tenants" in capsys.readouterr().err

    def test_run_static_experiment(self, capsys, tmp_path):
        assert main(["run", "table1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Baseline NPU configuration" in out
        assert (tmp_path / "table1.txt").exists()

    def test_completion_line_tallies_the_runner(self, capsys, monkeypatch):
        """``neummu run`` reports what each runner-aware experiment simulated."""
        from repro.analysis.figures import FigureResult
        from repro.analysis.parallel import RunRequest
        from repro.core.mmu import baseline_iommu_config
        from repro.workloads.cnn import Workload
        from repro.workloads.layers import DenseLayer

        def tiny():
            return Workload(
                name="tiny_fc", batch=1,
                layers=(DenseLayer("fc", 1, 2048, 1024),),
            )

        def fig8(batches=None, runner=None):
            request = RunRequest("tiny", tiny, baseline_iommu_config())
            runner.normalized_many([request])  # oracle + candidate
            runner.run_many([request])  # a memo hit
            fig = FigureResult("fig8", "demo", columns=["value"])
            fig.add("x", value=1.0)
            return fig

        monkeypatch.setitem(EXPERIMENTS, "fig8", fig8)
        assert main(["run", "fig8"]) == 0
        assert re.search(
            r"\[fig8 completed in \d+\.\ds: 2 simulated, 0 reused, 1 served\]",
            capsys.readouterr().out,
        )
        assert main(["run", "table1"]) == 0
        # An experiment that takes no runner keeps the plain line.
        assert re.search(
            r"\[table1 completed in \d+\.\ds\]", capsys.readouterr().out
        )

    def test_run_all_keeps_own_batch_axes(self, capsys, monkeypatch):
        """``run all --batches`` sets the dense figures' grid, not the
        large-batch study's or Figure 15's own batch axis; a named run of
        either still forwards its batches."""
        from repro.analysis.figures import FigureResult

        received = {}

        def fake(name):
            def experiment(**kwargs):
                received[name] = kwargs.get("batches")
                fig = FigureResult(name, "demo", columns=["value"])
                fig.add("x", value=1.0)
                return fig

            return experiment

        for name in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, name, fake(name))
        assert main(["run", "all", "--batches", "1"]) == 0
        assert received["fig11"] == (1,) and received["fig10"] == (1,)
        assert received["sens_batch"] is None, received
        assert received["fig15"] is None, received
        assert received["table1"] is None, received
        received.clear()
        assert main(["run", "sens_batch", "--batches", "32", "64"]) == 0
        assert received == {"sens_batch": (32, 64)}
        received.clear()
        assert main(["run", "fig15", "--batches", "8"]) == 0
        assert received == {"fig15": (8,)}
        capsys.readouterr()

    def test_run_overhead(self, capsys):
        assert main(["run", "overhead"]) == 0
        assert "PRMB" in capsys.readouterr().out

    def test_run_with_profile_prints_hot_spots(self, capsys):
        assert main(["run", "table1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cProfile: top 20 by cumulative time" in out
        assert "cumulative" in out
        assert "Baseline NPU configuration" in out

    def test_experiment_registry_covers_all_figures(self):
        for fig in ("fig6", "fig7", "fig8", "fig10", "fig11", "fig12a",
                    "fig12b", "fig13", "fig14", "fig15", "fig16", "tenants"):
            assert fig in EXPERIMENTS

    def test_unknown_arbitration_policy_errors(self, capsys):
        assert main(["run", "tenants", "--arbitration", "lottery"]) == 2
        err = capsys.readouterr().err
        assert "unknown arbitration policy 'lottery'" in err
        assert "round_robin" in err  # the message names the valid choices

    def test_unknown_qos_policy_errors(self, capsys):
        assert main(["run", "tenants", "--qos", "coin_flip"]) == 2
        err = capsys.readouterr().err
        assert "unknown QoS share policy 'coin_flip'" in err
        assert "static_partition" in err

    def test_non_positive_tenants_errors(self, capsys):
        assert main(["run", "tenants", "--tenants", "0"]) == 2
        assert "positive tenant count" in capsys.readouterr().err

    def test_weights_length_mismatch_errors(self, capsys):
        assert main(
            ["run", "tenants", "--tenants", "3", "--weights", "2", "1"]
        ) == 2
        assert "got 2 weights for 3 tenants" in capsys.readouterr().err

    def test_weights_without_tenants_errors(self, capsys):
        assert main(["run", "tenants", "--weights", "2", "1"]) == 2
        assert "--weights requires --tenants" in capsys.readouterr().err

    def test_non_positive_weights_error(self, capsys):
        assert main(
            ["compare", "CNN-1", "--tenants", "2", "--weights", "1", "-0.5"]
        ) == 2
        assert "must all be positive" in capsys.readouterr().err

    def test_run_rejects_flags_the_experiment_ignores(self, capsys):
        """A single named experiment must not silently drop QoS flags."""
        # fairness sweeps all share policies internally: --qos is a no-op.
        assert main(["run", "fairness", "--qos", "static_partition"]) == 2
        err = capsys.readouterr().err
        assert "--qos" in err and "'fairness'" in err
        assert main(["run", "fig8", "--tenants", "2"]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_run_rejects_grid_flags_the_experiment_ignores(
        self, capsys, tmp_path
    ):
        """``--batches``, ``--jobs`` and ``--cache-dir`` are not dropped."""
        # fig7 has no batch grid; spatial builds its own serial runner.
        assert main(["run", "fig7", "--batches", "8"]) == 2
        err = capsys.readouterr().err
        assert "--batches have no effect on experiment 'fig7'" in err
        cache = tmp_path / "cache"
        argv = ["run", "spatial", "--jobs", "2", "--cache-dir", str(cache)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--jobs, --cache-dir have no effect on experiment 'spatial'" in err
        assert not cache.exists()

    def test_compare_qos_flags_without_tenants_error(self, capsys):
        """QoS flags must not be silently ignored on single-tenant runs."""
        assert main(["compare", "CNN-1", "--qos", "static_partition"]) == 2
        assert "pass --tenants" in capsys.readouterr().err

    def test_compare_weights_length_checked_against_tenants(self, capsys):
        assert main(
            ["compare", "CNN-1", "--tenants", "2", "--weights", "1", "2", "3"]
        ) == 2
        assert "got 3 weights for 2 tenants" in capsys.readouterr().err

    @pytest.mark.slow
    def test_run_tenants_experiment(self, capsys):
        assert main(["run", "tenants", "--tenants", "2"]) == 0
        out = capsys.readouterr().out
        assert "Shared-MMU contention" in out
        assert "slowdown" in out
