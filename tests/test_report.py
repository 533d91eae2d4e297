"""Tests for the Markdown report generator."""

from pathlib import Path

import pytest

from repro.analysis.figures import FigureResult
from repro.analysis.report import Claim, build_report, write_report


def fake_experiments():
    def fig8(batches=None):
        fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
        fig.add("CNN-1/b01", normalized_perf=0.05)
        fig.add("RNN-1/b01", normalized_perf=0.03)
        return fig

    def headline(batches=None):
        fig = FigureResult(
            "headline",
            "demo",
            columns=["neummu_perf", "energy_ratio", "walk_access_ratio"],
        )
        fig.add("CNN-1/b01", neummu_perf=0.999, energy_ratio=16.0,
                walk_access_ratio=18.0)
        return fig

    return {"fig8": fig8, "headline": headline}


CLAIMS = (
    Claim(
        "fig8",
        "~0.05 avg",
        lambda fig: f"{fig.mean('normalized_perf'):.3f}",
        "baseline IOMMU",
    ),
    Claim(
        "headline",
        "0.06% overhead",
        lambda fig: f"{1 - fig.mean('neummu_perf'):.2%}",
        "NeuMMU",
    ),
)


class TestBuildReport:
    def test_contains_claim_rows(self):
        report = build_report(fake_experiments(), claims=CLAIMS)
        assert "| fig8 | ~0.05 avg | 0.040 | baseline IOMMU |" in report
        assert "0.10%" in report  # 1 - 0.999

    def test_includes_rendered_tables(self):
        report = build_report(fake_experiments(), claims=CLAIMS)
        assert "== fig8: demo ==" in report

    def test_tables_can_be_suppressed(self):
        report = build_report(
            fake_experiments(), claims=CLAIMS, include_tables=False
        )
        assert "== fig8" not in report

    def test_each_experiment_runs_once(self):
        calls = {"n": 0}

        def counting(batches=None):
            calls["n"] += 1
            fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
            fig.add("x", normalized_perf=0.1)
            return fig

        claims = (
            Claim("fig8", "a", lambda f: "1", "one"),
            Claim("fig8", "b", lambda f: "2", "two"),
        )
        build_report({"fig8": counting}, claims=claims)
        assert calls["n"] == 1

    def test_batches_forwarded_when_supported(self):
        seen = {}

        def fig8(batches=None):
            seen["batches"] = batches
            fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
            fig.add("x", normalized_perf=0.1)
            return fig

        claims = (Claim("fig8", "a", lambda f: "1", "one"),)
        build_report({"fig8": fig8}, claims=claims, batches=(1, 8))
        assert seen["batches"] == (1, 8)

    def test_own_batch_axis_keeps_its_batches(self):
        """Figure 15 runs on its own recsys batches; the dense figures
        still take the report's batch grid."""
        seen = {}

        def fig8(batches=None):
            seen["fig8"] = batches
            fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
            fig.add("x", normalized_perf=0.1)
            return fig

        def fig15(batches=(1, 8, 64)):
            seen["fig15"] = batches
            fig = FigureResult("fig15", "demo", columns=["total"])
            fig.add("x", total=1.0)
            return fig

        claims = (
            Claim("fig8", "a", lambda f: "1", "one"),
            Claim("fig15", "b", lambda f: "2", "two"),
        )
        build_report({"fig8": fig8, "fig15": fig15}, claims=claims,
                     batches=(1,))
        assert seen == {"fig8": (1,), "fig15": (1, 8, 64)}

    def test_batches_skipped_when_not_accepted(self):
        def fig8():
            fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
            fig.add("x", normalized_perf=0.1)
            return fig

        claims = (Claim("fig8", "a", lambda f: "1", "one"),)
        assert "| fig8 | a | 1 | one |" in build_report(
            {"fig8": fig8}, claims=claims, batches=(1,)
        )

    def test_figure_errors_propagate(self):
        """A TypeError inside a figure must not re-run it on its defaults."""
        calls = []

        def fig8(batches=(1, 4, 8)):
            calls.append(batches)
            if batches == (1,):
                raise TypeError("raised inside the simulation")
            fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
            fig.add("x", normalized_perf=0.1)
            return fig

        claims = (Claim("fig8", "a", lambda f: "1", "one"),)
        with pytest.raises(TypeError, match="inside the simulation"):
            build_report({"fig8": fig8}, claims=claims, batches=(1,))
        assert calls == [(1,)]

    def test_batches_reach_partial_wrappers(self):
        import functools

        seen = {}

        def fig8(batches=None, runner=None):
            seen["args"] = (batches, runner)
            fig = FigureResult("fig8", "demo", columns=["normalized_perf"])
            fig.add("x", normalized_perf=0.1)
            return fig

        claims = (Claim("fig8", "a", lambda f: "1", "one"),)
        wrapped = functools.partial(fig8, runner="shared")
        build_report({"fig8": wrapped}, claims=claims, batches=(1,))
        assert seen["args"] == ((1,), "shared")

    def test_write_report(self, tmp_path):
        out = write_report(
            tmp_path / "sub" / "report.md", fake_experiments(), claims=CLAIMS
        )
        assert out.exists()
        assert "NeuMMU reproduction report" in out.read_text()


class TestDefaultClaims:
    def test_default_claims_reference_known_experiments(self):
        from repro.analysis.report import DEFAULT_CLAIMS
        from repro.cli import EXPERIMENTS

        for claim in DEFAULT_CLAIMS:
            assert claim.experiment in EXPERIMENTS
