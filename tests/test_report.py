"""Tests for the EXPERIMENTS.md report builder (repro.experiments.report)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.report import ExperimentReport, build_report
from repro.workloads.generator import TraceGenerator
from repro.workloads.tracefile import trace_digest

DATA = Path(__file__).parent / "data"

#: The report's progress stages, in order (per-section timings key on them).
STAGES = ["table 1", "table 2", "table 3", "figure 5", "table 4",
          "figure 6", "figure 7", "figure 8", "ablations"]


@pytest.fixture(scope="module")
def tiny_report() -> ExperimentReport:
    """A minimal report run: one application at a very small scale.

    Shape checks calibrated for the full seven-application run are not
    expected to pass here; these tests verify the report machinery
    (sections, tables, check plumbing), not the science.
    """
    progress_log: list[str] = []
    report = build_report(scale=0.05, seed=0, apps=["lu"],
                          progress=progress_log.append)
    report._progress_log = progress_log  # type: ignore[attr-defined]
    return report


class TestBuildReport:
    def test_all_paper_artifacts_have_sections(self, tiny_report):
        text = tiny_report.to_markdown()
        for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                         "Figure 5", "Figure 6", "Figure 7", "Figure 8"):
            assert f"## {artifact}" in text
        assert "## Ablations beyond the paper" in text
        assert "## Shape-check summary" in text

    def test_progress_callback_called_per_stage(self, tiny_report):
        log = tiny_report._progress_log
        for stage in ("table 1", "figure 5", "figure 8", "ablations"):
            assert stage in log

    def test_checks_collected_per_figure(self, tiny_report):
        assert set(tiny_report.checks) >= {"figure5", "table4", "figure6",
                                           "figure7", "figure8"}
        assert tiny_report.all_checks()
        # every check renders into the markdown
        text = tiny_report.to_markdown()
        for check in tiny_report.all_checks():
            assert check.claim in text

    def test_markdown_tables_are_well_formed(self, tiny_report):
        lines = tiny_report.to_markdown().splitlines()
        table_header_indices = [i for i, line in enumerate(lines)
                                if line.startswith("| ") and i + 1 < len(lines)
                                and lines[i + 1].startswith("| ---")]
        assert table_header_indices, "expected at least one markdown table"
        for i in table_header_indices:
            width = lines[i].count("|")
            assert lines[i + 1].count("|") == width

    def test_elapsed_and_metadata(self, tiny_report):
        assert tiny_report.elapsed_seconds > 0
        assert tiny_report.scale == 0.05
        assert "scale 0.05" in tiny_report.to_markdown()


class TestGoldenReport:
    """The rendered report, pinned byte for byte at two small scales."""

    @pytest.mark.parametrize("scale", [0.01, 0.05])
    def test_report_matches_golden_file(self, scale):
        golden = (DATA / f"report_scale{scale}.md").read_text(encoding="utf-8")
        assert build_report(scale=scale, seed=0).to_markdown() == golden


@pytest.fixture(scope="module")
def report_plan():
    """One scale-0.01 report on two workers, with its runners, trace
    generations and spills recorded."""
    runners, generated, spilled, stages = [], [], [], []
    real_init = runner_mod.SweepRunner.__init__
    real_generate = TraceGenerator.generate
    real_spill = runner_mod.write_trace_file

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runners.append(self)

    def generate(self, *args, **kwargs):
        trace = real_generate(self, *args, **kwargs)
        generated.append(trace_digest(trace))
        return trace

    def spill(trace, path, *args, **kwargs):
        spilled.append(Path(path).name)
        return real_spill(trace, path, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_JOBS", "2")
        mp.setattr(runner_mod.SweepRunner, "__init__", init)
        mp.setattr(TraceGenerator, "generate", generate)
        mp.setattr(runner_mod, "write_trace_file", spill)
        build_report(scale=0.01, seed=0, progress=stages.append)
    return runners, generated, spilled, stages


class TestReportPlan:
    """The whole report is one batch over one runner and one trace memo."""

    def test_one_runner(self, report_plan):
        runners, _, _, _ = report_plan
        assert len(runners) == 1
        assert runners[0].jobs == 2

    def test_each_trace_generated_once(self, report_plan):
        _, generated, _, _ = report_plan
        assert len(generated) == len(set(generated)) == 10

    def test_each_distinct_run_executed_once(self, report_plan):
        runners, _, _, _ = report_plan
        assert runners[0].stats.runs == 135

    def test_each_digest_spilled_once(self, report_plan):
        runners, generated, spilled, _ = report_plan
        assert spilled
        assert len(spilled) == len(set(spilled))
        assert {name.split(".")[0] for name in spilled} <= set(generated)
        assert runners[0].stats.traces_spilled == len(spilled)

    def test_runner_closed_with_trace_memo_dropped(self, report_plan):
        runners, _, _, _ = report_plan
        assert runners[0]._traces == {}
        assert runners[0].spill_dir is None

    def test_progress_stages_in_order(self, report_plan):
        _, _, _, stages = report_plan
        assert stages == STAGES
