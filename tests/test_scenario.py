"""Tests for the declarative scenario API (repro.experiments.scenario).

Covers Scenario axis expansion, baseline normalisation, the ResultSet
artifact (pivot / mean / filter / export round-trips), and — critically —
equivalence: the figure/table scenarios must return *bit-identical* data
to an independent reimplementation of the original (pre-scenario)
pipelines built directly on the runner primitives.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.config import base_config, slow_page_ops_config
from repro.experiments.runner import SweepRunner, run_experiment, run_systems
from repro.experiments.scenario import ResultSet, Scenario, run_scenario
from repro.experiments.scenarios import (
    FIGURE5_SYSTEMS,
    TABLE4_SYSTEMS,
    table4_rows,
)
from repro.registry import SCENARIOS, register_scenario
from repro.stats.export import export_resultset, render_resultset
from repro.workloads import get_workload

SCALE = 0.02
APPS = ("lu", "ocean")


@pytest.fixture(scope="module")
def fig5_rs() -> ResultSet:
    return run_scenario("figure5", apps=APPS, scale=SCALE, seed=0)


class TestAxisExpansion:
    def test_cells_cover_apps_x_systems_plus_baseline(self, fig5_rs):
        # 2 apps x (6 systems + perfect baseline)
        assert len(fig5_rs.rows) == 2 * (len(FIGURE5_SYSTEMS) + 1)
        assert fig5_rs.axes["app"] == APPS
        assert fig5_rs.axes["system"] == FIGURE5_SYSTEMS
        assert fig5_rs.series == FIGURE5_SYSTEMS

    def test_rows_carry_axis_and_metric_columns(self, fig5_rs):
        row = fig5_rs.only(app="lu", system="rnuma")
        for column in ("scenario", "app", "system", "config", "scale", "seed",
                       "series", "execution_time", "normalized_time",
                       "remote_misses", "capacity_conflict_misses",
                       "per_node_relocations", "num_nodes"):
            assert column in row
        assert row["scenario"] == "figure5"
        assert row["execution_time"] > 0

    def test_baseline_rows_flagged(self, fig5_rs):
        baseline_rows = [r for r in fig5_rs.rows if r["is_baseline"]]
        assert len(baseline_rows) == len(APPS)
        assert all(r["system"] == "perfect" for r in baseline_rows)
        assert all(r["normalized_time"] == 1.0 for r in baseline_rows)

    def test_systems_override(self):
        rs = run_scenario("figure5", apps=("lu",), systems=("ccnuma",),
                          scale=SCALE)
        assert {r["system"] for r in rs.rows} == {"ccnuma", "perfect"}

    def test_multi_config_series_names(self):
        rs = run_scenario("figure6", apps=("lu",), scale=SCALE)
        assert set(rs.series) == {"migrep-fast", "migrep-slow",
                                  "rnuma-fast", "rnuma-slow"}
        # the baseline runs only under the pinned "fast" config
        baseline_rows = [r for r in rs.rows if r["system"] == "perfect"]
        assert [r["config"] for r in baseline_rows] == ["fast"]

    def test_config_override_requires_single_axis_entry(self):
        with pytest.raises(ValueError, match="config-axis"):
            run_scenario("figure6", apps=("lu",), scale=SCALE,
                         config=base_config())

    def test_configs_override_must_include_pinned_baseline_config(self):
        with pytest.raises(ValueError, match="'fast'"):
            run_scenario("figure6", apps=("lu",), scale=SCALE,
                         configs={"slow": slow_page_ops_config()})

    def test_static_scenario_has_no_series(self):
        rs = run_scenario("table2")
        assert rs.series == ()
        assert {r["app"] for r in rs.rows} >= {"lu", "ocean"}


class TestBaselineNormalization:
    def test_normalized_time_is_exec_over_baseline(self, fig5_rs):
        for app in APPS:
            base = fig5_rs.only(app=app, system="perfect")["execution_time"]
            for system in FIGURE5_SYSTEMS:
                row = fig5_rs.only(app=app, system=system)
                assert row["normalized_time"] == row["execution_time"] / base

    def test_figure6_normalizes_against_fast_baseline(self):
        rs = run_scenario("figure6", apps=("lu",), scale=SCALE)
        base = rs.only(app="lu", system="perfect")["execution_time"]
        slow = rs.only(app="lu", system="rnuma", config="slow")
        assert slow["normalized_time"] == slow["execution_time"] / base

    def test_no_baseline_scenario_has_none_normalized(self):
        rs = run_scenario("table4", apps=("lu",), scale=SCALE)
        assert all(r["normalized_time"] is None for r in rs.rows)

    def test_renormalize_helper(self, fig5_rs):
        rs2 = fig5_rs.normalize(column="execution_time", against="ccnuma",
                                into="vs_ccnuma")
        row = rs2.only(app="lu", system="ccnuma")
        assert row["vs_ccnuma"] == 1.0


class TestResultSet:
    def test_pivot_and_figure_data(self, fig5_rs):
        data = fig5_rs.figure_data()
        assert set(data) == set(APPS)
        assert set(data["lu"]) == set(FIGURE5_SYSTEMS)
        misses = fig5_rs.pivot(values="remote_misses")
        assert misses["lu"]["ccnuma"] >= 0

    def test_mean(self, fig5_rs):
        means = fig5_rs.mean()
        assert set(means) == set(FIGURE5_SYSTEMS)
        expected = sum(fig5_rs.figure_data()[a]["rnuma"]
                       for a in APPS) / len(APPS)
        assert means["rnuma"] == pytest.approx(expected)

    def test_filter_and_only(self, fig5_rs):
        sub = fig5_rs.filter(app="lu")
        assert len(sub.rows) == len(FIGURE5_SYSTEMS) + 1
        with pytest.raises(ValueError):
            fig5_rs.only(app="lu")  # more than one row

    def test_csv_round_trip(self, fig5_rs):
        text = fig5_rs.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(fig5_rs.rows)
        reread = {(r["app"], r["system"]): float(r["execution_time"])
                  for r in rows}
        for row in fig5_rs.rows:
            assert reread[(row["app"], row["system"])] == row["execution_time"]

    def test_json_round_trip(self, fig5_rs):
        data = json.loads(fig5_rs.to_json())
        assert data["scenario"] == "figure5"
        assert data["series"] == list(FIGURE5_SYSTEMS)
        assert len(data["rows"]) == len(fig5_rs.rows)
        by_key = {(r["app"], r["system"]): r for r in data["rows"]}
        lu_rnuma = by_key[("lu", "rnuma")]
        assert lu_rnuma["normalized_time"] == \
            fig5_rs.only(app="lu", system="rnuma")["normalized_time"]

    def test_markdown_and_chart_render(self, fig5_rs):
        md = fig5_rs.to_markdown()
        assert md.startswith("|")
        assert "normalized_time" in md
        chart = render_resultset(fig5_rs, "chart")
        assert "#" in chart
        with pytest.raises(ValueError):
            render_resultset(fig5_rs, "yaml")

    def test_export_resultset_writes_files(self, fig5_rs, tmp_path):
        written = export_resultset(fig5_rs, csv_path=tmp_path / "r.csv",
                                   json_path=tmp_path / "r.json",
                                   markdown_path=tmp_path / "r.md")
        assert [p.name for p in written] == ["r.csv", "r.json", "r.md"]
        assert json.loads((tmp_path / "r.json").read_text())["scenario"] == \
            "figure5"


class TestShimEquivalence:
    """The paper's scenarios vs the original pipelines, bit for bit."""

    def test_run_figure5_matches_original_pipeline(self):
        # independent reimplementation of the pre-scenario figure 5 code
        cfg = base_config(seed=0)
        expected = {}
        for app in APPS:
            trace = get_workload(app, machine=cfg.machine, scale=SCALE, seed=0)
            results = run_systems(trace, FIGURE5_SYSTEMS, cfg)
            baseline = results["perfect"].execution_time
            expected[app] = {name: res.execution_time / baseline
                             for name, res in results.items()
                             if name != "perfect"}
        rs = run_scenario("figure5", apps=APPS, scale=SCALE, seed=0)
        assert rs.figure_data() == expected

    def test_run_figure6_matches_original_pipeline(self):
        fast = base_config(seed=0)
        slow = slow_page_ops_config(seed=0)
        expected = {}
        for app in APPS:
            trace = get_workload(app, machine=fast.machine, scale=SCALE,
                                 seed=0)
            fast_res = run_systems(trace, ("migrep", "rnuma"), fast)
            slow_res = run_systems(trace, ("migrep", "rnuma"), slow,
                                   baseline=None)
            baseline = fast_res["perfect"].execution_time
            expected[app] = {
                "migrep-fast": fast_res["migrep"].execution_time / baseline,
                "rnuma-fast": fast_res["rnuma"].execution_time / baseline,
                "migrep-slow": slow_res["migrep"].execution_time / baseline,
                "rnuma-slow": slow_res["rnuma"].execution_time / baseline,
            }
        rs = run_scenario("figure6", apps=APPS, scale=SCALE, seed=0)
        assert rs.figure_data() == expected

    def test_run_table4_matches_original_pipeline(self):
        cfg = base_config(seed=0)
        rows = table4_rows(run_scenario("table4", apps=APPS, scale=SCALE,
                                        seed=0))
        for app, row in zip(APPS, rows):
            trace = get_workload(app, machine=cfg.machine, scale=SCALE, seed=0)
            results = run_systems(trace, TABLE4_SYSTEMS, cfg, baseline=None)
            migrep, rnuma = results["migrep"], results["rnuma"]
            assert row.app == app
            assert row.migrations_per_node == \
                migrep.stats.per_node_migrations()
            assert row.replications_per_node == \
                migrep.stats.per_node_replications()
            assert row.relocations_per_node == rnuma.stats.per_node_relocations()
            assert row.misses == {
                name: res.stats.per_node_remote_misses()
                for name, res in results.items()}
            assert row.capacity_conflict == {
                name: res.stats.per_node_capacity_conflict()
                for name, res in results.items()}

    def test_shims_share_one_runner_memo(self):
        # the same runner passed to two scenarios must reuse the base runs
        with SweepRunner() as runner:
            run_scenario("figure5", apps=("lu",), scale=SCALE, seed=0,
                         runner=runner)
            runs_before = runner.stats.runs
            run_scenario("table4", apps=("lu",), scale=SCALE, seed=0,
                         runner=runner)
            # table4's ccnuma/migrep/rnuma runs are already memoized
            assert runner.stats.runs == runs_before


class TestCustomScenario:
    def test_user_scenario_end_to_end(self):
        scenario = Scenario(
            name="custom-test-scn",
            title="custom",
            apps=("lu",),
            systems=("ccnuma", "rnuma"),
            default_scale=SCALE,
        )
        register_scenario(scenario)
        try:
            rs = run_scenario("custom-test-scn", seed=0)
            assert set(rs.figure_data()["lu"]) == {"ccnuma", "rnuma"}
        finally:
            SCENARIOS.unregister("custom-test-scn")

    def test_run_scenario_accepts_inline_scenario(self):
        scenario = Scenario(name="inline-test", title="inline",
                            apps=("lu",), systems=("ccnuma",),
                            default_scale=SCALE)
        rs = run_scenario(scenario)
        assert "inline-test" not in SCENARIOS
        assert len(rs.rows) == 2  # ccnuma + perfect

    def test_multi_seed_axis(self):
        scenario = Scenario(name="seeds-test", title="seeds",
                            apps=("lu",), systems=("ccnuma",),
                            seeds=(0, 1), default_scale=SCALE)
        rs = run_scenario(scenario)
        assert {r["seed"] for r in rs.rows} == {0, 1}
        assert len(rs.rows) == 4
