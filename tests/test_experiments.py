"""Tests for repro.experiments: runner and per-table/figure scenarios.

Run at very small scale — the aim is structural correctness of every
table/figure scenario plus a handful of shape assertions that must hold even on tiny
traces (e.g. the slow-page-op system is never faster than the fast one on
the same trace).
"""

from __future__ import annotations

import pytest

from repro.config import base_config, long_latency_config, slow_page_ops_config
from repro.experiments import runner
from repro.experiments.scenario import default_render, get_scenario, run_scenario
from repro.experiments.scenarios import (
    FIGURE5_SYSTEMS,
    FIGURE7_SYSTEMS,
    FIGURE8_SYSTEMS,
    TABLE1_MECHANISMS,
    TABLE1_SCENARIOS,
    TABLE4_SYSTEMS,
    table1_matrix,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.workloads import get_workload

SCALE = 0.02  # tiny traces: every experiment test must stay fast


@pytest.fixture(scope="module")
def cfg():
    return base_config(seed=0)


@pytest.fixture(scope="module")
def ocean_trace(cfg):
    return get_workload("ocean", machine=cfg.machine, scale=SCALE, seed=0)


class TestRunner:
    def test_run_experiment_result_fields(self, cfg, ocean_trace):
        res = runner.run_experiment(ocean_trace, "ccnuma", cfg)
        assert res.workload == "ocean"
        assert res.system == "ccnuma"
        assert res.execution_time > 0
        summary = res.summary()
        assert summary["remote_misses"] >= 0
        assert "per_node_relocations" in summary

    def test_normalized_time(self, cfg, ocean_trace):
        res, base = runner.run_pair(ocean_trace, "ccnuma", cfg)
        assert res.normalized_time(base) >= 1.0
        assert res.normalized_time(base.execution_time) == \
            pytest.approx(res.normalized_time(base))
        with pytest.raises(ValueError):
            res.normalized_time(0)

    def test_run_systems_includes_baseline_once(self, cfg, ocean_trace):
        results = runner.run_systems(ocean_trace, ["ccnuma", "perfect"], cfg)
        assert set(results) == {"ccnuma", "perfect"}

    def test_run_systems_without_baseline(self, cfg, ocean_trace):
        results = runner.run_systems(ocean_trace, ["ccnuma"], cfg, baseline=None)
        assert set(results) == {"ccnuma"}


def render(name, **kwargs):
    """Run a registered scenario and render it as ``repro exp`` does."""
    rs = run_scenario(name, **kwargs)
    return rs, (get_scenario(name).renderer or default_render)(rs)


class TestFigure5:
    def test_single_app(self, cfg):
        rs = run_scenario("figure5", apps=("ocean",), config=cfg,
                          scale=SCALE, systems=("ccnuma", "rnuma"))
        assert rs.only(system="perfect")["is_baseline"]
        times = rs.figure_data()["ocean"]
        assert set(times) == {"ccnuma", "rnuma"}
        assert all(v >= 0.99 for v in times.values())

    def test_run_figure5_structure_and_render(self, cfg):
        rs, text = render("figure5", apps=["ocean", "lu"], config=cfg,
                          scale=SCALE, systems=("ccnuma", "rnuma"))
        assert set(rs.figure_data()) == {"ocean", "lu"}
        assert "Figure 5" in text and "ocean" in text and "geo-mean" in text

    def test_default_system_list_matches_paper_legend(self):
        assert FIGURE5_SYSTEMS == ("ccnuma", "rep", "mig", "migrep", "rnuma",
                                   "rnuma-inf")


class TestTable4:
    def test_row_structure(self, cfg):
        rs, text = render("table4", apps=("ocean",), config=cfg, scale=SCALE)
        [row] = table4_rows(rs)
        assert row.app == "ocean"
        assert set(row.misses) == set(TABLE4_SYSTEMS)
        assert set(row.capacity_conflict) == set(TABLE4_SYSTEMS)
        for system in TABLE4_SYSTEMS:
            assert row.capacity_conflict[system] <= row.misses[system]
        assert "Table 4" in text and "ocean" in text


class TestFigure6:
    def test_slow_page_ops_never_faster(self, cfg):
        rs, text = render("figure6", apps=("ocean",), scale=SCALE,
                          configs={"fast": base_config(seed=0),
                                   "slow": slow_page_ops_config(seed=0)})
        data = rs.figure_data()["ocean"]
        assert set(data) == {"migrep-fast", "migrep-slow",
                             "rnuma-fast", "rnuma-slow"}
        assert data["migrep-slow"] >= data["migrep-fast"] - 1e-9
        assert data["rnuma-slow"] >= data["rnuma-fast"] - 1e-9
        assert "Figure 6" in text


class TestFigure7:
    def test_long_latency_hurts_ccnuma_most(self, cfg):
        base = run_scenario("figure5", apps=("ocean",), config=cfg,
                            scale=SCALE, systems=("ccnuma",))
        base_norm = base.figure_data()["ocean"]["ccnuma"]
        rs, text = render("figure7", apps=("ocean",), scale=SCALE,
                          config=long_latency_config(seed=0))
        long_data = rs.figure_data()["ocean"]
        assert set(long_data) == set(FIGURE7_SYSTEMS)
        # CC-NUMA's normalized time grows when remote latency quadruples
        assert long_data["ccnuma"] >= base_norm - 0.05
        assert "Figure 7" in text


class TestFigure8:
    def test_systems_and_render(self, cfg):
        rs, text = render("figure8", apps=("ocean",), config=cfg, scale=SCALE)
        assert set(rs.figure_data()["ocean"]) == set(FIGURE8_SYSTEMS)
        assert "Figure 8" in text and "rnuma-half" in text


class TestTables123:
    def test_table1_matrix_structure(self):
        rs, text = render("table1", scale=0.5)
        matrix = table1_matrix(rs)
        assert set(matrix) == set(TABLE1_MECHANISMS)
        for cells in matrix.values():
            assert set(cells) == set(TABLE1_SCENARIOS)
        # R-NUMA reduces misses in the high-degree read-write scenario;
        # migration and replication do not (Table 1's key contrast)
        assert matrix["R-NUMA"]["rw_high_degree"].reduces_misses
        assert not matrix["Page Migration"]["rw_high_degree"].reduces_misses
        assert not matrix["Page Replication"]["rw_high_degree"].reduces_misses
        assert "Table 1" in text

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 7
        apps = [r["app"] for r in rows]
        assert apps == ["barnes", "cholesky", "fmm", "lu", "ocean", "radix",
                        "raytrace"]
        lu = next(r for r in rows if r["app"] == "lu")
        assert "512x512" in lu["paper_input"]
        rs, text = render("table2")
        assert rs.rows == rows
        assert "Table 2" in text and "raytrace" in text

    def test_table3_matches_paper(self):
        rows = table3_rows()
        assert all(r["matches"] for r in rows), \
            "default CostModel must reproduce the paper's Table 3"
        rs, text = render("table3")
        assert rs.rows == rows
        assert "Table 3" in text

    def test_table3_detects_mismatch(self):
        from repro.config import CostModel
        rows = table3_rows(CostModel(remote_miss=500))
        assert any(not r["matches"] for r in rows)
