"""Tests for the ablation scenarios (repro.experiments.scenarios)."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ResultSet, get_scenario, run_scenario
from repro.experiments.scenarios import ABLATION_APPS
from repro.stats.report import format_normalized_figure

#: Tiny scale: the ablation scenarios run many (value, app, system) points.
SCALE = 0.05
APPS = ("lu", "radix")


def _subset(name: str, keys) -> dict:
    """The named scenario's config axis restricted to ``keys``."""
    configs = get_scenario(name).configs
    return {key: configs[key] for key in keys}


@pytest.fixture(scope="module")
def placement_result() -> ResultSet:
    return run_scenario("ablation-placement", apps=APPS,
                        systems=("ccnuma", "rnuma"),
                        configs=_subset("ablation-placement",
                                        ("first-touch", "single-node")),
                        scale=SCALE)


class TestPlacementAblation:
    def test_point_count(self, placement_result):
        # 2 policies x 2 apps x 2 systems, plus a perfect baseline per
        # (policy, app)
        assert len(placement_result.filter(is_baseline=False)) == 8
        assert len(placement_result.filter(is_baseline=True)) == 4

    def test_single_node_hurts_ccnuma(self, placement_result):
        means = placement_result.mean()
        assert means["ccnuma-single-node"] >= means["ccnuma-first-touch"] - 0.05

    def test_rnuma_less_sensitive_than_ccnuma(self, placement_result):
        means = placement_result.mean()
        cc_delta = means["ccnuma-single-node"] - means["ccnuma-first-touch"]
        rn_delta = means["rnuma-single-node"] - means["rnuma-first-touch"]
        # fine-grain caching recovers locality regardless of the home node,
        # so its degradation must not exceed CC-NUMA's by much
        assert rn_delta <= cc_delta + 0.2


class TestBlockCacheAblation:
    def test_shapes_and_ordering(self):
        data = run_scenario("ablation-block-cache", apps=("lu",),
                            scale=SCALE).figure_data()
        assert set(data) == {"lu"}
        times = data["lu"]
        assert {"ccnuma", "ccnuma-dram", "rnuma"} <= set(times)
        # everything is normalized against perfect CC-NUMA
        assert all(v >= 0.99 for v in times.values())

    def test_render(self):
        data = {"lu": {"ccnuma": 1.5, "ccnuma-dram": 1.4, "rnuma": 1.2}}
        text = format_normalized_figure("Block cache ablation", data,
                                        ["ccnuma", "ccnuma-dram", "rnuma"])
        assert "Block cache ablation" in text
        assert "lu" in text


class TestSCOMAAblation:
    def test_scoma_vs_rnuma(self):
        data = run_scenario("ablation-scoma", apps=("radix",),
                            scale=SCALE).figure_data()
        times = data["radix"]
        assert {"ccnuma", "scoma", "rnuma"} <= set(times)
        # radix streams with little page reuse: unconditional allocation
        # must not beat reactive relocation
        assert times["scoma"] >= times["rnuma"] - 0.05


class TestThresholdAblation:
    def test_both_sweeps_returned(self):
        rn = run_scenario("sweep-rnuma-threshold", apps=("lu",),
                          configs=_subset("sweep-rnuma-threshold", (8, 64)),
                          scale=SCALE)
        assert [r["config"] for r in rn.filter(app="lu", system="rnuma")] \
            == [8, 64]
        mg = run_scenario("sweep-migrep-threshold", apps=("lu",),
                          configs=_subset("sweep-migrep-threshold",
                                          (200, 1600)),
                          scale=SCALE)
        assert all(r["system"] == "migrep"
                   for r in mg.filter(is_baseline=False))

    def test_default_apps_cover_behaviour_classes(self):
        assert set(ABLATION_APPS) == {"barnes", "lu", "radix"}
