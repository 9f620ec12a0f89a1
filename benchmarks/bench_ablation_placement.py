"""Ablation: sensitivity of each system to the initial page placement.

Section 2 of the paper fixes first-touch placement because CC-NUMA is
known to be very sensitive to initial data placement.  This ablation
quantifies the sensitivity on this reproduction's workloads: CC-NUMA,
MigRep and R-NUMA are run under first-touch and under the worst-case
single-node placement.  The shape to look for: CC-NUMA degrades the most,
MigRep recovers part of the loss (migration repairs mis-placed pages),
R-NUMA is the least sensitive.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import get_scenario, run_scenario

from bench_helpers import run_once

APPS = ("lu", "ocean", "radix")
SYSTEMS = ("ccnuma", "migrep", "rnuma")
POLICIES = ("first-touch", "single-node")


def test_placement_ablation(benchmark, scale):
    configs = get_scenario("ablation-placement").configs
    result = run_once(benchmark, run_scenario, "ablation-placement",
                      apps=APPS, systems=SYSTEMS,
                      configs={p: configs[p] for p in POLICIES},
                      scale=min(0.3, scale))

    series_means = result.mean()
    means = {policy: {system: series_means[f"{system}-{policy}"]
                      for system in SYSTEMS}
             for policy in POLICIES}
    benchmark.extra_info["mean_normalized_times"] = {
        policy: {s: round(v, 3) for s, v in by_system.items()}
        for policy, by_system in means.items()
    }

    deltas = {system: means["single-node"][system] - means["first-touch"][system]
              for system in SYSTEMS}
    benchmark.extra_info["single_node_degradation"] = {
        s: round(d, 3) for s, d in deltas.items()}

    # bad placement never helps, and fine-grain caching is the least hurt
    assert all(d >= -0.05 for d in deltas.values())
    assert deltas["rnuma"] <= deltas["ccnuma"] + 0.1
