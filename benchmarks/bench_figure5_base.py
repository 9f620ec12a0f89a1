"""Figure 5 — base performance comparison (one benchmark per application).

Each benchmark runs the six Figure 5 systems plus the perfect CC-NUMA
baseline on one application and records the normalized execution times in
``extra_info``.  The shape to look for (Section 6.1 of the paper):
CC-NUMA is the slowest, MigRep improves on it by roughly 20 %, R-NUMA by
roughly 40 %, Mig alone does not help barnes, and lu's gain comes from
replication.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import FIGURE5_SYSTEMS

from bench_helpers import APPS, figure_data, run_once


@pytest.mark.parametrize("app", APPS)
def test_figure5_app(benchmark, app, scale):
    times = run_once(benchmark, figure_data, "figure5", apps=(app,),
                     scale=scale)[app]
    benchmark.extra_info["app"] = app
    benchmark.extra_info["systems"] = list(FIGURE5_SYSTEMS)
    benchmark.extra_info["normalized_times"] = {k: round(v, 3)
                                                for k, v in times.items()}
    # minimal shape checks: nothing beats the perfect baseline, and the
    # paper's headline ordering holds
    assert all(v >= 0.99 for v in times.values())
    assert times["rnuma"] <= times["ccnuma"]
    assert times["migrep"] <= times["ccnuma"] + 0.05
    assert times["rnuma-inf"] <= times["rnuma"] + 0.05
