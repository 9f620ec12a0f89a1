"""Figure 7 — sensitivity to network latency (remote/local ratio ~16).

One benchmark per application: CC-NUMA, CC-NUMA+MigRep and R-NUMA with the
network latency quadrupled, normalized against the perfect CC-NUMA at the
same latency.  The shape to look for: CC-NUMA degrades the most, MigRep
sits in the middle, R-NUMA the least.
"""

from __future__ import annotations

import pytest

from bench_helpers import APPS, figure_data, run_once


@pytest.mark.parametrize("app", APPS)
def test_figure7_app(benchmark, app, scale):
    data = run_once(benchmark, figure_data, "figure7", apps=(app,),
                    scale=scale)[app]
    benchmark.extra_info["app"] = app
    benchmark.extra_info["normalized_times"] = {k: round(v, 3)
                                                for k, v in data.items()}
    # R-NUMA retains the fewest remote misses, so at long latency it is
    # never the worst of the three
    assert data["rnuma"] <= data["ccnuma"] + 0.05
