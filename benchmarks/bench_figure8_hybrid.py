"""Figure 8 — R-NUMA page-cache size and the R-NUMA+MigRep hybrid.

One benchmark per application: CC-NUMA, MigRep, R-NUMA-1/2,
R-NUMA-1/2+MigRep and R-NUMA on the same trace.  The shape to look for:
halving the page cache hurts mainly radix, and adding MigRep to the
half-size system does not recover the loss (relocation interferes with the
MigRep miss counters — Section 6.4).
"""

from __future__ import annotations

import pytest

from bench_helpers import APPS, figure_data, run_once


@pytest.mark.parametrize("app", APPS)
def test_figure8_app(benchmark, app, scale):
    data = run_once(benchmark, figure_data, "figure8", apps=(app,),
                    scale=scale)[app]
    benchmark.extra_info["app"] = app
    benchmark.extra_info["normalized_times"] = {k: round(v, 3)
                                                for k, v in data.items()}
    # the half-size page cache can only hurt R-NUMA
    assert data["rnuma-half"] >= data["rnuma"] - 0.05
    # and the full-size R-NUMA still beats base CC-NUMA
    assert data["rnuma"] <= data["ccnuma"] + 0.05
