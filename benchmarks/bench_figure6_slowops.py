"""Figure 6 — sensitivity to page-operation overhead.

One benchmark per application: CC-NUMA+MigRep and R-NUMA under the fast
(base) and slow (10x page operations, raised thresholds) cost models, all
normalized to the fast perfect CC-NUMA.  The shape to look for: slow page
operations never help, and R-NUMA — with its much higher page-operation
frequency — is the more sensitive of the two on average (most visibly in
cholesky and radix).
"""

from __future__ import annotations

import pytest

from bench_helpers import APPS, figure_data, run_once


@pytest.mark.parametrize("app", APPS)
def test_figure6_app(benchmark, app, scale):
    data = run_once(benchmark, figure_data, "figure6", apps=(app,),
                    scale=scale)[app]
    benchmark.extra_info["app"] = app
    benchmark.extra_info["normalized_times"] = {k: round(v, 3)
                                                for k, v in data.items()}
    assert data["migrep-slow"] >= data["migrep-fast"] - 1e-9
    assert data["rnuma-slow"] >= data["rnuma-fast"] - 1e-9
