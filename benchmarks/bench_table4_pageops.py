"""Table 4 — per-node page operations and remote misses.

One benchmark per application: runs CC-NUMA, CC-NUMA+MigRep and R-NUMA on
the same trace and records per-node migrations, replications, relocations
and the overall/capacity-conflict miss breakdown.  The shape to look for:
MigRep's page operations are far less frequent than R-NUMA's relocations,
and R-NUMA leaves the fewest capacity/conflict misses.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import run_scenario
from repro.experiments.scenarios import table4_rows

from bench_helpers import APPS, run_once


@pytest.mark.parametrize("app", APPS)
def test_table4_app(benchmark, app, scale):
    rs = run_once(benchmark, run_scenario, "table4", apps=(app,), scale=scale)
    [row] = table4_rows(rs)
    benchmark.extra_info["app"] = app
    benchmark.extra_info["migrations_per_node"] = round(row.migrations_per_node, 1)
    benchmark.extra_info["replications_per_node"] = round(row.replications_per_node, 1)
    benchmark.extra_info["relocations_per_node"] = round(row.relocations_per_node, 1)
    benchmark.extra_info["misses_per_node"] = {
        k: round(v) for k, v in row.misses.items()}
    benchmark.extra_info["capconf_per_node"] = {
        k: round(v) for k, v in row.capacity_conflict.items()}

    # structural checks
    for system in ("ccnuma", "migrep", "rnuma"):
        assert row.capacity_conflict[system] <= row.misses[system]
    # R-NUMA never leaves more capacity/conflict misses than base CC-NUMA
    assert row.capacity_conflict["rnuma"] <= row.capacity_conflict["ccnuma"]
    # CC-NUMA itself performs no page operations
    assert row.misses["ccnuma"] > 0
