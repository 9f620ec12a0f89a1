"""Tables 1-3 — qualitative matrix, application inventory, cost model.

These three benchmarks are cheap; they exist so that *every* table and
figure of the paper has a benchmark target that regenerates it.
"""

from __future__ import annotations

from repro.experiments.scenario import run_scenario
from repro.experiments.scenarios import table1_matrix, table2_rows, table3_rows

from bench_helpers import run_once


def test_table1_matrix(benchmark, scale):
    matrix = table1_matrix(run_once(benchmark, run_scenario, "table1",
                                    scale=max(0.3, scale)))
    benchmark.extra_info["matrix"] = {
        mech: {scen: ("yes" if cell.reduces_misses else "no")
               for scen, cell in cells.items()}
        for mech, cells in matrix.items()
    }
    # the paper's Table 1: only R-NUMA covers the high-sharing-degree case
    assert matrix["R-NUMA"]["rw_high_degree"].reduces_misses
    assert not matrix["Page Migration"]["rw_high_degree"].reduces_misses
    assert not matrix["Page Replication"]["rw_high_degree"].reduces_misses
    assert matrix["Page Replication"]["read_only"].reduces_misses
    assert matrix["Page Migration"]["rw_low_degree"].reduces_misses


def test_table2_workloads(benchmark):
    rows = run_once(benchmark, table2_rows)
    benchmark.extra_info["apps"] = {r["app"]: r["paper_input"] for r in rows}
    assert len(rows) == 7


def test_table3_costs(benchmark):
    rows = run_once(benchmark, table3_rows)
    benchmark.extra_info["rows"] = {r["operation"]: r["model_cycles"]
                                    for r in rows}
    assert all(r["matches"] for r in rows)
