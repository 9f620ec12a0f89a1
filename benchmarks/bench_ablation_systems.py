"""Ablations over the remote-caching design space beyond the paper's systems.

Two comparison points the paper discusses but does not evaluate:

* ``ccnuma-dram`` — the "large but slow DRAM block cache" alternative of
  Section 2 (evaluated in detail by Moga & Dubois): does a bigger remote
  cache alone close the capacity/conflict gap?
* ``scoma`` — unconditional S-COMA allocation (ASCOMA-style): how much of
  R-NUMA's win comes from the page cache, and how much from being
  *reactive* about what is admitted into it?
"""

from __future__ import annotations

import pytest

from bench_helpers import figure_data, run_once

APPS = ("barnes", "lu", "radix")


def _mean(per_app, system):
    return sum(times[system] for times in per_app.values()) / len(per_app)


def test_dram_block_cache_ablation(benchmark, scale):
    data = run_once(benchmark, figure_data, "ablation-block-cache",
                    apps=APPS, scale=min(0.3, scale))
    benchmark.extra_info["normalized_times"] = {
        app: {s: round(v, 3) for s, v in times.items()}
        for app, times in data.items()
    }
    sram = _mean(data, "ccnuma")
    dram = _mean(data, "ccnuma-dram")
    rnuma = _mean(data, "rnuma")
    # the bigger cache removes capacity/conflict misses but pays a look-up
    # penalty, so it lands between plain CC-NUMA and R-NUMA on average
    assert dram <= sram + 0.1
    assert rnuma <= dram + 0.1


def test_scoma_ablation(benchmark, scale):
    data = run_once(benchmark, figure_data, "ablation-scoma",
                    apps=APPS, scale=min(0.3, scale))
    benchmark.extra_info["normalized_times"] = {
        app: {s: round(v, 3) for s, v in times.items()}
        for app, times in data.items()
    }
    # Both page-grain systems beat plain CC-NUMA; whether reactive
    # admission (R-NUMA) or unconditional admission (S-COMA) wins depends
    # on the page-operation cost model — with the reduced cost model the
    # two sit within a narrow band of each other, which is the number this
    # ablation exists to report (see EXPERIMENTS.md).
    assert all(v >= 0.99 for times in data.values() for v in times.values())
    assert _mean(data, "rnuma") <= _mean(data, "ccnuma") + 0.05
    assert _mean(data, "scoma") <= _mean(data, "ccnuma") + 0.05
    assert abs(_mean(data, "scoma") - _mean(data, "rnuma")) <= 0.5
