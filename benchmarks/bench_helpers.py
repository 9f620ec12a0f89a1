"""Shared helpers for the benchmark harness (importable module).

These used to live in ``benchmarks/conftest.py``, but importing helpers
from a ``conftest`` module breaks as soon as more than one test root is
on ``sys.path`` (the name ``conftest`` can only resolve to one of them).
``benchmarks/conftest.py`` keeps only fixtures and re-exports these.

The workload scale is controlled with the ``REPRO_BENCH_SCALE`` environment
variable (default 0.5): the full-scale runs take a few seconds per
(application, system) pair, so the default keeps the complete benchmark
suite in the ten-minute range while preserving every comparative shape.
"""

from __future__ import annotations

import os

from repro.experiments.scenario import run_scenario

#: Applications in the paper's order.
APPS = ("barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace")


def bench_scale() -> float:
    """Workload access scale used by the benchmarks."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def figure_data(scenario: str, **kwargs):
    """``{app: {series: normalized time}}`` of one registered scenario run
    (``kwargs`` are :func:`repro.experiments.scenario.run_scenario` axis
    overrides)."""
    return run_scenario(scenario, **kwargs).figure_data()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
