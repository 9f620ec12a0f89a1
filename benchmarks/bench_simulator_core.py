"""Micro-benchmarks of the simulator substrate itself.

Not tied to a paper artifact — these measure the throughput of the two
pieces everything else is built on (the trace-driven simulation engines
and the trace generator), which is what governs how long the figure/table
benchmarks above take.

``test_machine_throughput`` is parametrized over both execution engines
(:mod:`repro.engine`), so the recorded numbers track the kernel's
win over the reference interpreter per protocol family.
"""

from __future__ import annotations

import pytest

from repro.cluster.machine import Machine
from repro.config import base_config
from repro.core.factory import build_system
from repro.engine import ENGINE_NAMES
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def cfg():
    return base_config(seed=0)


@pytest.fixture(scope="module")
def small_trace(cfg):
    return get_workload("ocean", machine=cfg.machine, scale=0.1, seed=0)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("system", ["ccnuma", "migrep", "rnuma"])
def test_machine_throughput(benchmark, cfg, small_trace, system, engine):
    """References simulated per second for each protocol family and engine."""
    def run():
        machine = Machine(cfg, build_system(system))
        return machine.run(small_trace, engine=engine)

    stats = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    accesses = small_trace.total_accesses()
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["accesses"] = accesses
    benchmark.extra_info["remote_misses"] = stats.total_remote_misses
    assert stats.total_accesses == accesses


def test_trace_generation_throughput(benchmark, cfg):
    """Trace-generation speed for a mid-sized application."""
    def gen():
        return get_workload("lu", machine=cfg.machine, scale=0.25, seed=1)

    trace = benchmark.pedantic(gen, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["accesses"] = trace.total_accesses()
    assert trace.total_accesses() > 0
