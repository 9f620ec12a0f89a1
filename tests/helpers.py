"""Shared test helpers (importable, unlike conftest fixtures).

Importing helpers from ``conftest`` is fragile: when several test roots
(``tests/``, ``benchmarks/``) are collected in one pytest run, only one
``conftest`` module can own the name and the other root's imports break.
Plain helper functions therefore live here; ``tests/conftest.py`` keeps
only fixtures (and re-exports these helpers for backwards compatibility).
"""

from __future__ import annotations

import numpy as np

from repro.config import MachineConfig
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec


def make_simple_spec(*, pattern: SharingPattern = SharingPattern.READ_WRITE_SHARED,
                     pages: int = 16, accesses: int = 400,
                     write_fraction: float = 0.2,
                     shift: int = 0, phases: int = 2,
                     node_affinity: float = 0.0,
                     touches_per_page: int = 8) -> WorkloadSpec:
    """Build a one-group workload spec for targeted protocol tests."""
    group = PageGroup(name="data", num_pages=pages, pattern=pattern,
                      write_fraction=write_fraction,
                      node_affinity=node_affinity,
                      touches_per_page=touches_per_page)
    phase_list = [Phase(name="init", touch_groups=("data",))]
    for i in range(phases):
        phase_list.append(
            Phase(name=f"work-{i}", accesses_per_proc=accesses,
                  weights={"data": 1.0}, compute_per_access=4,
                  migratory_shift=shift))
    return WorkloadSpec(name=f"simple-{pattern.value}",
                        description="test workload",
                        groups=(group,), phases=tuple(phase_list))


def make_trace(spec: WorkloadSpec, machine: MachineConfig, *, seed: int = 0,
               access_scale: float = 1.0):
    """Generate a trace for ``spec`` on ``machine``."""
    return TraceGenerator(spec, machine, access_scale=access_scale,
                          seed=seed).generate()


def line_views(caches):
    """The caches' line stores as the ``(blocks, versions)`` int64 views
    :func:`repro.engine.classify.classify_phase` reads."""
    states = [c.line_state() for c in caches]
    return ([np.frombuffer(s[0], dtype=np.int64) for s in states],
            [np.frombuffer(s[1], dtype=np.int64) for s in states])
