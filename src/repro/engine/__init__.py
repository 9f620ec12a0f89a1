"""Simulation execution engines.

The machine/trace substrate defines *what* is simulated; this subsystem
defines *how* the reference stream is executed:

``kernel``
    The compiled residual kernel (:mod:`repro.engine.kernel`), the
    default: guaranteed L1 hits are classified per phase with vectorised
    numpy passes and resolved in bulk, and the residual references walk
    through a C transcription of the protocol lanes, bailing to Python
    only for page operations, mapping faults and adaptive-policy
    decisions.  A run the kernel cannot take — a user protocol
    subclass, a host without a working C compiler, a crash inside the
    compiled walk — falls back to ``legacy`` for the whole run,
    recording the reason in ``engine_profile["fallback_reason"]``.
``legacy``
    The reference interpreter — one Python-level step per reference
    (:mod:`repro.engine.legacy`).  It is the semantic ground truth; the
    kernel reproduces its statistics and execution times bit for bit.

Select an engine per run (``machine.run(trace, engine="legacy")``) or
globally through the ``REPRO_ENGINE`` environment variable.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.engine.kernel import run_kernel
from repro.engine.legacy import run_legacy

#: Engines selectable by name.
ENGINE_NAMES = ("kernel", "legacy")

#: Environment variable overriding the default engine.
ENGINE_ENV_VAR = "REPRO_ENGINE"

_RUNNERS = {
    "kernel": run_kernel,
    "legacy": run_legacy,
}


def default_engine() -> str:
    """The engine used when none is requested explicitly."""
    name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    return name if name in _RUNNERS else "kernel"


def resolve_engine(engine: Optional[str] = None):
    """Map an engine name (or None for the default) to its run function."""
    name = (engine or default_engine()).strip().lower()
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown engine {engine!r}; valid engines: {', '.join(ENGINE_NAMES)}")
    return runner


def run_trace(machine, trace, engine: Optional[str] = None):
    """Run ``trace`` on ``machine`` with the selected engine."""
    return resolve_engine(engine)(machine, trace)


__all__ = [
    "ENGINE_NAMES",
    "ENGINE_ENV_VAR",
    "default_engine",
    "resolve_engine",
    "run_trace",
    "run_kernel",
    "run_legacy",
]
