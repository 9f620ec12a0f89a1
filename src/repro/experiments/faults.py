"""Deterministic fault injection for sweep workers.

The supervised :class:`~repro.experiments.runner.SweepRunner` promises
that a sweep survives its own workers dying: crashed or hung runs are
retried on a respawned pool and repeat offenders land on the inline
lane in the supervising process, with the final :class:`ResultSet` bit-identical to a
fault-free run.  This module provides the *proof harness* for that
invariant — environment-driven injectors that kill, hang or poison a
chosen fraction of worker runs, selected **deterministically** from the
run's trace digest and system name so repeated sweeps fault the exact
same cells.

Injection is configured entirely through the environment (it must reach
pool workers, which inherit the parent's environment):

``REPRO_FAULTS``
    Comma-separated ``kind=rate`` pairs, e.g. ``"crash=0.3,hang=0.1"``.
    Kinds: ``crash`` (the worker process dies via ``os._exit``),
    ``hang`` (the run sleeps until the runner's wall-clock timeout kills
    it) and ``error`` (the run raises :class:`InjectedFault`).  Rates
    are fractions in ``[0, 1]`` of (digest, system) cells afflicted.
``REPRO_FAULTS_SEED``
    Salt mixed into the selection hash (default ``"0"``); varying it
    moves the faults to different cells.
``REPRO_FAULTS_ATTEMPTS``
    How many attempts of an afflicted run fault before it is allowed to
    succeed (default ``1`` — the first attempt faults, the retry runs
    clean).  Set it ``>= retries`` to force every run down the ladder
    from the file lane to inline execution.
``REPRO_FAULTS_HANG_S``
    Sleep duration of the ``hang`` injector in seconds (default 3600);
    must exceed the runner's ``run_timeout`` to trigger the kill path.

Injection happens only in the worker entry point (``_execute_file_run``);
the runner's inline lane executes in the supervising process and is
never injected — which is exactly what makes the ladder a safe landing.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

#: Environment variable holding the ``kind=rate`` injection spec.
FAULTS_ENV_VAR = "REPRO_FAULTS"
#: Environment variable salting the deterministic cell selection.
SEED_ENV_VAR = "REPRO_FAULTS_SEED"
#: Environment variable: attempts of an afflicted run that fault.
ATTEMPTS_ENV_VAR = "REPRO_FAULTS_ATTEMPTS"
#: Environment variable: sleep seconds of the ``hang`` injector.
HANG_ENV_VAR = "REPRO_FAULTS_HANG_S"

#: Recognized injector kinds.
FAULT_KINDS = ("crash", "hang", "error")


class InjectedFault(RuntimeError):
    """Raised by the ``error`` injector inside an afflicted worker run."""


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, deterministic fault-injection plan.

    Attributes
    ----------
    rates:
        Mapping of injector kind to afflicted fraction in ``[0, 1]``.
    seed:
        Salt mixed into the selection hash.
    attempts:
        Number of attempts of an afflicted run that fault (attempt
        numbers ``>= attempts`` run clean, so retries converge).
    hang_s:
        Sleep duration of the ``hang`` injector.
    """

    rates: Mapping[str, float]
    seed: str = "0"
    attempts: int = 1
    hang_s: float = 3600.0

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """Parse the plan from ``environ`` (default ``os.environ``).

        Returns ``None`` when no injection is configured.  Malformed
        entries are ignored rather than crashing the worker — a fault
        injector that faults by accident proves nothing.
        """
        env = os.environ if environ is None else environ
        spec = (env.get(FAULTS_ENV_VAR) or "").strip()
        if not spec:
            return None
        rates: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part or "=" not in part:
                continue
            kind, _, raw = part.partition("=")
            kind = kind.strip().lower()
            if kind not in FAULT_KINDS:
                continue
            try:
                rate = float(raw)
            except ValueError:
                continue
            rates[kind] = min(1.0, max(0.0, rate))
        if not any(rates.values()):
            return None
        try:
            attempts = max(1, int(env.get(ATTEMPTS_ENV_VAR, "1")))
        except ValueError:
            attempts = 1
        try:
            hang_s = max(0.0, float(env.get(HANG_ENV_VAR, "3600")))
        except ValueError:
            hang_s = 3600.0
        return cls(rates=dict(rates), seed=env.get(SEED_ENV_VAR, "0"),
                   attempts=attempts, hang_s=hang_s)

    def decide(self, digest: str, system: str) -> Optional[str]:
        """Injector kind afflicting ``(digest, system)``, or ``None``.

        The decision hashes ``seed|digest|system`` into a uniform value
        in ``[0, 1)`` and walks the kinds in declaration order over
        cumulative rate buckets — deterministic, independent of attempt
        number, worker identity and submission order.
        """
        h = hashlib.blake2b(f"{self.seed}|{digest}|{system}".encode(),
                            digest_size=8)
        u = int.from_bytes(h.digest(), "big") / 2.0 ** 64
        cum = 0.0
        for kind in FAULT_KINDS:
            cum += self.rates.get(kind, 0.0)
            if u < cum:
                return kind
        return None

    def fault_for(self, digest: str, system: str,
                  attempt: int) -> Optional[str]:
        """The fault to inject for this attempt, or ``None`` to run clean."""
        if attempt >= self.attempts:
            return None
        return self.decide(digest, system)


def inject_from_env(digest: str, system: str, attempt: int) -> None:
    """Execute the configured injector for this run, if any.

    Called at the top of the worker entry points.  ``crash`` terminates
    the worker process immediately (``os._exit``, bypassing cleanup — a
    faithful stand-in for OOM kills and segfaults), ``hang`` sleeps for
    the configured duration, ``error`` raises :class:`InjectedFault`.
    """
    plan = FaultPlan.from_env()
    if plan is None:
        return
    kind = plan.fault_for(digest, system, attempt)
    if kind is None:
        return
    if kind == "crash":
        os._exit(99)
    if kind == "hang":
        deadline = time.monotonic() + plan.hang_s
        while time.monotonic() < deadline:
            time.sleep(min(0.2, plan.hang_s))
        return
    raise InjectedFault(
        f"injected fault for {system} run {digest[:12]} (attempt {attempt})")
