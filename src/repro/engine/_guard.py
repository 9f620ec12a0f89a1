"""Run-scoped guards of the kernel engine.

The kernel pauses the garbage collector for the duration of a run (the
driver allocates bursts of small objects that survive exactly one
phase — the worst case for generational collection), arms the L1
caches' ``watch``/``fill_watch`` hooks so out-of-band line drops and
fills during bail-time protocol calls demote the engine's
pre-classified fast references, and holds zero-copy views of the
simulator's stores, which export-lock their buffers.  No effect may
outlive the run: a leaked GC pause slows everything after the run,
leaked hooks corrupt the next run (or user code) touching the same
caches, and a leaked view makes every later growth of its store raise
``BufferError``.

:func:`engine_run_guard` owns that save/arm/restore dance in one place so
an exception anywhere in the phase loop cannot leak any effect.

:func:`backend_crash_guard` wraps the engine's calls into the compiled C
walk: an exception escaping it — a marshalling bug, a broken C build —
is re-raised as :class:`KernelBackendError`, which
:func:`repro.engine.kernel.run_kernel` catches to re-run the trace on
the legacy interpreter from a pristine machine (the crashed walk may
have half-mutated the array stores), with the crash surfaced as the
run's ``fallback_reason``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence


class KernelBackendError(RuntimeError):
    """The compiled kernel crashed mid-run.

    Carries the backend name and the original exception (as
    ``__cause__``); the message is the user-facing fallback reason.
    """

    def __init__(self, backend: str, original: BaseException) -> None:
        super().__init__(
            f"kernel backend {backend!r} crashed: "
            f"{type(original).__name__}: {original}")
        self.backend = backend
        self.original = original


@contextmanager
def backend_crash_guard(backend: str) -> Iterator[None]:
    """Translate exceptions escaping a compiled backend call.

    Anything raised inside the block (except an already-translated
    :class:`KernelBackendError`) is chained into a
    :class:`KernelBackendError` so the kernel driver can distinguish
    "the backend broke" (recoverable by legacy fallback) from "the
    simulation is invalid" (a driver/protocol exception raised outside
    the guarded backend call, which propagates normally).
    """
    try:
        yield
    except KernelBackendError:
        raise
    except Exception as exc:
        raise KernelBackendError(backend, exc) from exc


@contextmanager
def engine_run_guard(caches: Sequence,
                     hooks: Sequence[Optional[Callable[[int], None]]],
                     release: Callable[[], None],
                     ) -> Iterator[None]:
    """Pause the GC and arm per-cache shootdown hooks for one kernel run.

    ``hooks`` provides, per cache, the callable to install as both
    ``watch`` and ``fill_watch`` (``None`` leaves that cache's hooks
    untouched).  On exit — normal or exceptional — ``release`` drops the
    run's store views, the original hooks are restored and the GC is
    re-enabled iff it was enabled on entry.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    saved = [(c.watch, c.fill_watch) for c in caches]
    for c, hook in zip(caches, hooks):
        if hook is not None:
            c.watch = hook
            c.fill_watch = hook
    try:
        yield
    finally:
        release()
        if gc_was_enabled:
            gc.enable()
        for c, (watch, fill_watch) in zip(caches, saved):
            c.watch = watch
            c.fill_watch = fill_watch
