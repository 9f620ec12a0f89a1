"""On-demand build and binding of the kernel's C walk.

``cwalk.c`` needs no Python headers — it is a single translation unit of
plain C99 operating on raw array pointers — so any C compiler can build
it: ``cc -O2 -shared -fPIC`` and nothing else.  The shared object is
cached next to the package (or under ``$REPRO_KERNEL_CACHE`` / the
system temp dir when the package directory is read-only) keyed by a hash
of the source, the resolved compiler path and the flags, so each
(source, toolchain) pair compiles at most once per machine — and a
changed or vanished compiler never loads an object it did not build.

Everything degrades gracefully: no compiler, a failed compile or a
failed ``dlopen`` all yield ``None`` from :func:`load_cwalk` and the
kernel engine falls back to the legacy interpreter.  Set
``REPRO_KERNEL_CC`` (or the conventional ``CC``) to pick a specific
compiler; an override that does not resolve disables the build.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

_SOURCE = Path(__file__).with_name("cwalk.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
_N_ARGS = 45

_loaded = False
_caller: Optional[Callable] = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    path = _SOURCE.parent / "_build"
    try:
        path.mkdir(exist_ok=True)
        probe = path / ".writable"
        probe.touch()
        probe.unlink()
        return path
    except OSError:
        pass  # read-only install: fall through to the temp dir
    path = Path(tempfile.gettempdir()) / f"repro-kernel-{os.getuid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _compiler() -> Optional[str]:
    """Path of the compiler to build with, or ``None``."""
    # an explicit override is authoritative: if it does not resolve, the
    # build is off — never silently substitute a different compiler
    override = os.environ.get("REPRO_KERNEL_CC")
    if override is not None:
        return shutil.which(override)
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = cand and shutil.which(cand)
        if path:
            return path
    return None


def _build() -> Optional[ctypes.CDLL]:
    cc = _compiler()
    if cc is None:
        return None
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    # the resolved compiler binary and the flags are part of the key: a
    # changed toolchain rebuilds instead of loading a stale object
    key = hashlib.sha256(source)
    key.update("\0".join((os.path.realpath(cc),) + _FLAGS).encode())
    try:
        cache = _cache_dir()
    except OSError:
        return None
    so_path = cache / f"cwalk-{key.hexdigest()[:16]}.so"
    if not so_path.exists():
        tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
        cmd = [cc, *_FLAGS, "-o", str(tmp), str(_SOURCE)]
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=120)
            if proc.returncode != 0:
                return None
            os.replace(tmp, so_path)   # atomic: concurrent builds race safely
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
    try:
        return ctypes.CDLL(str(so_path))
    except OSError:
        return None


def load_cwalk() -> Optional[Callable]:
    """The C walk as ``bind(args) -> runner``, or ``None`` if unbuildable.

    ``args`` is the argument tuple of ``repro_kernel_walk`` in
    ``cwalk.c`` (array arguments, and lists of per-processor or
    per-node arrays passed as pointer tables).  ``bind`` flattens the
    list-of-array arguments into pointer tables once per set of store
    views — once per run unless a phase outgrows the stores — and
    ``runner() -> rc`` enters or re-enters the walk, in any phase.
    Per-phase inputs reach the walk through the ``phase`` pointer table
    the driver re-points in place.  Only the demoted-queue arrays (the
    last two arguments) can be replaced between entries, so the runner
    refreshes exactly those table slots whose array object changed —
    everything else keeps its bind-time pointer.
    """
    global _loaded, _caller
    if _loaded:
        return _caller
    _loaded = True
    lib = _build()
    if lib is None:
        return None
    try:
        fn = lib.repro_kernel_walk
    except AttributeError:
        return None
    fn.argtypes = [ctypes.c_void_p] * _N_ARGS
    fn.restype = ctypes.c_int64

    def bind(args) -> Callable[[], int]:
        if len(args) != _N_ARGS:  # pragma: no cover - internal contract
            raise ValueError("kernel walk argument count mismatch")
        c_args = []
        tables = []   # kept alive by the runner
        for a in args:
            if isinstance(a, list):
                tab = np.fromiter((x.ctypes.data for x in a),
                                  dtype=np.uint64, count=len(a))
                tables.append(tab)
                c_args.append(tab.ctypes.data)
            else:
                c_args.append(a.ctypes.data)
        q_idx, q_blk = args[-2], args[-1]
        qi_tab, qb_tab = tables[-2], tables[-1]
        seen = list(q_idx)   # holding the refs makes `is` checks sound

        def runner() -> int:
            for j, arr in enumerate(q_idx):
                if seen[j] is not arr:
                    seen[j] = arr
                    qi_tab[j] = arr.ctypes.data
                    qb_tab[j] = q_blk[j].ctypes.data
            return fn(*c_args)

        # the raw pointers in c_args are only valid while the tables and
        # argument arrays are alive — pin them to the runner's lifetime
        runner.keepalive = (args, tables)
        return runner

    _caller = bind
    return _caller
