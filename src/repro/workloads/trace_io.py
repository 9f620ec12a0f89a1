"""Saving and loading workload traces as ``.npz`` archives.

The synthetic trace generators are deterministic given (spec, machine,
scale, seed), but regenerating large traces for every system in a sweep
wastes time, and users who want to drive the simulator with *real*
application traces (e.g. converted from a PIN/valgrind tool) need a
storage format.  Traces are stored as a single ``.npz`` archive:

* per-phase, per-processor block-id and write-flag arrays (the bulk of the
  data, stored as compressed numpy arrays), and
* a JSON metadata blob with the trace name, processor count, phase names,
  compute costs and any extra metadata the generator attached.

Round-tripping preserves the reference streams exactly, so a loaded trace
produces bit-identical simulation results.

Parallel sweeps do not use this format: they ship traces to pool workers
as mmap-able trace files (:mod:`repro.workloads.tracefile`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.workloads.trace import PhaseTrace, Trace

#: Format version written into every archive (bump on incompatible change).
FORMAT_VERSION = 1


def save_trace(trace: Trace, path: Union[str, Path], *, compress: bool = True) -> Path:
    """Write ``trace`` to ``path`` as a ``.npz`` archive; returns the path.

    The archive is written to a pid-suffixed temporary name in the same
    directory and atomically renamed into place (``os.replace``), so a
    crash mid-write can never leave a torn file under ``path`` — readers
    (and sweep resume) either see the previous contents or the complete
    new archive.
    """
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    phase_meta: List[Dict[str, object]] = []
    for pi, phase in enumerate(trace.phases):
        phase_meta.append({
            "name": phase.name,
            "compute_per_access": phase.compute_per_access,
            "num_procs": phase.num_procs,
        })
        for p, (blocks, writes) in enumerate(zip(phase.blocks, phase.writes)):
            arrays[f"phase{pi}_proc{p}_blocks"] = np.asarray(blocks, dtype=np.int64)
            arrays[f"phase{pi}_proc{p}_writes"] = np.asarray(writes, dtype=np.uint8)

    header = {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "num_procs": trace.num_procs,
        "phases": phase_meta,
        "metadata": _jsonable(trace.metadata),
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8).copy()

    saver = np.savez_compressed if compress else np.savez
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            saver(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path) as archive:
        if "header" not in archive:
            raise ValueError(f"{path} is not a repro trace archive (no header)")
        header = json.loads(bytes(archive["header"].tolist()).decode("utf-8"))
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})")

        phases: List[PhaseTrace] = []
        for pi, meta in enumerate(header["phases"]):
            num_procs = int(meta["num_procs"])
            blocks = [archive[f"phase{pi}_proc{p}_blocks"] for p in range(num_procs)]
            writes = [archive[f"phase{pi}_proc{p}_writes"] for p in range(num_procs)]
            phases.append(PhaseTrace(
                name=str(meta["name"]),
                compute_per_access=int(meta["compute_per_access"]),
                blocks=blocks,
                writes=writes,
            ))

    return Trace(
        name=str(header["name"]),
        num_procs=int(header["num_procs"]),
        phases=phases,
        metadata=dict(header.get("metadata") or {}),
    )


def traces_equal(a: Trace, b: Trace) -> bool:
    """True when two traces have identical streams (used by round-trip tests)."""
    if a.name != b.name or a.num_procs != b.num_procs:
        return False
    if len(a.phases) != len(b.phases):
        return False
    for pa, pb in zip(a.phases, b.phases):
        if pa.name != pb.name or pa.compute_per_access != pb.compute_per_access:
            return False
        if pa.num_procs != pb.num_procs:
            return False
        for ba, bb in zip(pa.blocks, pb.blocks):
            if not np.array_equal(np.asarray(ba), np.asarray(bb)):
                return False
        for wa, wb in zip(pa.writes, pb.writes):
            if not np.array_equal(np.asarray(wa).astype(bool),
                                  np.asarray(wb).astype(bool)):
                return False
    return True


def _jsonable(value: object) -> object:
    """Best-effort conversion of metadata values into JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
