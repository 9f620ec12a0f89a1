"""Trace containers consumed by the simulator.

A :class:`Trace` is the unit of work a :class:`repro.cluster.machine.Machine`
runs: a list of phases, each carrying one block-reference stream per
processor.  Streams are stored as numpy arrays (compact, picklable, easy
to generate vectorised) and normalized to canonical dtypes — ``int64``
block ids, ``bool`` write flags — once, at construction.  The kernel
engine's classifier consumes the arrays directly (no per-phase
conversion); only the legacy reference interpreter materializes python
lists for its scalar stepping loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


def _normalize_stream(arr, dtype: np.dtype) -> np.ndarray:
    """Return ``arr`` as a C-contiguous array of ``dtype``.

    Already-normalized plain ndarrays are returned *unchanged* (same
    object, no copy, no view wrapper): streaming trace readers construct
    many short-lived :class:`PhaseTrace` objects around mmap-backed
    views, and re-wrapping every stream would defeat zero-copy dispatch
    (each wrap is a new object over the same mapped bytes).  Anything else (wrong dtype, non-contiguous, subclasses like
    ``np.memmap``, plain lists) goes through ``np.ascontiguousarray``.
    """
    if (type(arr) is np.ndarray and arr.dtype == dtype
            and arr.flags.c_contiguous):
        return arr
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass
class PhaseTrace:
    """One phase of a workload: per-processor reference streams.

    Attributes
    ----------
    name:
        Phase name (for reports).
    compute_per_access:
        Cycles of computation charged before every reference in this phase.
    blocks:
        ``blocks[p]`` is the array of global block ids referenced by
        processor ``p`` in program order.
    writes:
        ``writes[p]`` has the same shape; non-zero entries mark writes.
    """

    name: str
    compute_per_access: int
    blocks: List[np.ndarray]
    writes: List[np.ndarray]

    def __post_init__(self) -> None:
        if self.compute_per_access < 0:
            raise ValueError("compute_per_access must be non-negative")
        if len(self.blocks) != len(self.writes):
            raise ValueError("blocks and writes must have one stream per processor")
        # Normalize the streams to canonical dtypes once, here, so every
        # downstream consumer (classifier, engines, digests, trace I/O)
        # can rely on them without re-wrapping: int64 block ids, bool
        # write flags, both C-contiguous.  Inputs that already satisfy
        # the contract pass through untouched (no copy).
        self.blocks = [_normalize_stream(b, np.dtype(np.int64))
                       for b in self.blocks]
        self.writes = [_normalize_stream(w, np.dtype(np.bool_))
                       for w in self.writes]
        for b, w in zip(self.blocks, self.writes):
            if len(b) != len(w):
                raise ValueError("each processor's blocks/writes must be equal length")

    @property
    def num_procs(self) -> int:
        """Number of processor streams in this phase."""
        return len(self.blocks)

    def accesses(self) -> int:
        """Total references in this phase across all processors."""
        return int(sum(len(b) for b in self.blocks))

    def write_fraction(self) -> float:
        """Fraction of references that are writes."""
        total = self.accesses()
        if total == 0:
            return 0.0
        writes = int(sum(int(np.count_nonzero(w)) for w in self.writes))
        return writes / total


@dataclass
class Trace:
    """A complete workload trace: an ordered list of phases."""

    name: str
    num_procs: int
    phases: List[PhaseTrace]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_procs <= 0:
            raise ValueError("num_procs must be positive")
        for phase in self.phases:
            if phase.num_procs != self.num_procs:
                raise ValueError(
                    f"phase {phase.name!r} has {phase.num_procs} streams, "
                    f"expected {self.num_procs}")

    def total_accesses(self) -> int:
        """Total references across every phase and processor."""
        return sum(phase.accesses() for phase in self.phases)

    def touched_pages(self, blocks_per_page: int) -> int:
        """Number of distinct pages referenced anywhere in the trace."""
        pages: set[int] = set()
        for phase in self.phases:
            for arr in phase.blocks:
                if len(arr):
                    pages.update(np.unique(np.asarray(arr) // blocks_per_page).tolist())
        return len(pages)

    def touched_blocks(self) -> int:
        """Number of distinct blocks referenced anywhere in the trace."""
        blocks: set[int] = set()
        for phase in self.phases:
            for arr in phase.blocks:
                if len(arr):
                    blocks.update(np.unique(np.asarray(arr)).tolist())
        return len(blocks)

    def summary(self) -> Dict[str, object]:
        """Small dictionary of headline numbers (for reports and tests)."""
        return {
            "name": self.name,
            "num_procs": self.num_procs,
            "phases": len(self.phases),
            "accesses": self.total_accesses(),
            "distinct_blocks": self.touched_blocks(),
        }
