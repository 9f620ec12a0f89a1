"""Generic cache models used for the per-processor caches.

The paper's processors have 16 KB direct-mapped data caches with the
coherence block as the line size.  The simulator's hot loop performs one
cache lookup per trace reference, so the implementation favours flat
buffer-backed arrays (``array('q')``/``bytearray`` — scalar indexing is
as cheap as lists, and the compiled residual kernel can view them as
numpy arrays without copying) and keeps each operation allocation-free.

Two classes are provided:

* :class:`DirectMappedCache` — the configuration used in the paper; the
  simulator core uses it directly.
* :class:`SetAssociativeCache` — an LRU set-associative generalisation used
  by tests, ablation benchmarks and anyone extending the model.

Both caches store, per line, the cached *block id* and the block *version*
at fill time.  Versions implement cross-node invalidation lazily: the
directory bumps a block's version on every remote write, and a cached copy
whose version is stale counts as a coherence miss (see
:mod:`repro.mem.directory`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters maintained by the cache models."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss rate in [0, 1]; zero when no accesses were made."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


#: probe() outcome codes (module-level ints keep the hot loop cheap)
PROBE_MISS = 0
PROBE_READ_HIT = 1
PROBE_WRITE_HIT_OWNED = 2
PROBE_WRITE_HIT_SHARED = 3


class DirectMappedCache:
    """A direct-mapped cache of coherence blocks.

    Parameters
    ----------
    num_lines:
        Number of block frames (capacity / block size).
    """

    __slots__ = ("num_lines", "_blocks", "_versions", "_dirty", "stats",
                 "watch", "fill_watch")

    def __init__(self, num_lines: int) -> None:
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        self.num_lines = num_lines
        # buffer-backed frame arrays: scalar indexing stays as cheap as
        # lists for the interpreted engines while the compiled residual
        # kernel can view them as contiguous numpy arrays without copying
        self._blocks = array("q", b"\xff" * (8 * num_lines))
        self._versions = array("q", bytes(8 * num_lines))
        self._dirty = bytearray(num_lines)
        self.stats = CacheStats()
        #: optional callback fired whenever a line is dropped from
        #: *outside* the probe/fill path (page-operation shootdowns).  It
        #: receives the affected block id, or ``-1`` when every line was
        #: dropped (:meth:`clear`), so the kernel engine can invalidate
        #: its hit pre-classification for exactly the affected cache set.
        self.watch: Optional[Callable[[int], None]] = None
        #: mirror-image fill notification: fired (with the installed
        #: block id) whenever :meth:`fill` installs a line while the hook
        #: is armed.  The kernel engine performs its own fills (which
        #: never fire this), so an armed ``fill_watch`` only observes
        #: *out-of-band* fills by protocol or user code — which evict
        #: whatever the engine's classifier assumed resident in that set,
        #: and therefore demote exactly like a shootdown.  ``None`` (the
        #: default) costs the reference interpreter one attribute test
        #: per miss.
        self.fill_watch: Optional[Callable[[int], None]] = None

    # -- core operations -----------------------------------------------------

    def probe(self, block: int, version: int, is_write: bool) -> int:
        """Single-call fast path used by the simulator's hot loop.

        Returns one of the ``PROBE_*`` codes:

        * ``PROBE_MISS`` — absent or stale (stale lines are dropped),
        * ``PROBE_READ_HIT`` — read hit,
        * ``PROBE_WRITE_HIT_OWNED`` — write hit on a line this processor
          already owns dirty (no coherence action needed),
        * ``PROBE_WRITE_HIT_SHARED`` — write hit on a clean line; the
          caller must perform a write upgrade (invalidate other sharers)
          before marking the line dirty with :meth:`touch_write`.
        """
        idx = block % self.num_lines
        if self._blocks[idx] == block:
            if self._versions[idx] >= version:
                self.stats.hits += 1
                if not is_write:
                    return PROBE_READ_HIT
                if self._dirty[idx]:
                    return PROBE_WRITE_HIT_OWNED
                return PROBE_WRITE_HIT_SHARED
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
        self.stats.misses += 1
        return PROBE_MISS

    def lookup(self, block: int, version: int) -> bool:
        """Return True if ``block`` is present with a version >= ``version``.

        A present-but-stale copy is treated as a miss (coherence miss) and
        the line is invalidated so the subsequent fill refreshes it.
        """
        idx = block % self.num_lines
        if self._blocks[idx] == block:
            if self._versions[idx] >= version:
                self.stats.hits += 1
                return True
            # stale copy: drop it so the caller refills
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
        self.stats.misses += 1
        return False

    def fill(self, block: int, version: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``block``; return the evicted ``(block, dirty)`` if any."""
        idx = block % self.num_lines
        victim: Optional[Tuple[int, bool]] = None
        old = self._blocks[idx]
        if old >= 0 and old != block:
            victim = (old, bool(self._dirty[idx]))
            self.stats.evictions += 1
        self._blocks[idx] = block
        self._versions[idx] = version
        self._dirty[idx] = dirty
        if self.fill_watch is not None:
            self.fill_watch(block)
        return victim

    def touch_write(self, block: int, version: int) -> None:
        """Mark ``block`` dirty and record the new version after a write hit."""
        idx = block % self.num_lines
        if self._blocks[idx] == block:
            self._dirty[idx] = True
            if version > self._versions[idx]:
                self._versions[idx] = version

    def invalidate(self, block: int) -> bool:
        """Invalidate ``block`` if present; return True if it was present."""
        idx = block % self.num_lines
        if self._blocks[idx] == block:
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
            if self.watch is not None:
                self.watch(block)
            return True
        return False

    # -- bulk API (used by repro.engine.kernel) ---------------------------------

    def line_state(self) -> Tuple[array, array, bytearray]:
        """The live per-line ``(blocks, versions, dirty)`` stores.

        These are the cache's *internal* mutable buffer-backed arrays
        (``array('q')``, ``array('q')``, ``bytearray``), exposed so the
        kernel engine's classifier can read the phase-start line state and
        the compiled walk can view them as numpy arrays.
        Mutations must preserve the class invariants (a dropped line is
        ``block=-1, dirty=0``) and account statistics through
        :meth:`credit_batch`.
        """
        return self._blocks, self._versions, self._dirty

    def credit_batch(self, *, hits: int = 0, misses: int = 0,
                     evictions: int = 0, invalidations: int = 0) -> None:
        """Bulk statistics credit for accesses resolved outside :meth:`probe`."""
        st = self.stats
        st.hits += hits
        st.misses += misses
        st.evictions += evictions
        st.invalidations += invalidations

    # -- inspection -----------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` currently occupies its frame (any version)."""
        return self._blocks[block % self.num_lines] == block

    def version_of(self, block: int) -> Optional[int]:
        """Version recorded for ``block``, or None if absent."""
        idx = block % self.num_lines
        if self._blocks[idx] == block:
            return self._versions[idx]
        return None

    def is_dirty(self, block: int) -> bool:
        """True if ``block`` is present and dirty."""
        idx = block % self.num_lines
        return self._blocks[idx] == block and bool(self._dirty[idx])

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over the block ids currently resident."""
        for b in self._blocks:
            if b >= 0:
                yield b

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(1 for b in self._blocks if b >= 0)

    def clear(self) -> None:
        """Drop every line (does not touch statistics)."""
        for i in range(self.num_lines):
            self._blocks[i] = -1
            self._versions[i] = 0
            self._dirty[i] = False
        if self.watch is not None:
            self.watch(-1)


class SetAssociativeCache:
    """An LRU set-associative cache of coherence blocks.

    Semantically identical to :class:`DirectMappedCache` (same lazy
    version-based invalidation) but with ``assoc`` ways per set and LRU
    replacement.  ``assoc == 1`` behaves exactly like the direct-mapped
    cache and the property tests assert that equivalence.

    Line state is stored in flat parallel lists (block/version/dirty/
    last-use) indexed by ``set * assoc + way`` — the same array layout the
    other state stores use — rather than per-way objects.
    """

    __slots__ = ("num_sets", "assoc", "_blocks", "_versions", "_dirty",
                 "_last_use", "_clock", "stats")

    def __init__(self, num_lines: int, assoc: int = 2) -> None:
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        if num_lines % assoc:
            raise ValueError("num_lines must be a multiple of assoc")
        self.num_sets = num_lines // assoc
        self.assoc = assoc
        self._blocks: list[int] = [-1] * num_lines
        self._versions: list[int] = [0] * num_lines
        self._dirty: list[bool] = [False] * num_lines
        self._last_use: list[int] = [0] * num_lines
        self._clock = 0
        self.stats = CacheStats()

    def _find(self, block: int) -> int:
        """Line index holding ``block``, or -1 when absent."""
        base = (block % self.num_sets) * self.assoc
        blocks = self._blocks
        for idx in range(base, base + self.assoc):
            if blocks[idx] == block:
                return idx
        return -1

    def probe(self, block: int, version: int, is_write: bool) -> int:
        """Fast-path probe mirroring :meth:`DirectMappedCache.probe`."""
        self._clock += 1
        idx = self._find(block)
        if idx >= 0:
            if self._versions[idx] >= version:
                self._last_use[idx] = self._clock
                self.stats.hits += 1
                if not is_write:
                    return PROBE_READ_HIT
                if self._dirty[idx]:
                    return PROBE_WRITE_HIT_OWNED
                return PROBE_WRITE_HIT_SHARED
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
        self.stats.misses += 1
        return PROBE_MISS

    def lookup(self, block: int, version: int) -> bool:
        """Return True on a fresh hit; stale copies are dropped and miss."""
        self._clock += 1
        idx = self._find(block)
        if idx >= 0:
            if self._versions[idx] >= version:
                self._last_use[idx] = self._clock
                self.stats.hits += 1
                return True
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
        self.stats.misses += 1
        return False

    def fill(self, block: int, version: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``block`` with LRU replacement; return evicted (block, dirty)."""
        self._clock += 1
        idx = self._find(block)
        victim: Optional[Tuple[int, bool]] = None
        if idx < 0:
            # prefer an invalid way, otherwise evict the LRU one
            base = (block % self.num_sets) * self.assoc
            blocks = self._blocks
            last_use = self._last_use
            idx = min(range(base, base + self.assoc),
                      key=lambda i: (blocks[i] >= 0, last_use[i]))
            if blocks[idx] >= 0:
                victim = (blocks[idx], self._dirty[idx])
                self.stats.evictions += 1
        self._blocks[idx] = block
        self._versions[idx] = version
        self._dirty[idx] = dirty
        self._last_use[idx] = self._clock
        return victim

    def touch_write(self, block: int, version: int) -> None:
        """Mark ``block`` dirty after a write hit."""
        idx = self._find(block)
        if idx >= 0:
            self._dirty[idx] = True
            if version > self._versions[idx]:
                self._versions[idx] = version

    def invalidate(self, block: int) -> bool:
        """Invalidate ``block`` if present."""
        idx = self._find(block)
        if idx >= 0:
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
            return True
        return False

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident."""
        return self._find(block) >= 0

    def version_of(self, block: int) -> Optional[int]:
        """Version recorded for ``block`` or None."""
        idx = self._find(block)
        return self._versions[idx] if idx >= 0 else None

    def is_dirty(self, block: int) -> bool:
        """True if ``block`` is resident and dirty."""
        idx = self._find(block)
        return idx >= 0 and self._dirty[idx]

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over resident block ids."""
        for block in self._blocks:
            if block >= 0:
                yield block

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(1 for _ in self.resident_blocks())

    def clear(self) -> None:
        """Drop every line (statistics preserved)."""
        for idx in range(len(self._blocks)):
            self._blocks[idx] = -1
            self._versions[idx] = 0
            self._dirty[idx] = False
            self._last_use[idx] = 0
