"""Per-node SRAM block cache (the CC-NUMA "cluster cache" / "remote cache").

In the base CC-NUMA machine (Figure 2 of the paper) every node's cluster
device contains a small, fast SRAM cache of recently referenced *remote*
blocks.  Cache fills that miss in the processor caches but hit here are
served at local-miss latency; misses invoke the DSM protocol and pay the
remote round trip.

The paper sizes this cache at the sum of the node's processor caches
(64 KB for a four-processor node) and uses it only for remote data — local
(home) pages are served from the node's main memory.  ``capacity_blocks``
may be ``None`` to model the *perfect* CC-NUMA used as the normalisation
baseline (an infinite block cache never suffers capacity/conflict misses).

Storage layout
--------------
Every cache stores its frames as flat parallel buffer-backed arrays
indexed by frame number — ``_blocks`` (cached block id, -1 when empty) and
``_versions`` as ``array('q')``, ``_dirty`` as a ``bytearray`` — exactly
the layout the protocol layer's inlined lookup/fill paths index directly,
and one the compiled residual kernel can view as contiguous numpy arrays
without copying.

A finite cache is direct-mapped: block ``b`` lives in frame
``b % capacity_blocks``.  The infinite cache is *identity-mapped*: block
``b`` lives in frame ``b``, so no two blocks ever share a frame and
nothing is evicted.  Its arrays start empty and grow in place to cover
the block ids seen — a :meth:`fill` past the end grows them, and the
kernel engine pre-grows them (:meth:`reserve`) to whole pages past each
phase's largest block.  Block ids are dense (the directory is indexed
the same way), so the arrays cost a few bytes per block of the trace.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Tuple

from repro.mem.cache import CacheStats

#: smallest growth step of an identity-mapped cache, in frames
_MIN_RESERVE = 1024


class BlockCache:
    """Direct-mapped (or infinite, identity-mapped) cache of remote blocks.

    Parameters
    ----------
    capacity_blocks:
        Number of block frames, or ``None`` for an infinite cache
        (perfect CC-NUMA).
    """

    __slots__ = ("capacity_blocks", "_blocks", "_versions", "_dirty",
                 "stats")

    def __init__(self, capacity_blocks: Optional[int]) -> None:
        if capacity_blocks is not None and capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive or None")
        self.capacity_blocks = capacity_blocks
        frames = capacity_blocks or 0
        self._blocks = array("q", b"\xff" * (8 * frames))
        self._versions = array("q", bytes(8 * frames))
        self._dirty = bytearray(frames)
        self.stats = CacheStats()

    def _frame(self, block: int) -> int:
        """Frame that can hold ``block``, or -1 past an infinite cache's end."""
        if self.capacity_blocks is not None:
            return block % self.capacity_blocks
        return block if block < len(self._blocks) else -1

    def reserve(self, num_blocks: int) -> None:
        """Grow an infinite cache (in place) to cover block ids ``< num_blocks``.

        Growth is geometric, and the arrays are extended rather than
        replaced, so aliases pre-bound by the protocol layer stay valid.
        A no-op for finite caches.
        """
        frames = len(self._blocks)
        if self.capacity_blocks is not None or num_blocks <= frames:
            return
        grow = max(num_blocks, 2 * frames, _MIN_RESERVE) - frames
        self._blocks.frombytes(b"\xff" * (8 * grow))
        self._versions.frombytes(bytes(8 * grow))
        self._dirty += bytes(grow)

    # -- core operations --------------------------------------------------------

    def lookup(self, block: int, version: int) -> bool:
        """Return True if ``block`` is present and not stale.

        Stale entries (version older than the directory's current version)
        are invalidated and reported as misses, mirroring the lazy
        invalidation scheme of the processor caches.
        """
        idx = self._frame(block)
        if idx >= 0 and self._blocks[idx] == block:
            if self._versions[idx] >= version:
                self.stats.hits += 1
                return True
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
        self.stats.misses += 1
        return False

    def fill(self, block: int, version: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``block``; return the evicted ``(block, dirty)`` if any."""
        if self.capacity_blocks is None:
            self.reserve(block + 1)
        idx = self._frame(block)
        victim: Optional[Tuple[int, bool]] = None
        old = self._blocks[idx]
        if old >= 0 and old != block:
            victim = (old, bool(self._dirty[idx]))
            self.stats.evictions += 1
        self._blocks[idx] = block
        self._versions[idx] = version
        self._dirty[idx] = dirty
        return victim

    def touch_write(self, block: int, version: int) -> None:
        """Record a write to a resident block (marks it dirty)."""
        idx = self._frame(block)
        if idx >= 0 and self._blocks[idx] == block:
            if version > self._versions[idx]:
                self._versions[idx] = version
            self._dirty[idx] = True

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; return True if it was present."""
        idx = self._frame(block)
        if idx >= 0 and self._blocks[idx] == block:
            self._blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_page(self, blocks: range) -> int:
        """Invalidate every resident block of a page; return how many were dropped."""
        dropped = 0
        for block in blocks:
            if self.invalidate(block):
                dropped += 1
        return dropped

    # -- inspection ---------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (any version)."""
        idx = self._frame(block)
        return idx >= 0 and self._blocks[idx] == block

    def is_dirty(self, block: int) -> bool:
        """True if ``block`` is resident and dirty."""
        idx = self._frame(block)
        return idx >= 0 and self._blocks[idx] == block and bool(self._dirty[idx])

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over resident block ids."""
        for block in self._blocks:
            if block >= 0:
                yield block

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(1 for block in self._blocks if block >= 0)

    @property
    def is_infinite(self) -> bool:
        """True for the perfect-CC-NUMA infinite cache."""
        return self.capacity_blocks is None

    def clear(self) -> None:
        """Drop all blocks (statistics preserved)."""
        for i in range(len(self._blocks)):
            self._blocks[i] = -1
            self._versions[i] = 0
            self._dirty[i] = False
