"""Per-block directory state kept at each block's home node.

The cluster device of every node maintains a directory recording, for each
block whose page is homed on that node, which nodes hold a cached copy and
whether one of them holds it exclusively (Figure 2 of the paper).  The
simulator uses the directory for three things:

1. deciding how many sharers must be invalidated when a node writes a
   block (and charging the invalidation latency),
2. lazily invalidating cached copies: every write bumps the block's global
   *version*, and caches that recorded an older version treat their copy as
   stale on the next access, and
3. classifying misses at the home: a node re-requesting a block it lost to
   an invalidation incurs a *coherence* miss, while one re-requesting a
   block it evicted incurs a *capacity/conflict* miss (the quantity both
   MigRep's and R-NUMA's counters observe).

Storage layout
--------------
Directory state is stored as flat parallel arrays indexed by global block
id — a sharer-bitmask column (node ``i`` → bit ``i``), an owner column and
a version column, plus a ``tracked`` byte per block distinguishing "never
referenced" from "referenced with default state".  The columns are
buffer-backed (``array('Q')``/``array('q')``/``bytearray``) so the
compiled residual kernel can view them as contiguous numpy arrays with no
copies, while scalar indexing keeps working for the interpreted paths.
The arrays grow lazily (and always *in place*, so pre-bound aliases held
by the protocol stay valid) as larger block ids
appear; growth while a buffer view is exported raises ``BufferError``,
which doubles as a guard that the engines pre-reserve correctly.  All
hot-path set algebra is O(1) integer arithmetic on a scalar element;
there is no per-block object allocation anywhere.

The directory also hosts the per-node *departure* codes (one byte per
(node, block): 0 never departed, 1 evicted, 2 invalidated) that the
protocol layer uses for miss classification — they are indexed by block
and must grow in lockstep with the columns, so :meth:`reserve` owns them.

:class:`DirectoryEntry` remains as a lightweight *view* onto one block's
columns so existing ``entry()``/``peek()`` callers keep working.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

#: Initial number of block slots allocated on first use.
_MIN_RESERVE = 1024


class DirectoryEntry:
    """View of the directory state for a single block.

    Attributes (all properties backed by the directory's flat arrays)
    ----------
    sharers:
        Bitmask of nodes holding a (possibly stale-tracked) cached copy.
    owner:
        Node holding the block exclusively/dirty, or -1 when the home
        memory is the owner.
    version:
        Monotonically increasing write version.  Caches record the version
        at fill time; a copy with an older version is stale.
    """

    __slots__ = ("_dir", "_block")

    def __init__(self, directory: "Directory", block: int) -> None:
        self._dir = directory
        self._block = block

    @property
    def sharers(self) -> int:
        return self._dir._sharers[self._block]

    @sharers.setter
    def sharers(self, value: int) -> None:
        self._dir._sharers[self._block] = value

    @property
    def owner(self) -> int:
        return self._dir._owner[self._block]

    @owner.setter
    def owner(self, value: int) -> None:
        self._dir._owner[self._block] = value

    @property
    def version(self) -> int:
        return self._dir._version[self._block]

    @version.setter
    def version(self, value: int) -> None:
        self._dir._version[self._block] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DirectoryEntry(block={self._block}, sharers={self.sharers:#x},"
                f" owner={self.owner}, version={self.version})")


class Directory:
    """Directory for all blocks homed across the cluster.

    A single object serves the whole machine; array slots are created
    lazily on first reference.  State is keyed by global block id, so a
    page migration (which changes the *home node*, not the block identity)
    does not need to move directory state — matching the simulator's use
    of the directory purely for sharer tracking and version-based
    invalidation.
    """

    __slots__ = ("num_nodes", "_sharers", "_owner", "_version", "_tracked",
                 "_departed", "_views", "invalidations_sent", "writebacks")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if num_nodes > 64:
            raise ValueError("bitmask sharer sets support at most 64 nodes")
        self.num_nodes = num_nodes
        self._sharers = array("Q")
        self._owner = array("q")
        self._version = array("q")
        self._tracked = bytearray()
        # per-node departure-reason byte per block (see module docstring);
        # owned here so reserve() grows it in lockstep with the columns
        self._departed: List[bytearray] = [bytearray()
                                           for _ in range(num_nodes)]
        # entry()/peek() view objects, one per block, created on demand so
        # repeated calls return the same object (callers may hold them)
        self._views: dict[int, DirectoryEntry] = {}
        self.invalidations_sent = 0
        self.writebacks = 0

    # -- storage management -------------------------------------------------------

    def reserve(self, n: int) -> None:
        """Grow the arrays (in place) to cover block ids ``< n``.

        Growth is geometric so a stream of increasing block ids costs
        amortised O(1) per block.  Existing list/bytearray objects are
        extended, never replaced: aliases pre-bound by the protocol layer
        remain valid across growth.
        """
        cap = len(self._sharers)
        if n <= cap:
            return
        grow = max(n, 2 * cap, _MIN_RESERVE) - cap
        self._sharers.frombytes(bytes(8 * grow))
        # -1 as little-endian two's-complement int64 is all-ones bytes
        self._owner.frombytes(b"\xff" * (8 * grow))
        self._version.frombytes(bytes(8 * grow))
        self._tracked += bytes(grow)
        zeros = bytes(grow)
        for dep in self._departed:
            dep += zeros

    # -- entry access ------------------------------------------------------------

    def entry(self, block: int) -> DirectoryEntry:
        """Return (creating if needed) a view of the entry for ``block``."""
        if block >= len(self._sharers):
            self.reserve(block + 1)
        self._tracked[block] = 1
        view = self._views.get(block)
        if view is None:
            view = DirectoryEntry(self, block)
            self._views[block] = view
        return view

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """Return a view of the entry for ``block`` without creating it."""
        if block < len(self._sharers) and self._tracked[block]:
            return self.entry(block)
        return None

    def version(self, block: int) -> int:
        """Current write version of ``block`` (0 if never written)."""
        v = self._version
        return v[block] if block < len(v) else 0

    # -- protocol actions -----------------------------------------------------------

    def record_read(self, block: int, node: int) -> None:
        """Add ``node`` to the sharer set after a read fill."""
        self._check_node(node)
        if block >= len(self._sharers):
            self.reserve(block + 1)
        self._tracked[block] = 1
        self._sharers[block] |= 1 << node

    def record_write(self, block: int, node: int) -> Tuple[int, int]:
        """Perform the directory side of a write by ``node``.

        Returns ``(invalidations, new_version)`` where ``invalidations`` is
        the number of *other* nodes that held a copy and must be
        invalidated.  The sharer set collapses to the writer, the writer
        becomes owner, and the version is bumped so lazily-tracked copies
        elsewhere become stale.
        """
        self._check_node(node)
        sharers = self._sharers
        if block >= len(sharers):
            self.reserve(block + 1)
        self._tracked[block] = 1
        bit = 1 << node
        others = sharers[block] & ~bit
        invalidations = others.bit_count()
        owner = self._owner
        if owner[block] >= 0 and owner[block] != node:
            # previous exclusive owner must write back before we proceed
            self.writebacks += 1
        sharers[block] = bit
        owner[block] = node
        version = self._version[block] + 1
        self._version[block] = version
        self.invalidations_sent += invalidations
        return invalidations, version

    def record_eviction(self, block: int, node: int) -> None:
        """Remove ``node`` from the sharer set after it evicts the block."""
        self._check_node(node)
        if block >= len(self._sharers) or not self._tracked[block]:
            return
        self._sharers[block] &= ~(1 << node)
        if self._owner[block] == node:
            self._owner[block] = -1
            self.writebacks += 1

    def drop_node_from_page(self, blocks: range, node: int) -> int:
        """Remove ``node`` from the sharer sets of every block of a page.

        Used when a page is flushed from a node (migration gathering or
        R-NUMA relocation/eviction).  Returns the number of blocks the node
        actually shared.
        """
        self._check_node(node)
        sharers = self._sharers
        owner = self._owner
        cap = len(sharers)
        bit = 1 << node
        mask = ~bit
        dropped = 0
        for block in blocks:
            if block >= cap:
                break
            s = sharers[block]
            if s & bit:
                dropped += 1
                sharers[block] = s & mask
            if owner[block] == node:
                owner[block] = -1
                self.writebacks += 1
        return dropped

    # -- queries -----------------------------------------------------------------------

    def sharers_of(self, block: int) -> List[int]:
        """List of node ids currently sharing ``block``."""
        sharers = self._sharers
        if block >= len(sharers):
            return []
        s = sharers[block]
        return [n for n in range(self.num_nodes) if s & (1 << n)]

    def sharing_degree(self, block: int) -> int:
        """Number of nodes sharing ``block``."""
        sharers = self._sharers
        return sharers[block].bit_count() if block < len(sharers) else 0

    def is_shared_by(self, block: int, node: int) -> bool:
        """True if ``node`` is recorded as a sharer of ``block``."""
        self._check_node(node)
        sharers = self._sharers
        return block < len(sharers) and bool(sharers[block] & (1 << node))

    def page_sharer_mask(self, blocks: range) -> int:
        """Union of the sharer bitmasks over every block of a page.

        The page-operation paths (gathering for migration/replication)
        scan a whole page's directory state at once; a single pass over
        the flat sharer array avoids a per-block entry lookup.
        """
        sharers = self._sharers
        cap = len(sharers)
        mask = 0
        for block in blocks:
            if block >= cap:
                break
            mask |= sharers[block]
        return mask

    def page_sharing_degree(self, blocks: range) -> int:
        """Number of distinct nodes sharing any block of a page."""
        return self.page_sharer_mask(blocks).bit_count()

    def tracked_blocks(self) -> Iterator[int]:
        """Iterate over block ids that have directory state."""
        return (block for block, t in enumerate(self._tracked) if t)

    def num_tracked(self) -> int:
        """Number of blocks with directory state."""
        return sum(self._tracked)

    # -- helpers -------------------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
