"""Global page map with first-touch placement and migration support.

All systems in the paper start from the same "first-touch" placement
policy (Section 2): upon the first request for a page, the page is homed
at the requesting node, on the assumption that the first requester will be
a frequent requester.  Page migration later changes a page's home;
replication leaves the home in place but marks the page as having
read-only copies elsewhere.

The :class:`VirtualMemoryManager` is a machine-global object (conceptually
the cooperating per-node kernels) tracking, per page:

* the current home node,
* whether the page is currently replicated and on which nodes, and
* the migration history (used by the experiments to report page-operation
  counts and by tests to assert policy invariants).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set


@dataclass(slots=True)
class PageRecord:
    """Global (home-side) state of one shared page."""

    page: int
    home: int
    first_toucher: int
    migrations: int = 0
    #: nodes currently holding a read-only replica (excluding the home)
    replicas: Set[int] = field(default_factory=set)
    #: True while the page is in replicated (read-only everywhere) state
    replicated: bool = False


class VirtualMemoryManager:
    """Global page map shared by every node's kernel.

    ``placement`` selects the initial page-placement policy; the default
    (``None``) is the paper's first-touch policy.  Any
    :class:`repro.kernel.placement.PlacementPolicy` (or plain callable
    ``(page, requesting_node) -> home``) may be supplied to run the
    placement ablation.
    """

    __slots__ = ("num_nodes", "_pages", "_home", "_replicated",
                 "_replica_mask", "_placement",
                 "first_touches", "migrations", "replications",
                 "replica_collapses")

    def __init__(self, num_nodes: int, placement=None) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._pages: Dict[int, PageRecord] = {}
        # flat page -> current home array (-1 = never placed), kept in sync
        # with the records; the protocol layer reads it directly on every
        # miss instead of a record-dict lookup.  Grown
        # lazily and in place (aliases stay valid).  Buffer-backed so the
        # compiled residual kernel can view it without copying; the two
        # companion columns mirror PageRecord.replicated / .replicas as a
        # flag byte and a node bitmask for the same reason.
        self._home = array("q")
        self._replicated = bytearray()
        self._replica_mask = array("Q")
        self._placement = placement
        self.first_touches = 0
        self.migrations = 0
        self.replications = 0
        self.replica_collapses = 0

    # -- storage management --------------------------------------------------------

    def reserve(self, n: int) -> None:
        """Grow the home array (in place) to cover page ids ``< n``."""
        cap = len(self._home)
        if n <= cap:
            return
        grow = max(n, 2 * cap, 256) - cap
        # -1 as little-endian two's-complement int64 is all-ones bytes
        self._home.frombytes(b"\xff" * (8 * grow))
        self._replicated += bytes(grow)
        self._replica_mask.frombytes(bytes(8 * grow))

    # -- placement ---------------------------------------------------------------

    def ensure_placed(self, page: int, node: int) -> tuple[PageRecord, bool]:
        """Return the record for ``page``, placing it on first touch.

        The home node is the first toucher under the default first-touch
        policy, or whatever the configured placement policy decides.
        Returns ``(record, first_touch)``; ``first_touch`` is True when
        this call performed the placement.
        """
        self._check_node(node)
        rec = self._pages.get(page)
        if rec is not None:
            return rec, False
        home = node if self._placement is None else self._placement(page, node)
        self._check_node(home)
        rec = PageRecord(page=page, home=home, first_toucher=node)
        self._pages[page] = rec
        if page >= len(self._home):
            self.reserve(page + 1)
        self._home[page] = home
        self.first_touches += 1
        return rec, True

    def is_placed(self, page: int) -> bool:
        """True if the page already has a home."""
        return page in self._pages

    def home_of(self, page: int) -> Optional[int]:
        """Current home node of ``page``, or None if never touched."""
        home = self._home
        if page < len(home):
            h = home[page]
            return h if h >= 0 else None
        return None

    def record(self, page: int) -> Optional[PageRecord]:
        """Return the record of ``page`` if it exists."""
        return self._pages.get(page)

    # -- migration -----------------------------------------------------------------

    def migrate(self, page: int, new_home: int) -> PageRecord:
        """Move ``page``'s home to ``new_home`` (must already be placed)."""
        self._check_node(new_home)
        rec = self._pages.get(page)
        if rec is None:
            raise KeyError(f"page {page} has never been placed")
        if rec.replicated:
            raise ValueError("cannot migrate a page while it is replicated")
        if rec.home != new_home:
            rec.home = new_home
            self._home[page] = new_home
            rec.migrations += 1
            self.migrations += 1
        return rec

    # -- replication ------------------------------------------------------------------

    def replicate(self, page: int, node: int) -> PageRecord:
        """Install a read-only replica of ``page`` at ``node``."""
        self._check_node(node)
        rec = self._pages.get(page)
        if rec is None:
            raise KeyError(f"page {page} has never been placed")
        if node == rec.home:
            raise ValueError("the home node does not need a replica")
        rec.replicated = True
        if page >= len(self._home):
            self.reserve(page + 1)
        self._replicated[page] = 1
        self._replica_mask[page] |= 1 << node
        if node not in rec.replicas:
            rec.replicas.add(node)
            self.replications += 1
        return rec

    def collapse_replicas(self, page: int) -> Set[int]:
        """Switch a replicated page back to a single read-write page.

        Returns the set of nodes whose replicas were revoked (the caller
        charges their invalidation cost).
        """
        rec = self._pages.get(page)
        if rec is None:
            raise KeyError(f"page {page} has never been placed")
        revoked = set(rec.replicas)
        if rec.replicated or revoked:
            self.replica_collapses += 1
        rec.replicas.clear()
        rec.replicated = False
        if page < len(self._home):
            self._replicated[page] = 0
            self._replica_mask[page] = 0
        return revoked

    def is_replicated(self, page: int) -> bool:
        """True while the page is in replicated state."""
        rec = self._pages.get(page)
        return bool(rec and rec.replicated)

    def replicas_of(self, page: int) -> Set[int]:
        """Nodes currently holding a replica of ``page`` (excluding home)."""
        rec = self._pages.get(page)
        return set(rec.replicas) if rec is not None else set()

    def has_local_copy(self, page: int, node: int) -> bool:
        """True if ``node`` is the home of ``page`` or holds a replica."""
        rec = self._pages.get(page)
        if rec is None:
            return False
        return rec.home == node or node in rec.replicas

    # -- inspection -----------------------------------------------------------------------

    def pages(self) -> Iterator[int]:
        """Iterate over every placed page id."""
        return iter(self._pages.keys())

    def num_pages(self) -> int:
        """Number of pages that have been placed."""
        return len(self._pages)

    def pages_homed_at(self, node: int) -> List[int]:
        """Pages whose current home is ``node``."""
        self._check_node(node)
        return [p for p, rec in self._pages.items() if rec.home == node]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
