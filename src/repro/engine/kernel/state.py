"""State marshalling between the simulator's stores and the kernel walk.

The compiled residual kernel executes each phase's
:class:`~repro.engine.classify.ResidualSchedule` against flat integer
arrays.  This module builds those arrays — **views, not copies** — over
the simulator's live buffer-backed stores (the directory columns, the
page map, the page tables' mode bytes, the block-cache frames, the L1
line stores and the MigRep counter columns), together with the small
engine-owned arrays the walk scribbles its bookkeeping into (per-proc
accumulators, per-node bus/NIC/statistics mirrors, the bail "out"
record, the per-phase pointer table).

Marshalling contract
--------------------
* **Shared stores are zero-copy and held for the run.**  Every store
  view is an ``np.frombuffer`` over the owning object's
  ``array``/``bytearray`` buffer, so a write on either side is
  immediately visible to the other.  While the views exist the buffers
  are *export-locked*: any in-place growth would raise ``BufferError``
  instead of silently leaving the kernel with dangling pointers.
  :meth:`KernelState.reserve_for_phase` takes the views once, after
  reserving every store past the first phase's maxima (whole pages, so
  page operations executed during bails cannot grow anything either),
  and keeps them — with the walk bound to them — for as long as later
  phases stay within the covered pages.  Only a phase reaching past them
  drops the views and the binding, grows the stores and re-takes the
  views; :meth:`release` drops everything at the end of the run.
* **Per-phase inputs go through one pointer table.**  The schedule
  columns and the first-touch status bytes change every phase, so the
  walk reads them through ``phase`` (``PH_*`` slots), which
  :meth:`KernelState.marshal_phase` re-points; the binding never sees
  them.
* **Python-object state is mirrored as deltas.**  Counters that live in
  plain Python attributes (``NodeStats`` fields, cache statistics, the
  directory's scalar counters, message counts) accumulate in int64 delta
  arrays that :meth:`flush` folds into the owning objects at the end of
  every phase.  Bail-time protocol code only ever *increments* these
  counters, and addition commutes — so the deltas can stay parked
  across bails without any observable difference.
* **Serialising resources are mirrored as absolutes.**  NIC and bus
  ``next_free`` times are copied in at phase start
  (:meth:`load_absolutes`) and written back by ``flush``.  NICs are the
  one mirror bail-time protocol code *reads and advances* (network
  contention), so :meth:`sync_nics_out` writes them through before each
  bail and :meth:`load_nics` re-reads them after; buses are untouched by
  protocol code and stay in the mirror for the whole phase.

Layout constants (``CON_*``, ``PP_*``, ``NN_*``, ``MUT_*``, ``OUT_*``)
are mirrored as ``#define`` s in ``cwalk.c`` — keep both in sync.
"""

from __future__ import annotations

import numpy as np

from repro.interconnect.message import MessageType
from repro.kernel.faults import FaultKind
from repro.mem.page_table import MODE_CODES, PageMode

_MAPPING_FAULT = FaultKind.MAPPING_FAULT

# ---------------------------------------------------------------------------
# layout constants (mirrored as #defines in cwalk.c — keep in sync)
# ---------------------------------------------------------------------------

#: CON — immutable run/phase constants (int64).
(CON_NUM_PROCS, CON_NUM_NODES, CON_BPP, CON_COMPUTE, CON_L1_HIT,
 CON_FAST_UNIT, CON_BUS_OCC, CON_BUS_ENABLED, CON_LOCAL_MISS,
 CON_REMOTE_MISS, CON_INVAL_COST, CON_NET_ENABLED, CON_NET_LATENCY,
 CON_NIC_OCC, CON_SZ_READ_PAIR, CON_SZ_WRITE_PAIR, CON_SZ_WB,
 CON_SZ_INV_PAIR, CON_MSG_READ, CON_MSG_WRITE, CON_MSG_DATA, CON_MSG_WB,
 CON_MSG_INV, CON_MSG_ACK, CON_HAS_MIGREP, CON_MR_THRESHOLD, CON_MR_MIG,
 CON_MR_REP, CON_MR_RESET, CON_DIR_CAP, CON_VM_LEN, CON_N_SCHED,
 CON_BC_CAP, CON_NUM_LINES, CON_MODE_REPLICA, CON_MODE_LOCAL_HOME,
 CON_DEP_EVICTED, CON_DEP_INVALIDATED, CON_SOFT_TRAP, CON_MSG_MAP_REQ,
 CON_MSG_MAP_REPLY, CON_SZ_MAP_PAIR, CON_MODE_CCNUMA_REMOTE,
 CON_FIRST_TOUCH, CON_HAS_RNUMA, CON_RN_STATIC, CON_RN_THRESHOLD,
 CON_RN_DELAY, CON_HAS_PAGECACHE, CON_SCOMA_ALLOC, CON_HYBRID,
 CON_MR_STATIC, CON_BC_PENALTY, CON_MR_HYST) = range(54)
CON_SIZE = 56

#: FCON — float64 run constants (the int64 ``con`` array cannot carry
#: the hysteresis policy's fractional threshold and decay factor).
(FCON_HY_THRESHOLD, FCON_HY_DECAY) = range(2)
FCON_SIZE = 2

#: PP — per-processor bookkeeping rows of the flat ``pp`` array
#: (``pp[row * num_procs + p]``).
(PP_PTR, PP_FAST, PP_HITS, PP_UPG, PP_MISS, PP_INVAL, PP_EVICT,
 PP_ACC_LOCAL, PP_ACC_REMOTE, PP_ACC_UPGRADE, PP_ACC_PAGEOP, PP_ACC_FAULT,
 PP_ACC_CONT, PP_CLOCK, PP_NODE, PP_QCUR, PP_QLEN) = range(17)
PP_ROWS = 17

#: NN — per-node mirror rows of the flat ``nn`` array
#: (``nn[row * num_nodes + n]``).  ``*_FREE`` rows are absolute times;
#: every other row is a delta folded into its owner by ``flush``.
(NN_BUS_FREE, NN_BUS_TXN, NN_BUS_WAIT, NN_NIC_FREE, NN_NIC_MSGS,
 NN_NIC_BUSY, NN_NIC_WAIT, NN_NS_LOCAL, NN_NS_REMOTE, NN_NS_UPGRADES,
 NN_NS_BCHITS, NN_NS_CAUSE0, NN_NS_CAUSE1, NN_NS_CAUSE2, NN_BCS_HITS,
 NN_BCS_MISSES, NN_BCS_INVAL, NN_BCS_EVICT, NN_MAPFAULT, NN_NS_PCHITS,
 NN_PCS_HITS, NN_PCS_MISSES, NN_PCS_FILLS, NN_PCS_INVAL,
 NN_RF_TOTAL) = range(25)
NN_ROWS = 25

#: MUT — mutable walk scalars surviving across bails within a phase.
(MUT_K, MUT_BYTES, MUT_DIR_INV, MUT_DIR_WB, MUT_CTR_RESETS,
 MUT_RESIDUAL, MUT_NPLACED) = range(7)
MUT_SIZE = 8

#: OUT — the bail record the walk fills before returning.
(OUT_KIND, OUT_P, OUT_I, OUT_BLOCK, OUT_PAGE, OUT_WRITE, OUT_START,
 OUT_WAIT, OUT_CLOCK, OUT_HOME, OUT_MODE, OUT_SERVICE,
 OUT_VERSION, OUT_FAULT, OUT_EVAL) = range(15)
OUT_SIZE = 16

#: PH — the per-phase pointer table: addresses of the schedule columns
#: (in :func:`schedule_arrays` order), the flat status bytes and their
#: per-processor offsets.
(PH_I, PH_P, PH_PROBE, PH_BLK, PH_WRT, PH_SLOT, PH_KEYS, PH_STATUS,
 PH_STATUS_OFF) = range(9)
PH_SIZE = 9

#: Walk return codes.
RC_DONE = 0            #: phase complete
RC_BAIL_FAULT = 1      #: mapping fault — execute via ``handle_miss``
RC_BAIL_COLLAPSE = 2   #: write to a replicated page — via ``_service_remote_page``
RC_BAIL_REPLICATE = 3  #: static MigRep decision: install a replica
RC_BAIL_MIGRATE = 4    #: static MigRep decision: migrate the page
RC_BAIL_RELOCATE = 5   #: static R-NUMA decision: relocate into the page cache
RC_BAIL_DECIDE = 6     #: adaptive policy evaluation point (``OUT_EVAL`` mask)
RC_BAIL_PAGECACHE = 7  #: S-COMA first-touch allocation — via ``_service_remote_page``


def _i64(buf) -> np.ndarray:
    """Writable int64 view of a buffer-backed store (zero-copy)."""
    return np.frombuffer(buf, dtype=np.int64)


def _u8(buf) -> np.ndarray:
    """Writable uint8 view of a ``bytearray``-backed store (zero-copy)."""
    return np.frombuffer(buf, dtype=np.uint8)


def _f64(buf) -> np.ndarray:
    """Writable float64 view of a buffer-backed store (zero-copy)."""
    return np.frombuffer(buf, dtype=np.float64)


def schedule_arrays(sched):
    """The walk's entry columns of ``sched``, in argument order.

    ``(i, p, probe, blk, wrt, slot, keys)`` — flat int64/uint8 arrays
    shared with the phase's cached static classification, so a later
    run of the same phase passes the same arrays without conversion.
    """
    return (sched.i, sched.p, sched.probe, sched.blk, sched.wrt, sched.slot,
            sched.keys)


class KernelState:
    """One run's marshalled state: store views, mirrors and the binding.

    Built once per run.  The store views, and the walk bound to them
    (``runner``, set by the driver; ``None`` while stale), live across
    phases until a phase reaches past the covered pages — then
    :meth:`reserve_for_phase` drops both, grows the stores and re-takes
    the views.  :meth:`release` must be called on every exit from the
    run so the buffers' export locks are dropped.
    """

    def __init__(self, machine, num_procs, caches, node_of):
        self.machine = machine
        self.num_procs = num_procs
        self.num_nodes = len(machine.nodes)
        self.caches = caches
        cfg = machine.cfg
        costs = cfg.costs
        net = machine.network
        sizes = net.stats._sizes
        protocol = machine.protocol

        con = np.zeros(CON_SIZE, dtype=np.int64)
        con[CON_NUM_PROCS] = num_procs
        con[CON_NUM_NODES] = self.num_nodes
        con[CON_BPP] = machine.addr.blocks_per_page
        con[CON_L1_HIT] = costs.l1_hit
        con[CON_BUS_OCC] = costs.bus_occupancy
        con[CON_BUS_ENABLED] = int(cfg.model_contention)
        con[CON_LOCAL_MISS] = costs.local_miss
        con[CON_REMOTE_MISS] = costs.remote_miss
        con[CON_INVAL_COST] = costs.invalidation_per_sharer
        con[CON_NET_ENABLED] = int(net.enabled)
        con[CON_NET_LATENCY] = net.latency
        con[CON_NIC_OCC] = net.nic_occupancy
        ri = MessageType.READ_REQUEST.index
        wi = MessageType.WRITE_REQUEST.index
        di = MessageType.DATA_REPLY.index
        bi = MessageType.WRITEBACK.index
        ii = MessageType.INVALIDATION.index
        ai = MessageType.INVALIDATION_ACK.index
        con[CON_SZ_READ_PAIR] = sizes[ri] + sizes[di]
        con[CON_SZ_WRITE_PAIR] = sizes[wi] + sizes[di]
        con[CON_SZ_WB] = sizes[bi]
        con[CON_SZ_INV_PAIR] = sizes[ii] + sizes[ai]
        con[CON_MSG_READ] = ri
        con[CON_MSG_WRITE] = wi
        con[CON_MSG_DATA] = di
        con[CON_MSG_WB] = bi
        con[CON_MSG_INV] = ii
        con[CON_MSG_ACK] = ai
        # an infinite (identity-mapped) block cache grows per phase, so its
        # frame count is refreshed by reserve_for_phase
        self.bc_identity = machine.block_caches[0].capacity_blocks is None
        con[CON_BC_CAP] = machine.block_caches[0].capacity_blocks or 0
        con[CON_NUM_LINES] = caches[0].num_lines
        con[CON_MODE_REPLICA] = MODE_CODES[PageMode.REPLICA]
        con[CON_MODE_LOCAL_HOME] = MODE_CODES[PageMode.LOCAL_HOME]
        con[CON_MODE_CCNUMA_REMOTE] = MODE_CODES[PageMode.CCNUMA_REMOTE]
        from repro.core.protocol import (
            _DEPARTED_EVICTED, _DEPARTED_INVALIDATED)
        con[CON_DEP_EVICTED] = _DEPARTED_EVICTED
        con[CON_DEP_INVALIDATED] = _DEPARTED_INVALIDATED
        con[CON_SOFT_TRAP] = costs.soft_trap
        mri = MessageType.PAGE_MAP_REQUEST.index
        mpi = MessageType.PAGE_MAP_REPLY.index
        con[CON_MSG_MAP_REQ] = mri
        con[CON_MSG_MAP_REPLY] = mpi
        con[CON_SZ_MAP_PAIR] = sizes[mri] + sizes[mpi]
        # first-touch placement can run inside the walk; any configured
        # placement policy is Python code, so those faults bail instead
        con[CON_FIRST_TOUCH] = int(machine.vm._placement is None)
        # exact-type protocol dispatch (kernel_eligibility admitted the
        # type, so this enumeration is exhaustive); the hybrid keeps its
        # MigRep half under different attribute names than plain MigRep
        from repro.core.decisions import HysteresisMigRepPolicy, MigRepPolicy
        from repro.core.dram_cache import DRAMBlockCacheProtocol
        from repro.core.migrep import MigRepProtocol
        from repro.core.rnuma import RNUMAProtocol
        from repro.core.rnuma_migrep import RNUMAMigRepProtocol
        from repro.core.scoma import SCOMAProtocol
        ptype = type(protocol)
        counters = None
        mr_policy = None
        if ptype is MigRepProtocol:
            counters = protocol.counters
            mr_policy = protocol.policy
        elif ptype is RNUMAMigRepProtocol:
            counters = protocol.migrep_counters
            mr_policy = protocol.migrep_policy
            con[CON_HYBRID] = 1
        self.fcon = np.zeros(FCON_SIZE, dtype=np.float64)
        self.hy_policy = None
        if counters is not None:
            con[CON_HAS_MIGREP] = 1
            con[CON_MR_RESET] = counters.reset_interval
            if type(mr_policy) is MigRepPolicy:
                con[CON_MR_STATIC] = 1
                con[CON_MR_THRESHOLD] = mr_policy.threshold
                con[CON_MR_MIG] = int(mr_policy.enable_migration)
                con[CON_MR_REP] = int(mr_policy.enable_replication)
            elif type(mr_policy) is HysteresisMigRepPolicy:
                # the hysteresis evaluation is pure arithmetic over the
                # marshalled counter rows plus the policy's dense score
                # table, so it runs inline; only fired decisions bail
                con[CON_MR_HYST] = 1
                con[CON_MR_MIG] = int(mr_policy.enable_migration)
                con[CON_MR_REP] = int(mr_policy.enable_replication)
                self.fcon[FCON_HY_THRESHOLD] = mr_policy.threshold
                self.fcon[FCON_HY_DECAY] = mr_policy.decay
                self.hy_policy = mr_policy
        self.rnuma = protocol if isinstance(protocol, RNUMAProtocol) else None
        if self.rnuma is not None:
            # eligibility requires a page cache on every node here
            con[CON_HAS_PAGECACHE] = 1
            if ptype is SCOMAProtocol:
                con[CON_SCOMA_ALLOC] = 1
            else:
                con[CON_HAS_RNUMA] = 1
                con[CON_RN_STATIC] = int(protocol._rn_static)
                con[CON_RN_THRESHOLD] = protocol._rn_threshold
                con[CON_RN_DELAY] = protocol._rn_delay
        elif ptype is DRAMBlockCacheProtocol:
            con[CON_BC_PENALTY] = protocol.hit_penalty
        self.con = con
        self.counters = counters

        self.mut = np.zeros(MUT_SIZE, dtype=np.int64)
        self.pp = np.zeros(PP_ROWS * num_procs, dtype=np.int64)
        self.pp[PP_NODE * num_procs:(PP_NODE + 1) * num_procs] = node_of
        self.nn = np.zeros(NN_ROWS * self.num_nodes, dtype=np.int64)
        self.msg_delta = np.zeros(len(net.stats._counts), dtype=np.int64)
        self.out = np.zeros(OUT_SIZE, dtype=np.int64)

        # empty demoted queues (replaced by the driver after demotions);
        # resetting to the one empty array keeps the bound walk's queue
        # pointers valid without a refresh
        empty = self._no_queue = np.empty(0, dtype=np.int64)
        self.q_idx = [empty] * num_procs
        self.q_blk = [empty] * num_procs

        # first-touch placements performed inside the walk, encoded as
        # ``page << 6 | node`` (eligibility caps nodes at 62); their
        # PageRecords are materialized lazily by materialize_placements
        self.place_log = empty

        # per-phase pointer table, and the arrays its addresses point into
        self.phase = np.zeros(PH_SIZE, dtype=np.uint64)
        self._phase_refs = None

        # store views and the walk bound to them — taken by the first
        # reserve_for_phase, re-taken only when a phase outgrows them
        self.runner = None
        self.pages_covered = 0
        self._views_live = False

    # -- run-scoped store views ---------------------------------------------

    def reserve_for_phase(self, max_block: int) -> None:
        """Make the store views cover this phase's pages.

        A no-op while the live views already cover every page up to the
        one holding ``max_block``.  Otherwise the views and the binding
        are dropped, every growable store is reserved past the phase's
        maxima and the views are taken again; the driver re-binds the
        walk because ``runner`` is then ``None``.  Reservation covers
        *whole pages* (``(max_page + 1) * bpp`` blocks): page operations
        executed during bails touch every block of the faulting page, and
        nothing a phase can do reaches beyond its pages — so no in-place
        growth can happen while the views hold the buffers' export locks.
        """
        need = max_block // int(self.con[CON_BPP]) + 1 if max_block >= 0 else 0
        if self._views_live:
            if need <= self.pages_covered:
                return
            self.release()
        if need:
            self._grow(need)
        self._take_views()

    def _grow(self, pages: int) -> None:
        """Reserve every growable store to cover page ids ``< pages``."""
        machine = self.machine
        blocks = pages * int(self.con[CON_BPP])
        machine.directory.reserve(blocks)
        machine.vm.reserve(pages)
        for pt in machine.page_tables:
            pt.reserve(pages)
        if self.counters is not None:
            self.counters.reserve(pages)
        if self.hy_policy is not None:
            self.hy_policy.reserve(pages, num_nodes=self.num_nodes)
        if self.rnuma is not None:
            self.rnuma._reserve_totals(pages)
            for rc in self.rnuma.refetch_counters:
                rc.reserve(pages)
            for pc in machine.page_caches:
                if pc is not None:
                    pc.reserve(pages)
        if self.bc_identity:
            # identity-mapped frames: covering every block id the phase
            # can touch makes the walk's ``block % cap`` the identity
            for bc in machine.block_caches:
                bc.reserve(blocks)

    def _take_views(self) -> None:
        """Take the zero-copy store views and record the pages they cover."""
        machine = self.machine
        directory = machine.directory
        vm = machine.vm
        self.dir_sharers = _i64(directory._sharers)   # bitmask fits int64:
        self.dir_owner = _i64(directory._owner)       # eligibility caps nodes
        self.dir_versions = _i64(directory._version)
        self.dir_tracked = _u8(directory._tracked)
        self.departed = [_u8(d) for d in directory._departed]
        self.vm_home = _i64(vm._home)
        self.vm_replicated = _u8(vm._replicated)
        self.vm_replica_mask = _i64(vm._replica_mask)
        self.pt_modes = [_u8(pt._modes) for pt in machine.page_tables]
        self.pt_tracked = [_u8(pt._tracked) for pt in machine.page_tables]
        self.pt_faults = [_i64(pt._faults) for pt in machine.page_tables]
        self.bc_blocks = [_i64(bc._blocks) for bc in machine.block_caches]
        self.bc_versions = [_i64(bc._versions) for bc in machine.block_caches]
        self.bc_dirty = [_u8(bc._dirty) for bc in machine.block_caches]
        self.cb = []
        self.cv = []
        self.cd = []
        for c in self.caches:
            blocks_l, versions_l, dirty_l = c.line_state()
            self.cb.append(_i64(blocks_l))
            self.cv.append(_i64(versions_l))
            self.cd.append(_u8(dirty_l))
        if self.counters is not None:
            c = self.counters
            self.ctr_read = _i64(c._read)
            self.ctr_write = _i64(c._write)
            self.ctr_since = _i64(c._since)
            self.ctr_live_r = _u8(c._live_r)
            self.ctr_live_w = _u8(c._live_w)
        else:
            e64 = np.empty(0, dtype=np.int64)
            e8 = np.empty(0, dtype=np.uint8)
            self.ctr_read = self.ctr_write = self.ctr_since = e64
            self.ctr_live_r = self.ctr_live_w = e8
        if self.hy_policy is not None:
            self.hy_scores = _f64(self.hy_policy._scores)
            self.hy_seen = _i64(self.hy_policy._home_seen)
        else:
            # valid (never dereferenced) placeholders gated on CON_MR_HYST
            self.hy_scores = np.empty(0, dtype=np.float64)
            self.hy_seen = np.empty(0, dtype=np.int64)
        if self.rnuma is not None:
            proto = self.rnuma
            pcs = machine.page_caches
            self.rf_counts = [_i64(rc._counts)
                              for rc in proto.refetch_counters]
            self.pg_totals = _i64(proto._page_miss_totals)
            self.pc_res = [_u8(pc._resident) for pc in pcs]
            self.pc_version = [_i64(pc._version) for pc in pcs]
            self.pc_dirty = [_u8(pc._dirty) for pc in pcs]
            self.pc_stamp = [_i64(pc._stamp) for pc in pcs]
            self.pc_clock = [_i64(pc._clock) for pc in pcs]
            self.pc_nvalid = [_i64(pc._nvalid) for pc in pcs]
            self.pc_ndirty = [_i64(pc._ndirty) for pc in pcs]
            self.pc_fills = [_i64(pc._fills) for pc in pcs]
        else:
            # valid (never dereferenced) placeholders: the walk's page
            # cache and R-NUMA accesses are gated on the CON flags
            e64 = np.empty(0, dtype=np.int64)
            e8 = np.empty(0, dtype=np.uint8)
            N = self.num_nodes
            self.rf_counts = [e64] * N
            self.pg_totals = e64
            self.pc_res = [e8] * N
            self.pc_version = [e64] * N
            self.pc_dirty = [e8] * N
            self.pc_stamp = [e64] * N
            self.pc_clock = [e64] * N
            self.pc_nvalid = [e64] * N
            self.pc_ndirty = [e64] * N
            self.pc_fills = [e64] * N
        bpp = int(self.con[CON_BPP])
        self.con[CON_DIR_CAP] = len(self.dir_sharers)
        self.con[CON_VM_LEN] = len(self.vm_home)
        # every page-indexed store must cover a page for the walk to touch
        # it; the smallest capacity bounds the phases these views serve
        covered = [len(self.vm_home), len(self.dir_sharers) // bpp]
        covered += [len(m) for m in self.pt_modes]
        if self.counters is not None:
            covered.append(len(self.ctr_since))
        if self.hy_policy is not None:
            covered.append(len(self.hy_seen))
        if self.rnuma is not None:
            covered.append(len(self.pg_totals))
            covered += [len(c) for c in self.rf_counts]
            covered += [len(s) for s in self.pc_stamp]
        if self.bc_identity:
            frames = min(len(b) for b in self.bc_blocks)
            self.con[CON_BC_CAP] = frames
            covered.append(frames // bpp)
        self.pages_covered = min(covered)
        if len(self.place_log) < self.pages_covered:
            self.place_log = np.empty(self.pages_covered, dtype=np.int64)
        self._views_live = True

    def walk_args(self) -> tuple:
        """The walk's argument tuple, in ``repro_kernel_walk`` order.

        Bound once per set of views; the per-phase inputs are reached
        through the ``phase`` pointer table instead.
        """
        return (self.con, self.fcon, self.mut, self.pp, self.nn,
                self.msg_delta, self.out,
                self.dir_sharers, self.dir_owner, self.dir_versions,
                self.dir_tracked,
                self.vm_home, self.vm_replicated, self.vm_replica_mask,
                self.ctr_read, self.ctr_write, self.ctr_since,
                self.ctr_live_r, self.ctr_live_w,
                self.hy_scores, self.hy_seen,
                self.departed, self.pt_modes, self.pt_tracked,
                self.pt_faults,
                self.bc_blocks, self.bc_versions, self.bc_dirty,
                self.cb, self.cv, self.cd, self.phase,
                self.rf_counts, self.pg_totals, self.pc_res,
                self.pc_version, self.pc_dirty, self.pc_stamp,
                self.pc_clock, self.pc_nvalid, self.pc_ndirty,
                self.pc_fills,
                self.place_log, self.q_idx, self.q_blk)

    def marshal_phase(self, sched, columns) -> None:
        """Point the walk at one phase's schedule.

        ``columns`` are the schedule's walk columns
        (:func:`schedule_arrays`); their addresses and the schedule's
        status bytes go into the ``phase`` pointer table, which also
        keeps the arrays alive.  The walk position and the demoted
        queues restart.
        """
        table = self.phase
        for slot, col in enumerate(columns):
            table[slot] = col.ctypes.data
        table[PH_STATUS] = sched.status.ctypes.data
        table[PH_STATUS_OFF] = sched.status_off.ctypes.data
        self._phase_refs = (columns, sched.status, sched.status_off)
        self.con[CON_N_SCHED] = len(sched)
        self.mut[MUT_K] = 0
        empty = self._no_queue
        for p in range(self.num_procs):
            self.q_idx[p] = empty
            self.q_blk[p] = empty

    def release(self) -> None:
        """Drop the bound walk and the store views (and their export locks)."""
        self.runner = None
        self.dir_sharers = self.dir_owner = self.dir_versions = None
        self.dir_tracked = self.departed = None
        self.vm_home = self.vm_replicated = self.vm_replica_mask = None
        self.pt_modes = self.pt_tracked = self.pt_faults = None
        self.bc_blocks = self.bc_versions = None
        self.bc_dirty = self.cb = self.cv = self.cd = None
        self.ctr_read = self.ctr_write = self.ctr_since = None
        self.ctr_live_r = self.ctr_live_w = None
        self.hy_scores = self.hy_seen = None
        self.rf_counts = self.pg_totals = None
        self.pc_res = self.pc_version = self.pc_dirty = None
        self.pc_stamp = self.pc_clock = self.pc_nvalid = None
        self.pc_ndirty = self.pc_fills = None
        self.pages_covered = 0
        self._views_live = False

    # -- mirror synchronisation ---------------------------------------------

    def load_absolutes(self) -> None:
        """Copy the serialising resources' state into the mirrors."""
        machine = self.machine
        nn = self.nn
        N = self.num_nodes
        for n in range(N):
            nn[NN_BUS_FREE * N + n] = machine.nodes[n].bus.next_free
            nn[NN_NIC_FREE * N + n] = machine.network._nics[n].next_free

    def sync_nics_out(self) -> None:
        """Write the NIC ``next_free`` mirror through to the NIC objects.

        Called before each bail: the protocol code servicing the bail
        computes network contention from (and advances) the live NICs.
        The bus mirror needs no write-through — protocol code never
        touches buses — and the delta mirrors stay parked (bail-time
        code only increments the owning counters, which commutes).
        """
        nics = self.machine.network._nics
        nn = self.nn
        N = self.num_nodes
        for n in range(N):
            nics[n].next_free = int(nn[NN_NIC_FREE * N + n])

    def load_nics(self) -> None:
        """Re-read the NIC ``next_free`` times after a bail."""
        nics = self.machine.network._nics
        nn = self.nn
        N = self.num_nodes
        for n in range(N):
            nn[NN_NIC_FREE * N + n] = nics[n].next_free

    def materialize_placements(self) -> None:
        """Create the PageRecords for first touches the walk performed.

        The walk places first-touch pages itself (``vm._home`` plus the
        node's page table, both views) and logs ``page << 6 | node``;
        the record-dict side of the placement happens here.  Must run
        before any Python protocol code can consult ``vm`` — i.e. at
        every bail and at the end of every phase.
        """
        npl = int(self.mut[MUT_NPLACED])
        if not npl:
            return
        from repro.kernel.vm import PageRecord
        vm = self.machine.vm
        pages = vm._pages
        log = self.place_log
        for j in range(npl):
            v = int(log[j])
            page = v >> 6
            node = v & 63
            pages[page] = PageRecord(page=page, home=node,
                                     first_toucher=node)
        vm.first_touches += npl
        self.mut[MUT_NPLACED] = 0

    def flush(self) -> None:
        """Fold the delta mirrors into their owners; write back absolutes.

        Runs at the end of every phase.  Delta rows are zeroed as they
        are folded; absolute rows are written through.
        """
        self.materialize_placements()
        machine = self.machine
        nn = self.nn
        N = self.num_nodes
        bus_occ = int(self.con[CON_BUS_OCC])
        soft_trap = int(self.con[CON_SOFT_TRAP])
        protocol = machine.protocol
        for n in range(N):
            bus = machine.nodes[n].bus
            txn = int(nn[NN_BUS_TXN * N + n])
            bus.next_free = int(nn[NN_BUS_FREE * N + n])
            bus.transactions += txn
            bus.busy_cycles += txn * bus_occ
            bus.wait_cycles += int(nn[NN_BUS_WAIT * N + n])
            nn[NN_BUS_TXN * N + n] = 0
            nn[NN_BUS_WAIT * N + n] = 0
            nic = machine.network._nics[n]
            nic.next_free = int(nn[NN_NIC_FREE * N + n])
            nic.messages += int(nn[NN_NIC_MSGS * N + n])
            nic.busy_cycles += int(nn[NN_NIC_BUSY * N + n])
            nic.wait_cycles += int(nn[NN_NIC_WAIT * N + n])
            nn[NN_NIC_MSGS * N + n] = 0
            nn[NN_NIC_BUSY * N + n] = 0
            nn[NN_NIC_WAIT * N + n] = 0
            ns = machine.stats.nodes[n]
            ns.local_misses += int(nn[NN_NS_LOCAL * N + n])
            ns.remote_misses += int(nn[NN_NS_REMOTE * N + n])
            ns.upgrades += int(nn[NN_NS_UPGRADES * N + n])
            ns.block_cache_hits += int(nn[NN_NS_BCHITS * N + n])
            ns.remote_by_cause[0] += int(nn[NN_NS_CAUSE0 * N + n])
            ns.remote_by_cause[1] += int(nn[NN_NS_CAUSE1 * N + n])
            ns.remote_by_cause[2] += int(nn[NN_NS_CAUSE2 * N + n])
            bcs = machine.block_caches[n].stats
            bcs.hits += int(nn[NN_BCS_HITS * N + n])
            bcs.misses += int(nn[NN_BCS_MISSES * N + n])
            bcs.invalidations += int(nn[NN_BCS_INVAL * N + n])
            bcs.evictions += int(nn[NN_BCS_EVICT * N + n])
            mf = int(nn[NN_MAPFAULT * N + n])
            if mf:
                # one mapping fault = NodeStats count + page-table soft
                # fault + a FaultLog record of soft_trap cycles
                ns.mapping_faults += mf
                machine.page_tables[n].soft_faults += mf
                log = protocol.fault_logs[n]
                log.counts[_MAPPING_FAULT] = (
                    log.counts.get(_MAPPING_FAULT, 0) + mf)
                log.cycles[_MAPPING_FAULT] = (
                    log.cycles.get(_MAPPING_FAULT, 0) + mf * soft_trap)
            if self.rnuma is not None:
                ns.page_cache_hits += int(nn[NN_NS_PCHITS * N + n])
                pc = machine.page_caches[n]
                if pc is not None:
                    pcs = pc.stats
                    pcs.block_hits += int(nn[NN_PCS_HITS * N + n])
                    pcs.block_misses += int(nn[NN_PCS_MISSES * N + n])
                    pcs.block_fills += int(nn[NN_PCS_FILLS * N + n])
                    pcs.block_invalidations += int(nn[NN_PCS_INVAL * N + n])
                rc = self.rnuma.refetch_counters[n]
                rc.total_recorded += int(nn[NN_RF_TOTAL * N + n])
            for row in (NN_NS_LOCAL, NN_NS_REMOTE, NN_NS_UPGRADES,
                        NN_NS_BCHITS, NN_NS_CAUSE0, NN_NS_CAUSE1,
                        NN_NS_CAUSE2, NN_BCS_HITS, NN_BCS_MISSES,
                        NN_BCS_INVAL, NN_BCS_EVICT, NN_MAPFAULT,
                        NN_NS_PCHITS, NN_PCS_HITS, NN_PCS_MISSES,
                        NN_PCS_FILLS, NN_PCS_INVAL, NN_RF_TOTAL):
                nn[row * N + n] = 0
        net_stats = machine.network.stats
        counts = net_stats._counts
        msg_delta = self.msg_delta
        for idx in range(len(counts)):
            if msg_delta[idx]:
                counts[idx] += int(msg_delta[idx])
                msg_delta[idx] = 0
        mut = self.mut
        net_stats.bytes_total += int(mut[MUT_BYTES])
        mut[MUT_BYTES] = 0
        machine.directory.invalidations_sent += int(mut[MUT_DIR_INV])
        machine.directory.writebacks += int(mut[MUT_DIR_WB])
        mut[MUT_DIR_INV] = 0
        mut[MUT_DIR_WB] = 0
        if self.counters is not None:
            self.counters.resets += int(mut[MUT_CTR_RESETS])
            mut[MUT_CTR_RESETS] = 0


__all__ = [name for name in dir() if name.startswith(("CON_", "FCON_", "PP_",
                                                      "NN_", "MUT_", "OUT_",
                                                      "PH_", "RC_"))]
__all__ += ["KernelState", "schedule_arrays"]
